"""Vanilla single-hidden-layer RNN shared by all online trainers.

The network keeps a hidden state x of size q, reads an input u of size m+1
(leading entry is a constant 1 for the bias) and emits a prediction y of
size p:

    z      = W_a x + W_b u
    x_next = tanh(z)
    y      = W_c x_next

Trainers treat the three weight matrices as one flat parameter vector
theta = [W_a | W_b | W_c], each matrix unrolled column by column
(column-major). Every trainer in this package uses this one layout, through
`flatten_params`/`unflatten_params` and the update `sgd_update`, so that
gradient indices never drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteError",
    "RnnDims",
    "RnnParams",
    "StepCache",
    "Workspace",
    "init_params",
    "forward",
    "loss",
    "tanh_prime",
    "clip_gradient",
    "sgd_update",
    "flatten_params",
    "unflatten_params",
]


class NonFiniteError(FloatingPointError):
    """A trainer produced a NaN or infinity.

    `quantity` names the first non-finite intermediate so that divergence
    reports can say what blew up, not just that something did.
    """

    def __init__(self, quantity: str):
        super().__init__(f"non-finite values in '{quantity}'")
        self.quantity = quantity


@dataclass(frozen=True)
class RnnDims:
    """Sizes of the network: q hidden units, m signal inputs, p outputs.

    The input vector has m+1 entries (constant bias first), so the total
    parameter count is q*q + q*(m+1) + p*q = q*(p+q+m+1).
    """

    q: int
    m: int
    p: int

    def __post_init__(self):
        if self.q < 1 or self.m < 1 or self.p < 1:
            raise ValueError(f"all dimensions must be >= 1, got {self}")

    @property
    def n_wa(self) -> int:
        return self.q * self.q

    @property
    def n_wb(self) -> int:
        return self.q * (self.m + 1)

    @property
    def n_wc(self) -> int:
        return self.p * self.q

    @property
    def n_params(self) -> int:
        return self.q * (self.p + self.q + self.m + 1)


@dataclass(frozen=True)
class RnnParams:
    """Weight matrices W_a (q x q), W_b (q x (m+1)), W_c (p x q).

    Treated as immutable: trainers never write into the arrays, they build
    new instances from an updated flat parameter vector. The one exception
    is a `Workspace`'s own weights, which a step given that workspace
    overwrites with the next ones.
    """

    w_a: np.ndarray
    w_b: np.ndarray
    w_c: np.ndarray

    @property
    def dims(self) -> RnnDims:
        q = self.w_a.shape[0]
        return RnnDims(q=q, m=self.w_b.shape[1] - 1, p=self.w_c.shape[0])


@dataclass(frozen=True)
class StepCache:
    """Intermediates of one forward step: input drive wb_u = W_b u,
    pre-activation z = W_a x + wb_u, new hidden state x_next = tanh(z), and
    prediction y = W_c x_next."""

    wb_u: np.ndarray
    z: np.ndarray
    x_next: np.ndarray
    y: np.ndarray


class Workspace:
    """Buffers a learner owns so that a trainer step writes its new weights
    into them instead of into fresh arrays: `params`, the column-major
    matrix views of one flat |W| buffer (the layout `unflatten_params`
    gives), and the flat gradient `grad`. The uoro and rtrl modules extend
    it with the buffers of their own learner state."""

    def __init__(self, dims: RnnDims):
        self.dims = dims
        self.params = unflatten_params(np.empty(dims.n_params), dims)
        self.grad = np.empty(dims.n_params)

    def check(self, dims: RnnDims) -> None:
        """Raise ValueError unless the buffers fit a network of `dims`."""
        if dims != self.dims:
            raise ValueError(f"workspace is for {self.dims}, network is {dims}")


def init_params(dims: RnnDims, sigma_init: float, seed: int) -> RnnParams:
    """Draw every weight i.i.d. from N(0, sigma_init^2).

    Matrices are drawn in the order W_a, W_b, W_c from a single
    `numpy.random.default_rng(seed)` stream, so a given seed always yields
    the same network.
    """
    if not sigma_init > 0:
        raise ValueError(f"sigma_init must be > 0, got {sigma_init}")
    rng = np.random.default_rng(seed)
    w_a = sigma_init * rng.standard_normal((dims.q, dims.q))
    w_b = sigma_init * rng.standard_normal((dims.q, dims.m + 1))
    w_c = sigma_init * rng.standard_normal((dims.p, dims.q))
    return RnnParams(w_a=w_a, w_b=w_b, w_c=w_c)


def forward(params: RnnParams, x: np.ndarray, u: np.ndarray) -> StepCache:
    """One step of the state and measurement maps."""
    q = params.w_a.shape[0]
    if x.shape != (q,):
        raise ValueError(f"state has shape {x.shape}, expected ({q},)")
    if u.shape != (params.w_b.shape[1],):
        raise ValueError(
            f"input has shape {u.shape}, expected ({params.w_b.shape[1]},)"
        )
    wb_u = params.w_b @ u
    z = params.w_a @ x + wb_u
    x_next = np.tanh(z)
    y = params.w_c @ x_next
    return StepCache(wb_u=wb_u, z=z, x_next=x_next, y=y)


def loss(y: np.ndarray, y_star: np.ndarray) -> tuple[np.ndarray, float]:
    """Instantaneous square loss: e = y* - y, L = 0.5 * ||e||^2."""
    if y.shape != y_star.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_star.shape}")
    e = y_star - y
    return e, 0.5 * float(e @ e)


def tanh_prime(z: np.ndarray) -> np.ndarray:
    """Elementwise derivative of tanh: 1 - tanh(z)^2."""
    t = np.tanh(z)
    return 1.0 - t * t


def clip_gradient(g: np.ndarray, tau: float) -> np.ndarray:
    """Rescale g to Euclidean norm tau when ||g|| > tau, else return g as is
    (same array, no copy). The clipped norm never exceeds tau, even under
    floating-point rounding of the rescaling."""
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    norm = _norm(g)
    if norm > tau:
        return _rescale(g, tau, norm)
    return g


# Passes of `_rescale`'s overshoot guard that may leave the norm unchanged
# before the guard shrinks geometrically.
_MAX_STALLS = 16


def _rescale(
    g: np.ndarray, tau: float, norm: float, out: np.ndarray | None = None
) -> np.ndarray:
    """g * (tau / norm) with norm at most tau, for norm = ||g|| > tau: a new
    array, or `out` (which may be g itself) overwritten."""
    clipped = np.multiply(g, tau / norm, out=out)
    # Rounding of the rescaling can overshoot tau by an ulp; each pass
    # nudges the norm toward just below tau (in practice one pass ends it).
    # A nudge can leave the computed norm where it was, rarely for normal
    # numbers and on every pass when the squares fall below the normal
    # range (norms under about 1.5e-154); after _MAX_STALLS such passes
    # each pass squares the shrink factor, which must end the loop.
    below_tau = float(np.nextafter(tau, 0.0))
    excess = _norm(clipped)
    stalls = 0
    while excess > tau:
        shrink = below_tau / excess if stalls < _MAX_STALLS else shrink * shrink
        clipped *= shrink
        last = excess
        excess = _norm(clipped)
        stalls += excess >= last
    return clipped


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v's entries: the value `np.linalg.norm(v)` gives
    for real v (the same dot over the same order), without its overhead."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _finite_norm(v: np.ndarray, quantity: str) -> float:
    """`_norm(v)`, after checking that every entry of v is finite.

    A finite norm proves every entry finite; an infinite or NaN one may
    come from overflow of the squares alone, so only then is v scanned.

    Raises:
        NonFiniteError: naming `quantity`, when an entry is NaN or infinite.
    """
    norm = _norm(v)
    if not math.isfinite(norm) and not np.isfinite(v).all():
        raise NonFiniteError(quantity)
    return norm


def sgd_update(
    params: RnnParams,
    grad: np.ndarray,
    grad_norm: float,
    eta: float,
    tau: float,
    out: RnnParams | None = None,
) -> RnnParams:
    """One clipped SGD step on the weights: W - eta * clip(grad, tau).

    Gives the same values as
    `unflatten_params(flatten_params(params) - eta * clip_gradient(grad, tau), dims)`
    without the flat copy of `params`: eta * clip(grad) goes into one flat
    buffer, and each weight matrix is subtracted into its column-major view
    of that buffer, or into its matrix in `out`.

    Without `out`, the buffer is fresh and neither `params` nor `grad` is
    written to. With `out`, `grad` is the buffer (it is left holding
    eta * clip(grad)) and the new weights are written into `out`'s
    matrices, which may be `params`' own: every entry is computed from the
    same entries of `params` and `grad` alone, so the update can run in
    place.

    Args:
        params: current weights.
        grad: flat gradient of length |W| in the [W_a | W_b | W_c] layout.
        grad_norm: its Euclidean norm, sqrt(grad . grad), which the caller
            has already computed to check the gradient for finiteness.
        eta: learning rate.
        tau: clip threshold, > 0.
        out: weights of params' shapes to write the result into.

    Returns:
        New RnnParams over `out`'s matrices, or over column-major views into
        one fresh flat vector, as `unflatten_params` returns them.
    """
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    scratch = None if out is None else grad
    if grad_norm > tau:
        theta = _rescale(grad, tau, grad_norm, out=scratch)
        theta *= eta
    else:
        theta = np.multiply(grad, eta, out=scratch)
    dests = (None,) * 3 if out is None else (out.w_a, out.w_b, out.w_c)
    blocks = []
    start = 0
    for w, dest in zip((params.w_a, params.w_b, params.w_c), dests):
        stop = start + w.size
        block = theta[start:stop].reshape(w.shape, order="F")
        blocks.append(np.subtract(w, block, out=block if dest is None else dest))
        start = stop
    return RnnParams(*blocks)


def flatten_params(params: RnnParams) -> np.ndarray:
    """Unroll [W_a | W_b | W_c] into one vector, each matrix column-major."""
    return np.concatenate(
        [
            params.w_a.ravel(order="F"),
            params.w_b.ravel(order="F"),
            params.w_c.ravel(order="F"),
        ]
    )


def unflatten_params(theta: np.ndarray, dims: RnnDims) -> RnnParams:
    """Inverse of `flatten_params`. The matrices are views into `theta`."""
    if theta.shape != (dims.n_params,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({dims.n_params},)"
        )
    a_end = dims.n_wa
    b_end = a_end + dims.n_wb
    w_a = theta[:a_end].reshape((dims.q, dims.q), order="F")
    w_b = theta[a_end:b_end].reshape((dims.q, dims.m + 1), order="F")
    w_c = theta[b_end:].reshape((dims.p, dims.q), order="F")
    return RnnParams(w_a=w_a, w_b=w_b, w_c=w_c)

