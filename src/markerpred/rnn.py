"""Vanilla single-hidden-layer RNN shared by all online trainers.

The network keeps a hidden state x of size q, reads an input u of size m+1
(leading entry is a constant 1 for the bias) and emits a prediction y of
size p:

    z      = W_a x + W_b u
    x_next = tanh(z)
    y      = W_c x_next

Trainers treat the three weight matrices as one flat parameter vector
theta = [W_a | W_b | W_c], each matrix unrolled column by column
(column-major). Since W_a's columns come before W_b's, the first
q*(q+m+1) entries are the block W_ab = [W_a | W_b] unrolled the same way,
and the state map reads z = W_ab v for the stacked input v = [x; u]; the
trainers' closed forms are outer products with v.

This module is the one definition of the layout. `flatten_params` and
`unflatten_params` convert between the matrices and theta, and three
private view builders address the blocks in place: `_ab_rows` (W_ab
transposed), `_c_rows` (W_c transposed) and `_ab_diagonal` (the entries of
a q x |W| influence matrix that W_ab's row i adds to row i). The trainers
reach the flat layout only through these functions and the update
`sgd_update`, so that gradient indices never drift.
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
    def n_ab(self) -> int:
        """Length of the [W_a | W_b] block of the flat parameters."""
        return self.q * (self.q + self.m + 1)

    @property
    def n_params(self) -> int:
        return self.q * (self.p + self.q + self.m + 1)


@dataclass(frozen=True)
class RnnParams:
    """Weight matrices W_a (q x q), W_b (q x (m+1)), W_c (p x q).

    Treated as immutable: trainers never write into the arrays, they build
    new instances from an updated flat parameter vector. The one exception
    is a `Workspace`'s own weights, which a step given that workspace
    overwrites (see `Workspace`).
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


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialized vector of n doubles that starts on a 64-byte (cache
    line) boundary, where malloc guarantees only 16 bytes. A learner's
    weights and gradient take turns in the two slots, so a slot whose
    start is off a 32-byte boundary slows every other step: moving slot 1
    16 bytes off made a q = L = 90 UORO learner step about 3 % slower (a
    2-vCPU Xeon, OpenBLAS, one thread)."""
    raw = np.empty(n + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + n]


class Workspace:
    """The buffers a trainer step writes its gradient and new weights into,
    with the views of them every step uses, built once. There are two
    slots; slot k is a flat |W| buffer `grad[k]` that starts on a cache
    line (see `_aligned_empty`), with its column-major weight views
    `weights[k]` (`unflatten_params`) and its W_c block viewed as W_c
    transposed, `grad_wc[k]` (`_c_rows`), which the direct gradient is
    added into. `v` holds a step's stacked input [x; u].

    A step writes its gradient into the slot its weights are not in
    (`slot`), then `sgd_update` writes the new weights over that
    gradient's views. A learner that feeds each step's weights into the
    next therefore alternates between the two slots, and the weights a
    step returns stay intact until the step after next. Weights in
    neither slot, such as `init_params`' or those of a pure call's fresh
    workspace, use slot 0. The uoro and rtrl modules extend the workspace
    with the buffers of their own learner state."""

    def __init__(self, dims: RnnDims):
        self.dims = dims
        self.grad = (_aligned_empty(dims.n_params), _aligned_empty(dims.n_params))
        self.weights = tuple(unflatten_params(g, dims) for g in self.grad)
        self.grad_wc = tuple(_c_rows(g, dims) for g in self.grad)
        self.v = np.empty(dims.q + dims.m + 1)
        self._shapes = ((dims.q, dims.q), (dims.q, dims.m + 1), (dims.p, dims.q))
        self._io_shapes = ((dims.q,), (dims.m + 1,), (dims.p,))

    def slot(
        self, params: RnnParams, x: np.ndarray, u: np.ndarray, y_star: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        """The slot k a step from weights `params`, state x, input u and
        target y_star writes into, and the flat vector that `params` are
        the views of when they are this workspace's own, else None (the
        `theta` of `sgd_update`). This is the step's one shape check.

        The workspace's own weights, `weights[0]` or `weights[1]` (the
        objects a step returned), are told by identity alone and give
        (1, grad[0]) or (0, grad[1]). Any other weights are checked against
        the workspace's shapes and use slot 0, or slot 1 when their W_a is
        slot 0's. Then x, u and y_star are checked against the network's
        q, m+1 and p.

        Raises:
            ValueError: the buffers do not fit the network `params`, or x,
                u or y_star does not fit the network.
        """
        if params is self.weights[0]:
            k, theta = 1, self.grad[0]
        elif params is self.weights[1]:
            k, theta = 0, self.grad[1]
        elif (params.w_a.shape, params.w_b.shape, params.w_c.shape) != self._shapes:
            raise ValueError(
                f"workspace is for {self.dims}, network is {params.dims}"
            )
        else:
            k, theta = (1 if params.w_a is self.weights[0].w_a else 0), None
        if (x.shape, u.shape, y_star.shape) != self._io_shapes:
            raise ValueError(
                f"x, u and y_star have shapes {x.shape}, {u.shape} and "
                f"{y_star.shape}, expected {self._io_shapes}"
            )
        return k, theta


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
    below_tau = math.nextafter(tau, 0.0)
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
    out: RnnParams,
    theta: np.ndarray | None = None,
) -> RnnParams:
    """One clipped SGD step on the weights, W - eta * clip(grad, tau),
    written over the gradient.

    `grad` is scaled in place to eta * clip(grad, tau), then the weights
    minus that are written into `out`, the column-major matrix views of
    `grad` (`unflatten_params(grad, dims)`, which a `Workspace` keeps);
    each entry depends only on the same entries of both, so the
    subtraction can overwrite its operand. When `params` are the views of
    a flat vector `theta` in the same layout (the other slot of a
    `Workspace`, which `Workspace.slot` returns), that is one subtraction
    theta - grad over the whole vector; otherwise, as for `init_params`'
    C-order matrices, it is one subtraction per weight matrix, which
    gives the same values (the single subtraction made the uoro-protocol
    benchmark's `wall_s` about 5 % shorter on a 2-vCPU Xeon, OpenBLAS, one
    thread). So `out` holds the new weights, `grad` no longer holds the
    gradient, and `params` is not written to. The values are those of
    `unflatten_params(flatten_params(params) - eta * clip_gradient(grad, tau), dims)`,
    without the flat copy of `params`.

    Args:
        params: current weights.
        grad: flat gradient of length |W| in the [W_a | W_b | W_c] layout.
        grad_norm: its Euclidean norm, sqrt(grad . grad), which the caller
            has already computed to check the gradient for finiteness.
        eta: learning rate, >= 0.
        tau: clip threshold, > 0.
        out: the column-major matrix views of `grad`.
        theta: the flat vector whose views `params` are
            (`params` is `unflatten_params(theta, dims)`), or None.

    Returns:
        `out`.

    Raises:
        ValueError: eta < 0 or tau <= 0.
    """
    if not (eta >= 0 and tau > 0):
        raise ValueError(f"need eta >= 0 and tau > 0, got eta={eta}, tau={tau}")
    if grad_norm > tau:
        _rescale(grad, tau, grad_norm, out=grad)
    grad *= eta
    if theta is not None:
        np.subtract(theta, grad, out=grad)
    else:
        np.subtract(params.w_a, out.w_a, out=out.w_a)
        np.subtract(params.w_b, out.w_b, out=out.w_b)
        np.subtract(params.w_c, out.w_c, out=out.w_c)
    return out


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
    """Inverse of `flatten_params`. The matrices are column-major views into
    `theta`."""
    if theta.shape != (dims.n_params,):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({dims.n_params},)"
        )
    w_ab = theta[: dims.n_ab].reshape((dims.q, dims.q + dims.m + 1), order="F")
    w_c = theta[dims.n_ab :].reshape((dims.p, dims.q), order="F")
    return RnnParams(w_a=w_ab[:, : dims.q], w_b=w_ab[:, dims.q :], w_c=w_c)


def _ab_rows(theta: np.ndarray, dims: RnnDims) -> np.ndarray:
    """The [W_a | W_b] block of a flat vector in the [W_a | W_b | W_c]
    layout (or of one that holds that block alone) as a C-order
    (q+m+1) x q view: row r is column r of [W_a | W_b], so the block is
    the transpose of the view."""
    return theta[: dims.n_ab].reshape(dims.q + dims.m + 1, dims.q)


def _c_rows(theta: np.ndarray, dims: RnnDims) -> np.ndarray:
    """The W_c block of a flat |W| vector as a C-order q x p view, W_c
    transposed."""
    return theta[dims.n_ab :].reshape(dims.q, dims.p)


def _ab_diagonal(matrix: np.ndarray, dims: RnnDims) -> np.ndarray:
    """A writable q x (q+m+1) view of a C-contiguous q x |W| matrix whose
    entry [i, r] is the matrix's entry in row i and the column of
    [W_a | W_b][i, r]: the only entries in which a state map's parameter
    Jacobian (unit i depends on row i of [W_a | W_b] alone) is non-zero."""
    row, col = matrix.strides
    return np.ndarray((dims.q, dims.q + dims.m + 1), buffer=matrix,
                      strides=(row + col, dims.q * col))
