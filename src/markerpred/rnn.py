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
reach the flat layout only through these functions and a `Workspace`'s
views, so that gradient indices never drift. A trainer step keeps its
weights in one such flat buffer, a `Workspace`'s `theta`, and every
trained step (UORO, RTRL and LMS) clips by one rule, `_clipped_rate`; the
RNN steps then write their update with the one subtraction
`Workspace.apply_update`. `clip_gradient`, which clips a formed gradient,
is the tests' oracle.
"""

from __future__ import annotations

import math
import sys
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
    "flatten_params",
    "unflatten_params",
]


# A bound on a vector's norm that errs by less than a factor of 2 and is at
# most this proves every entry of the vector finite without a scan.
_FINITE_BOUND = 0.5 * sys.float_info.max
# Unit roundoff of a double: a rounded product, quotient or square root is
# within this relative distance of the exact one.
_UNIT_ROUNDOFF = 2.0 ** -53


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
    weights and gradient each live in one such buffer for a whole run, and
    a buffer whose start is off a 32-byte boundary slows the steps that use
    it: with the weights 16 bytes off in every other step, a q = L = 90
    UORO learner step was about 3 % slower on average (a 2-vCPU Xeon,
    OpenBLAS, one thread)."""
    raw = np.empty(n + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + n]


class Workspace:
    """The buffers a trainer step writes its gradient and new weights into,
    with the views of them every step uses, built once: the flat weights
    `theta`, with their column-major matrix views `weights`
    (`unflatten_params`), and the flat gradient `grad`, with its W_c block
    viewed as W_c transposed, `grad_wc` (`_c_rows`), which the direct
    gradient is added into. Both start on a cache line (see
    `_aligned_empty`). `v` holds a step's stacked input [x; u].

    A step reads its input weights first (the forward pass and the
    gradient), writes its update into `grad`, and then `apply_update`
    writes the new weights over `theta` in place, so a learner that feeds
    each step's weights into the next keeps them in the one buffer for the
    whole run, and the weights a step returns stay valid until the next
    step. The uoro and rtrl modules extend the workspace with the buffers
    of their own learner state."""

    def __init__(self, dims: RnnDims):
        self.dims = dims
        self.theta = _aligned_empty(dims.n_params)
        self.weights = unflatten_params(self.theta, dims)
        self.grad = _aligned_empty(dims.n_params)
        self.grad_wc = _c_rows(self.grad, dims)
        self.v = np.empty(dims.q + dims.m + 1)
        self._shapes = ((dims.q, dims.q), (dims.q, dims.m + 1), (dims.p, dims.q))
        self._io_shapes = ((dims.q,), (dims.m + 1,), (dims.p,))

    def check(
        self, params: RnnParams, x: np.ndarray, u: np.ndarray, y_star: np.ndarray
    ) -> None:
        """The step's one shape check, for a step from weights `params`,
        state x, input u and target y_star. The workspace's own `weights`
        are told by identity alone; any other weights are checked against
        the workspace's shapes. Then x, u and y_star are checked against
        the network's q, m+1 and p.

        Raises:
            ValueError: the buffers do not fit the network `params`, or x,
                u or y_star does not fit the network.
        """
        if (params is not self.weights and
                (params.w_a.shape, params.w_b.shape, params.w_c.shape)
                != self._shapes):
            raise ValueError(
                f"workspace is for {self.dims}, network is {params.dims}"
            )
        if (x.shape, u.shape, y_star.shape) != self._io_shapes:
            raise ValueError(
                f"x, u and y_star have shapes {x.shape}, {u.shape} and "
                f"{y_star.shape}, expected {self._io_shapes}"
            )

    def apply_update(self, params: RnnParams) -> RnnParams:
        """SGD's write: `theta` = params - `grad`, in place, and return
        `weights`. Weights that are not `weights`, such as `init_params`'
        C-order matrices or a pure call's inputs, are first copied into
        `theta` and not written to. Each entry of the subtraction depends
        only on the same entries of both operands, so it overwrites its
        operand."""
        weights = self.weights
        if params is not weights:
            weights.w_a[...] = params.w_a
            weights.w_b[...] = params.w_b
            weights.w_c[...] = params.w_c
        np.subtract(self.theta, self.grad, out=self.theta)
        return weights


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


# Passes of `clip_gradient`'s overshoot guard that may leave the norm
# unchanged before the guard shrinks geometrically.
_MAX_STALLS = 16


def clip_gradient(g: np.ndarray, tau: float) -> np.ndarray:
    """Rescale g to Euclidean norm tau when ||g|| > tau, as a new array, else
    return g as is (same array, no copy). The clipped norm never exceeds
    tau, even under floating-point rounding of the rescaling."""
    if not tau > 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    norm = _norm(g)
    if not norm > tau:
        return g
    clipped = g * (tau / norm)
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


def _clipped_rate(eta: float, tau: float, grad_norm: float,
                  n_terms: int) -> float:
    """eta * s, the clip rule of every trained step (`baselines.lms_step`,
    `uoro.uoro_step`, `rtrl.rtrl_step`): s = tau' / grad_norm when
    grad_norm > tau' and 1 otherwise, with tau' = tau (1 - (n_terms + 32)
    2^-53). grad_norm is the gradient's norm, from closed forms or from the
    formed vector, and n_terms the number of terms in its dot products.
    tau is shrunk by a bound on the relative rounding of that norm, of s
    and of the update's entries, so the update the caller forms has exact
    norm at most eta * tau (each caller states the range where the
    rounding is relative)."""
    tau_shrunk = tau * (1.0 - (n_terms + 32) * _UNIT_ROUNDOFF)
    return eta * (tau_shrunk / grad_norm) if grad_norm > tau_shrunk else eta


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v's entries: the value `np.linalg.norm(v)` gives
    for real v (the same dot over the same order), without its overhead."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


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
