"""Real-time recurrent learning (RTRL) for the vanilla RNN.

RTRL (Williams & Zipser 1989) differentiates the hidden state against
every weight exactly, maintaining the dense q x |W| influence matrix

    J_n = d x_n / d theta

through the recursion

    J_{n+1} = d(state map)/dx . J_n + d(state map)/dtheta          (i)

and computes the exact instantaneous loss gradient

    dL/dtheta = grad_x_loss . J_{n+1} + delta_theta                (ii)

with grad_x_loss and delta_theta as defined in the UORO module (the step
adds delta_theta into its W_c block in place; the function stays as the
reference). The per-step cost is O(q^3 (q + L)), which confines RTRL to
small networks; it doubles here as the exactness oracle for UORO's
rank-one estimator.

Unit i of the state map depends on row i of [W_a | W_b] alone, so the
d(state map)/dtheta term of (i) is non-zero only in row i's entries for
that row's weights; with d = tanh'(z) and the stacked input v = [x; u],
they are the q x (q+m+1) matrix d v^T, which the view
`rnn._ab_diagonal` places in the flat layout.

A step runs on an `RtrlWorkspace`, the per-run plan of the step: the two
slots of `Workspace`, each with an influence buffer and its
`_ab_diagonal` view, which recursion (i) adds d v^T into. The step writes
the new influence, the gradient and then the new weights into the slot the
current weights are not in, as `uoro_step` does, and like it calls
`rnn.forward` but runs the loss and `grad_x_loss` inline and updates the
weights with one subtraction over the flat slot once they are the
workspace's own. A learner allocates one workspace per run; called without
one, `rtrl_step` builds a fresh one, so it writes to none of its inputs,
and the two calls run one body. As in UORO, the first step must be given `init_params`' C-order matrices
themselves, since a matrix-vector product over a column-major matrix
rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    Workspace,
    _ab_diagonal,
    forward,
    sgd_update,
    tanh_prime,
)

__all__ = [
    "RtrlStepResult",
    "RtrlWorkspace",
    "init_influence",
    "jac_state_x",
    "jac_state_theta",
    "rtrl_step",
]


@dataclass(frozen=True, slots=True)
class RtrlStepResult:
    params: RnnParams
    x: np.ndarray
    influence: np.ndarray
    y: np.ndarray
    loss: float


class RtrlWorkspace(Workspace):
    """An RTRL step's buffers (see `Workspace`): per slot, besides the
    gradient and weights, a q x |W| influence matrix `influence[k]` and
    its q x (q+m+1) view `diagonals[k]` (`_ab_diagonal`), the entries that
    recursion (i) adds the state map's parameter Jacobian into."""

    def __init__(self, dims: RnnDims):
        self.influence = tuple(np.empty((dims.q, dims.n_params)) for _ in range(2))
        super().__init__(dims)
        self.diagonals = tuple(_ab_diagonal(m, dims) for m in self.influence)


def init_influence(dims: RnnDims) -> np.ndarray:
    """Zero q x |W| influence matrix, columns in the shared flat layout."""
    return np.zeros((dims.q, dims.n_params))


def jac_state_x(params: RnnParams, z: np.ndarray) -> np.ndarray:
    """Jacobian of the state map in the previous state: diag(tanh'(z)) W_a."""
    if z.shape != (params.w_a.shape[0],):
        raise ValueError(f"z has shape {z.shape}, W_a is {params.w_a.shape}")
    return tanh_prime(z)[:, None] * params.w_a


def jac_state_theta(
    x: np.ndarray, u: np.ndarray, z: np.ndarray, dims: RnnDims
) -> np.ndarray:
    """Jacobian of the state map in the flat parameters.

    Entry (r, c) is d x_next[r] / d theta[c]. A weight W_a[i, j] only feeds
    unit i, contributing tanh'(z_i) x_j; likewise W_b[i, j] contributes
    tanh'(z_i) u_j; W_c does not enter the state map. So the non-zero
    entries are tanh'(z) v^T for v = [x; u], written through the
    `_ab_diagonal` view rather than by per-entry loops.

    Args:
        x: incoming hidden state, length q.
        u: input vector, length m+1.
        z: pre-activation, length q.
        dims: network sizes.

    Returns:
        Dense q x |W| matrix.
    """
    if x.shape != (dims.q,) or z.shape != (dims.q,):
        raise ValueError(f"x/z must have length {dims.q}")
    if u.shape != (dims.m + 1,):
        raise ValueError(f"u has shape {u.shape}, expected ({dims.m + 1},)")
    out = np.zeros((dims.q, dims.n_params))
    _ab_diagonal(out, dims)[...] = np.multiply.outer(
        tanh_prime(z), np.concatenate((x, u))
    )
    return out


def rtrl_step(
    params: RnnParams,
    x: np.ndarray,
    influence: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    eta: float,
    tau: float,
    workspace: RtrlWorkspace | None = None,
) -> RtrlStepResult:
    """One exact online training step.

    Runs the forward pass, advances the influence matrix by recursion (i),
    assembles the exact gradient (ii), clips it at tau, and applies SGD
    with rate eta. With eta = 0 the influence matrix still advances, so a
    frozen network can be differentiated exactly along its trajectory.

    With `workspace`, the new weights, influence and gradient are written
    into its buffers, and `params` and `influence` may be the ones it
    returned last step (see the module docstring). Without it, the step
    builds a fresh one, so they are fresh arrays and no input is written
    to. The prediction and the hidden state are fresh arrays either way.

    Raises:
        ValueError: eta < 0 or tau <= 0 (from `sgd_update`), or the
            workspace, influence, x, u or y_star does not fit the network.
        NonFiniteError: names the first non-finite quantity (loss,
            influence, or gradient).
    """
    if workspace is None:
        # Fresh buffers: the step writes to none of its inputs.
        workspace = RtrlWorkspace(params.dims)
    k, theta = workspace.slot(params, x, u, y_star)
    dims = workspace.dims
    if influence.shape != (dims.q, dims.n_params):
        raise ValueError(
            f"influence has shape {influence.shape}, "
            f"expected ({dims.q}, {dims.n_params})"
        )
    w_a, w_c = params.w_a, params.w_c
    new_influence, diagonal = workspace.influence[k], workspace.diagonals[k]

    # Forward pass, then `loss`.
    cache = forward(params, x, u)
    x_next, y = cache.x_next, cache.y
    e = y_star - y
    loss_value = 0.5 * float(e.dot(e))
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")

    # Recursion (i), with d = tanh'(z) = 1 - x_next^2 taken once from the
    # tanh the forward pass took: d(state map)/dx is `jac_state_x`, and the
    # d(state map)/dtheta term d v^T is added in place through the view of
    # the entries `jac_state_theta` fills, instead of as a dense q x |W|
    # matrix.
    d = 1.0 - x_next * x_next
    np.matmul(d[:, None] * w_a, influence, out=new_influence)
    diagonal += np.multiply.outer(d, np.concatenate((x, u), out=workspace.v))

    # The row vector is `grad_x_loss`. delta_theta is non-zero only in the
    # W_c block, so it is added into that block alone (`grad_wc`, W_c
    # transposed) by subtracting x_next e^T, as uoro_step does. Adding the
    # dense vector would turn a -0.0 in the W_a/W_b blocks into +0.0; the
    # two differ only for a weight that is exactly -0.0.
    grad = np.matmul(-(e @ w_c), new_influence, out=workspace.grad[k])
    grad_wc = workspace.grad_wc[k]
    grad_wc -= np.multiply.outer(x_next, e)

    # A non-finite influence entry makes its column of the gradient
    # non-finite, even under a zero multiplier (0 * inf is NaN), so a finite
    # gradient norm proves the influence finite; only a non-finite norm,
    # which the squares' overflow alone can cause, calls for the scans.
    grad_norm = math.sqrt(grad.dot(grad))
    if not math.isfinite(grad_norm):
        if not np.isfinite(new_influence).all():
            raise NonFiniteError("influence")
        if not np.isfinite(grad).all():
            raise NonFiniteError("gradient")

    new_params = sgd_update(params, grad, grad_norm, eta, tau,
                            workspace.weights[k], theta)

    return RtrlStepResult(new_params, x_next, new_influence, y, loss_value)
