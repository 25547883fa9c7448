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

A step is split in two: the forward pass, and the update kernel
`rtrl_update`, which takes the forward pass's x_next and y, runs (i), (ii)
and clipped SGD in place in an `RtrlWorkspace`, and returns the loss.
`rtrl_step` is the pure step: it checks its inputs, calls `rnn.forward`
and the kernel, and returns an `RtrlStepResult`. `learner`, the online
learner the harness trains with, checks its shapes once, runs the
forward pass inline, as the same products, add and tanh over the same
operands, and calls the kernel, so its chain is the pure chain bit for
bit.

The workspace is the per-run plan of the step: the weight and gradient
buffers of `Workspace`, and two influence buffers, each with its
`_ab_diagonal` view, which recursion (i) adds d v^T into. The kernel
forms d v^T as one BLAS product of a column and a row in the gradient
buffer, before (ii) writes the gradient there, and forms the x_next e^T
it subtracts from the W_c block of (ii) the same way: each entry is the
one rounded product of numpy's outer product, but an exact zero is +0,
never -0, which changes no sum the step forms. The new influence goes
into the buffer the input influence is not in (`RtrlWorkspace.next_slot`),
since a matrix product cannot write over its operand, so a learner's
influence alternates between the two. The kernel reads the input weights
(recursion (i) and the gradient (ii)), then clips as every trained step
does (`rnn._clipped_rate`): it scales the gradient buffer into the update
once and writes it with `Workspace.apply_update`, as `uoro_update` does.
It runs the loss and `grad_x_loss` inline. A learner allocates one
workspace per run and starts from a zeroed influence buffer of it; called
without one, `rtrl_step` builds a fresh one, so it writes to none of its
inputs, and the two calls run one kernel. As in UORO, the first step must
be given `init_params`' C-order matrices themselves, since a
matrix-vector product over a column-major matrix rounds differently.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    Workspace,
    _ab_diagonal,
    _clipped_rate,
    forward,
    tanh_prime,
)

__all__ = [
    "RtrlStepResult",
    "RtrlWorkspace",
    "init_influence",
    "jac_state_x",
    "jac_state_theta",
    "rtrl_step",
    "rtrl_update",
    "learner",
]


@dataclass(frozen=True, slots=True)
class RtrlStepResult:
    params: RnnParams
    x: np.ndarray
    influence: np.ndarray
    y: np.ndarray
    loss: float


class RtrlWorkspace(Workspace):
    """An RTRL step's buffers (see `Workspace`): besides the weights and
    the gradient, two q x |W| influence matrices `influence[k]`, with
    their q x (q+m+1) views `diagonals[k]` (`_ab_diagonal`), the entries
    that recursion (i) adds the state map's parameter Jacobian into. A
    step writes into influence[1] when its input influence is influence[0],
    else into influence[0]. `grad_dv` is a C-order q x (q+m+1) view of the
    gradient buffer's head, where a step forms that Jacobian d v^T before
    the gradient is written."""

    def __init__(self, dims: RnnDims):
        self.influence = tuple(np.empty((dims.q, dims.n_params)) for _ in range(2))
        super().__init__(dims)
        self.diagonals = tuple(_ab_diagonal(m, dims) for m in self.influence)
        self.grad_dv = self.grad[: dims.n_ab].reshape(self.diagonals[0].shape)

    def next_slot(self, influence: np.ndarray) -> int:
        """k such that a step from `influence` writes its new influence
        into influence[k]: 1 when `influence` is influence[0], else 0."""
        return 1 if influence is self.influence[0] else 0


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
    assembles the exact gradient (ii) and applies clipped SGD with rate
    eta. With eta = 0 the influence matrix still advances, so a frozen
    network can be differentiated exactly along its trajectory.

    Clip rule: the update is (eta s) g, with s = tau' / ||g|| when
    ||g|| > tau' and 1 otherwise, tau' = tau (1 - (|W| + 32) 2^-53)
    (`rnn._clipped_rate`, the rule of `uoro_step` and
    `baselines.lms_step`), and ||g|| = sqrt(g . g) taken as a Python
    float. The update formed in doubles has exact norm at most eta * tau
    whenever ||g|| is 0 or at least 2^-480 and tau, eta * tau and eta * s
    lie in [2^-1000, 2^1000]. An unclipped step's update is eta g. When
    the step clips, its s is smaller than the factor of
    `rnn.clip_gradient` on g by about (|W| + 32) 2^-53, relatively.

    With `workspace`, the new weights, influence and gradient are written
    into its buffers, and `params` and `influence` may be the ones it
    returned last step (see the module docstring). Without it, the step
    builds a fresh one, so they are fresh arrays and no input is written
    to. The prediction and the hidden state are fresh arrays either way.

    Raises:
        ValueError: eta < 0 or tau <= 0 (checked first), or the
            workspace, influence, x, u or y_star does not fit the network.
        NonFiniteError: names the first non-finite quantity (loss,
            influence, or gradient). "gradient" also covers a gradient
            whose entries are finite but whose squared norm overflows.
    """
    if not (eta >= 0 and tau > 0):
        raise ValueError(f"need eta >= 0 and tau > 0, got eta={eta}, tau={tau}")
    if workspace is None:
        # Fresh buffers: the step writes to none of its inputs.
        workspace = RtrlWorkspace(params.dims)
    workspace.check(params, x, u, y_star)
    dims = workspace.dims
    if influence.shape != (dims.q, dims.n_params):
        raise ValueError(
            f"influence has shape {influence.shape}, "
            f"expected ({dims.q}, {dims.n_params})"
        )
    cache = forward(params, x, u)
    loss_value = rtrl_update(workspace, params, x, influence, u, y_star,
                             cache.x_next, cache.y, eta, tau)
    return RtrlStepResult(workspace.weights, cache.x_next,
                          workspace.influence[workspace.next_slot(influence)],
                          cache.y, loss_value)


def rtrl_update(
    workspace: RtrlWorkspace,
    params: RnnParams,
    x: np.ndarray,
    influence: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    x_next: np.ndarray,
    y: np.ndarray,
    eta: float,
    tau: float,
) -> float:
    """The update kernel of an RTRL step, after the forward pass from
    weights `params` and state x on input u gave x_next and y: the loss,
    recursion (i), the gradient (ii) and clipped SGD. Writes the new
    influence into workspace.influence[k], k = `workspace.next_slot`
    (influence), and the new weights into `workspace.weights`, and returns
    the loss.

    The caller checks eta, tau and the shapes: `rtrl_step` on every call,
    a learner once. The clip rule is `rtrl_step`'s.

    Raises:
        NonFiniteError: as `rtrl_step`.
    """
    e = y_star - y
    loss_value = 0.5 * float(e.dot(e))
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")

    # Recursion (i), with d = tanh'(z) = 1 - x_next^2 taken once from the
    # tanh the forward pass took: d(state map)/dx is `jac_state_x`, and the
    # d(state map)/dtheta term d v^T is added in place through the view of
    # the entries `jac_state_theta` fills, instead of as a dense q x |W|
    # matrix. d v^T is a BLAS product formed in the gradient buffer, which
    # (ii) overwrites next.
    k = workspace.next_slot(influence)
    new_influence, diagonal = workspace.influence[k], workspace.diagonals[k]
    d = 1.0 - x_next * x_next
    np.matmul(d[:, None] * params.w_a, influence, out=new_influence)
    v = np.concatenate((x, u), out=workspace.v)
    np.dot(d[:, None], v[None, :], out=workspace.grad_dv)
    diagonal += workspace.grad_dv

    # The row vector is `grad_x_loss`. delta_theta is non-zero only in the
    # W_c block, so it is added into that block alone (`grad_wc`, W_c
    # transposed) by subtracting x_next e^T, a BLAS product as in
    # uoro_update. Adding the dense vector would turn a -0.0 in the W_a/W_b
    # blocks into +0.0; the two differ only for a weight that is exactly
    # -0.0.
    grad = np.matmul(-(e @ params.w_c), new_influence, out=workspace.grad)
    grad_wc = workspace.grad_wc
    grad_wc -= np.dot(x_next[:, None], e[None, :])

    # A non-finite influence entry makes its column of the gradient
    # non-finite, even under a zero multiplier (0 * inf is NaN), so a finite
    # gradient norm proves the influence finite; only a non-finite norm
    # calls for the influence scan. A gradient whose squares overflow on
    # finite entries has no norm to clip by (tau / inf would scale it to a
    # zero update), so it raises as a non-finite one does, as in UORO.
    grad_norm = math.sqrt(grad.dot(grad))
    if not math.isfinite(grad_norm):
        if not np.isfinite(new_influence).all():
            raise NonFiniteError("influence")
        raise NonFiniteError("gradient")

    # Clipped SGD, by the clip rule (see `rtrl_step`).
    grad *= _clipped_rate(eta, tau, grad_norm, workspace.dims.n_params)
    workspace.apply_update(params)
    return loss_value


def learner(
    dims: RnnDims, params: RnnParams, eta: float, tau: float,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float]]:
    """An RTRL learner from the weights `params` (`init_params`' C-order
    matrices), with rate eta and clip threshold tau: the learner of an
    `RtrlWorkspace` (`Workspace.learner`) over `rtrl_update`, the pure
    `rtrl_step` chain bit for bit; its influence starts from a zeroed
    buffer of the workspace and alternates between its two."""
    workspace = RtrlWorkspace(dims)
    influence = workspace.influence[1]
    influence.fill(0.0)

    def update(params, x, u, y_star, wb_u, x_next, y):
        nonlocal influence
        loss_value = rtrl_update(workspace, params, x, influence, u, y_star,
                                 x_next, y, eta, tau)
        influence = workspace.influence[workspace.next_slot(influence)]
        return loss_value

    return workspace.learner(params, update)
