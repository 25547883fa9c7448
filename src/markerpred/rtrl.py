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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    _finite_norm,
    forward,
    loss,
    sgd_update,
    tanh_prime,
)
from markerpred.uoro import grad_x_loss

__all__ = [
    "RtrlStepResult",
    "init_influence",
    "jac_state_x",
    "jac_state_theta",
    "rtrl_step",
]


@dataclass(frozen=True)
class RtrlStepResult:
    params: RnnParams
    x: np.ndarray
    influence: np.ndarray
    y: np.ndarray
    loss: float


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
    tanh'(z_i) u_j; W_c does not enter the state map. The blocks are filled
    by strided assignment rather than per-entry loops.

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
    d = tanh_prime(z)
    out = np.zeros((dims.q, dims.n_params))
    idx = np.arange(dims.q)
    # Column-major layout: the column of W_a[i, j] is j*q + i, so a
    # (q, n_cols, q) view indexed [i, j, i] addresses exactly those entries.
    block_a = out[:, : dims.n_wa].reshape(dims.q, dims.q, dims.q)
    block_a[idx, :, idx] = d[:, None] * x[None, :]
    block_b = out[:, dims.n_wa : dims.n_wa + dims.n_wb].reshape(
        dims.q, dims.m + 1, dims.q
    )
    block_b[idx, :, idx] = d[:, None] * u[None, :]
    return out


def rtrl_step(
    params: RnnParams,
    x: np.ndarray,
    influence: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    eta: float,
    tau: float,
) -> RtrlStepResult:
    """One exact online training step.

    Runs the forward pass, advances the influence matrix by recursion (i),
    assembles the exact gradient (ii), clips it at tau, and applies SGD
    with rate eta. With eta = 0 the influence matrix still advances, so a
    frozen network can be differentiated exactly along its trajectory.

    Raises:
        NonFiniteError: names the first non-finite quantity (loss,
            influence, or gradient).
    """
    dims = params.dims
    if influence.shape != (dims.q, dims.n_params):
        raise ValueError(
            f"influence has shape {influence.shape}, "
            f"expected ({dims.q}, {dims.n_params})"
        )

    cache = forward(params, x, u)
    e, loss_value = loss(cache.y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")

    # Recursion (i): the d(state map)/dtheta term is block-diagonal, so it
    # is added in place through the [i, :, i] views that `jac_state_theta`
    # fills, instead of as a dense q x |W| matrix.
    new_influence = jac_state_x(params, cache.z) @ influence
    d = tanh_prime(cache.z)
    idx = np.arange(dims.q)
    block_a = new_influence[:, : dims.n_wa].reshape(dims.q, dims.q, dims.q)
    block_a[idx, :, idx] += d[:, None] * x[None, :]
    block_b = new_influence[:, dims.n_wa : dims.n_wa + dims.n_wb].reshape(
        dims.q, dims.m + 1, dims.q
    )
    block_b[idx, :, idx] += d[:, None] * u[None, :]
    if not np.isfinite(new_influence).all():
        raise NonFiniteError("influence")

    # delta_theta is non-zero only in the W_c block, so it is added into
    # that slice alone, as uoro_step does; the slice viewed as q x p is W_c
    # transposed. Adding the dense vector would turn a -0.0 in the W_a/W_b
    # blocks into +0.0; the two differ only for a weight that is exactly
    # -0.0.
    grad = grad_x_loss(e, params.w_c) @ new_influence
    grad_wc = grad[dims.n_wa + dims.n_wb :].reshape(dims.q, dims.p)
    grad_wc += np.multiply.outer(cache.x_next, -e)
    grad_norm = _finite_norm(grad, "gradient")

    new_params = sgd_update(params, grad, grad_norm, eta, tau)

    return RtrlStepResult(
        params=new_params,
        x=cache.x_next,
        influence=new_influence,
        y=cache.y,
        loss=loss_value,
    )
