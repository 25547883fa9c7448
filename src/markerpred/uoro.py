"""Unbiased online recurrent optimization (UORO) for the vanilla RNN.

UORO (Tallec & Ollivier 2017, "Unbiased Online Recurrent Optimization")
keeps a rank-one stand-in for the q x |W| influence matrix d(state)/d(theta):
a column vector x_tilde (length q) and a row vector theta_tilde (length |W|)
whose outer product is an unbiased estimate of the true influence matrix.
Each step costs O(q(q+m)) instead of RTRL's O(q^3(q+L)) at the price of
gradient noise.

One training step runs, in this fixed order:

    1. forward pass            z = W_a x + W_b u, x_next = tanh(z),
                               y = W_c x_next
    2. error and loss          e = y* - y, L = 0.5 ||e||^2
    3. direct gradient         dtheta = dL/dtheta holding the state path
                               fixed (only the W_c block is non-zero)
    4. gradient estimate       dtheta_est = (grad_x_loss . x_tilde)
                               * theta_tilde + dtheta, using the memory
                               from BEFORE this step
    5. sign draw               nu ~ uniform on {-1, +1}^q
    6. tangent propagation     x_fwd = (tanh(W_a(x + eps*x_tilde) + W_b u)
                               - x_next) / eps
    7. backward sign gradient  dtheta_g = nu-weighted Jacobian row of the
                               state map in theta
    8. normalizers             rho0 = sqrt(||theta_tilde|| / (||x_fwd||
                               + eps)) + eps, rho1 likewise for
                               dtheta_g / nu
    9. memory update           x_tilde' = rho0*x_fwd + rho1*nu,
                               theta_tilde' = theta_tilde/rho0
                               + dtheta_g/rho1
   10. clipped SGD             theta' = theta - eta * clip(dtheta_est, tau)

Step 4 deliberately uses the pre-update memory; moving it after step 9
changes the estimator. The normalizers in step 8 are implemented exactly
as stated, including the additive guards inside and outside the square
roots.

The closed forms `delta_theta`, `delta_theta_g` and `tangent_propagate`
are the tested reference: the tests check them against finite differences
and brute-force Jacobians, and compose them into a step that `uoro_step`
must match bit for bit. `uoro_step` runs the same arithmetic in the same
order but does not call them, so that it makes fewer passes over the
|W|-length vectors: it adds the direct gradient into the W_c block alone,
writes the blocks of dtheta_g in place, shares W_b u between stages 1 and
6, computes each norm once, and checks the gradient and the new
theta_tilde for finiteness through norms it already has, scanning an array
only when such a norm is not finite.

The guard eps of step 8 and the finite-difference step eps of step 6 are
the module constants EPS_NORM and EPS_PROP, which `uoro_step` reads on
every call.

Called alone, `uoro_step` is pure: it writes to none of its inputs and
returns the new weights and theta_tilde in fresh |W|-length arrays. A
learner instead passes a `UoroWorkspace`, which it allocates once per run,
on every step. The step then writes the gradient, dtheta_g, theta_tilde
and the new weights into the workspace's buffers, in the same arithmetic
order, so the results are bit-identical; the caller feeds the returned
params and memory, which live in the workspace, back into the next step.
The new weights are column-major views of one flat buffer, the layout the
pure step also returns. The first step must be given `init_params`'
C-order matrices themselves, not a column-major copy: a matrix-vector
product over a column-major matrix rounds differently, so only the
original layout reproduces the pure chain bit for bit. Its update is
subtracted into the workspace's views.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    Workspace,
    _finite_norm,
    forward,
    loss,
    sgd_update,
    tanh_prime,
)

__all__ = [
    "EPS_NORM",
    "EPS_PROP",
    "UoroMemory",
    "UoroHyper",
    "UoroStepResult",
    "UoroWorkspace",
    "init_memory",
    "grad_x_loss",
    "delta_theta",
    "delta_theta_g",
    "tangent_propagate",
    "uoro_step",
]

# Guard added inside and outside the normalizer square roots.
EPS_NORM = 1e-7
# Step size of the finite-difference tangent propagation.
EPS_PROP = 1e-7
# Up to rounding, far less than a factor of 2, no element of the new
# theta_tilde exceeds ||theta_tilde|| / rho0 + ||dtheta_g|| / rho1. A bound
# at most half the largest double therefore proves it finite unscanned.
_FINITE_BOUND = 0.5 * sys.float_info.max


@dataclass(frozen=True)
class UoroMemory:
    """Rank-one influence estimate: E[outer(x_tilde, theta_tilde)] tracks
    d x_n / d theta. Both vectors start at zero."""

    x_tilde: np.ndarray
    theta_tilde: np.ndarray


@dataclass(frozen=True)
class UoroHyper:
    """UORO hyperparameters: learning rate eta, clip threshold tau,
    initialization std-dev sigma_init, signal-history length L, hidden
    size q."""

    eta: float
    tau: float
    sigma_init: float
    L: int
    q: int

    def __post_init__(self):
        if not (
            self.eta > 0
            and self.tau > 0
            and self.sigma_init > 0
            and self.L > 0
            and self.q > 0
        ):
            raise ValueError(f"all hyperparameters must be positive, got {self}")


@dataclass(frozen=True)
class UoroStepResult:
    params: RnnParams
    x: np.ndarray
    memory: UoroMemory
    y: np.ndarray
    loss: float


class UoroWorkspace(Workspace):
    """A UORO learner's buffers (see `Workspace`): the weights, the gradient,
    theta_tilde and dtheta_g, each of length |W|."""

    def __init__(self, dims: RnnDims):
        super().__init__(dims)
        self.theta_tilde = np.empty(dims.n_params)
        self.dtheta_g = np.empty(dims.n_params)


def init_memory(dims: RnnDims) -> UoroMemory:
    return UoroMemory(
        x_tilde=np.zeros(dims.q), theta_tilde=np.zeros(dims.n_params)
    )


def grad_x_loss(e: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """Gradient of the loss in the new hidden state.

    With L = 0.5 ||y* - W_c x_next||^2, dL/dx_next = -e^T W_c.

    Args:
        e: error vector y* - y, length p.
        w_c: output matrix, p x q.

    Returns:
        Row vector of length q.
    """
    if e.shape != (w_c.shape[0],):
        raise ValueError(f"error has shape {e.shape}, W_c is {w_c.shape}")
    return -(e @ w_c)


def delta_theta(e: np.ndarray, x_next: np.ndarray, dims: RnnDims) -> np.ndarray:
    """Direct parameter gradient of the instantaneous loss.

    Holding the state path fixed, only W_c touches the loss:
    dL/dW_c = -e x_next^T. The W_a and W_b blocks are zero.

    Args:
        e: error vector, length p.
        x_next: new hidden state, length q.
        dims: network sizes.

    Returns:
        Flat row vector of length |W| in the shared [W_a | W_b | W_c]
        column-major layout.
    """
    if e.shape != (dims.p,) or x_next.shape != (dims.q,):
        raise ValueError(
            f"expected e of length {dims.p} and x_next of length {dims.q}, "
            f"got {e.shape} and {x_next.shape}"
        )
    out = np.zeros(dims.n_params)
    out[dims.n_wa + dims.n_wb :] = np.outer(-e, x_next).ravel(order="F")
    return out


def delta_theta_g(
    nu: np.ndarray,
    z: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    dims: RnnDims,
) -> np.ndarray:
    """Sign-weighted row of the state map's parameter Jacobian.

    With a = nu * tanh'(z) (elementwise), the W_a block is the column-major
    flatten of a x^T, the W_b block that of a u^T, and the W_c block is
    zero. Equivalently this is nu^T d(tanh(W_a x + W_b u))/d theta.

    Args:
        nu: sign vector in {-1, +1}^q.
        z: pre-activation, length q.
        x: incoming hidden state, length q.
        u: input vector, length m+1.
        dims: network sizes.

    Returns:
        Flat row vector of length |W|.
    """
    if nu.shape != (dims.q,) or z.shape != (dims.q,):
        raise ValueError(f"nu/z must have length {dims.q}")
    if x.shape != (dims.q,) or u.shape != (dims.m + 1,):
        raise ValueError(
            f"expected x of length {dims.q} and u of length {dims.m + 1}, "
            f"got {x.shape} and {u.shape}"
        )
    a = nu * tanh_prime(z)
    out = np.empty(dims.n_params)
    out[: dims.n_wa] = np.outer(a, x).ravel(order="F")
    out[dims.n_wa : dims.n_wa + dims.n_wb] = np.outer(a, u).ravel(order="F")
    out[dims.n_wa + dims.n_wb :] = 0.0
    return out


def tangent_propagate(
    params: RnnParams,
    x: np.ndarray,
    x_tilde: np.ndarray,
    u: np.ndarray,
    x_next: np.ndarray,
    eps_prop: float = EPS_PROP,
) -> np.ndarray:
    """Push the state estimate through the state map by finite differences.

    Returns (tanh(W_a (x + eps*x_tilde) + W_b u) - x_next) / eps, a
    first-order approximation of diag(tanh'(z)) W_a x_tilde.
    """
    if not eps_prop > 0:
        raise ValueError(f"eps_prop must be > 0, got {eps_prop}")
    shifted = np.tanh(params.w_a @ (x + eps_prop * x_tilde) + params.w_b @ u)
    return (shifted - x_next) / eps_prop


def uoro_step(
    params: RnnParams,
    x: np.ndarray,
    memory: UoroMemory,
    u: np.ndarray,
    y_star: np.ndarray,
    hyper: UoroHyper,
    rng: np.random.Generator,
    *,
    nu: np.ndarray | None = None,
    workspace: UoroWorkspace | None = None,
) -> UoroStepResult:
    """One UORO training step (the ten-stage sequence in the module
    docstring).

    Args:
        params: current weights.
        x: current hidden state, length q.
        memory: rank-one influence estimate from the previous step.
        u: input vector, length m+1.
        y_star: normalized target, length p.
        hyper: learning rate, clip threshold and sizes.
        rng: source of the Rademacher draw.
        nu: optional fixed sign vector replacing the draw; intended for
            estimator tests that resample or mirror nu explicitly.
        workspace: buffers to step in place, as a learner does: the new
            weights and theta_tilde are written into it, and `params` and
            `memory` may be the ones it returned last step. Without it,
            every |W|-length result is a fresh array and no input is
            written to.

    Returns:
        UoroStepResult with updated params, state, memory, the prediction
        made this step, and its loss. The prediction and the hidden states
        are fresh arrays either way.

    Raises:
        NonFiniteError: a NaN or infinity appeared; the message names the
            first affected quantity (loss, gradient, normalizers, or the
            updated memory).
    """
    dims = params.dims
    q, p = dims.q, dims.p
    n_wa, b_end = dims.n_wa, dims.n_wa + dims.n_wb
    if workspace is None:
        grad = dtheta_g = theta_tilde = new_params = None
    else:
        workspace.check(dims)
        grad, dtheta_g = workspace.grad, workspace.dtheta_g
        theta_tilde, new_params = workspace.theta_tilde, workspace.params

    # 1-2. The forward pass's W_b u is reused in stage 6.
    cache = forward(params, x, u)
    x_next = cache.x_next
    e, loss_value = loss(cache.y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")

    # 3-4. delta_theta is non-zero only in the W_c block, so it is added
    # into that slice alone; the slice viewed as q x p is W_c transposed.
    grad = np.multiply(
        grad_x_loss(e, params.w_c) @ memory.x_tilde, memory.theta_tilde,
        out=grad,
    )
    grad_wc = grad[b_end:].reshape(q, p)
    grad_wc += np.multiply.outer(x_next, -e)
    grad_norm = _finite_norm(grad, "gradient")

    # 5. sign draw
    if nu is None:
        nu = 2.0 * rng.integers(0, 2, size=q) - 1.0
    elif nu.shape != (q,):
        raise ValueError(f"nu has shape {nu.shape}, expected ({q},)")

    # 6. tangent propagation
    shifted = np.tanh(params.w_a @ (x + EPS_PROP * memory.x_tilde) + cache.wb_u)
    x_fwd = (shifted - x_next) / EPS_PROP

    # 7. The W_a and W_b blocks are written in place as the C-order outer
    # products x a^T and u a^T, which are the column-major a x^T and a u^T.
    a = nu * tanh_prime(cache.z)
    if dtheta_g is None:
        dtheta_g = np.empty(dims.n_params)
    np.multiply.outer(x, a, out=dtheta_g[:n_wa].reshape(q, q))
    np.multiply.outer(u, a, out=dtheta_g[n_wa:b_end].reshape(dims.m + 1, q))
    dtheta_g[b_end:] = 0.0

    # 8. Numpy scalars keep a zero denominator (EPS_NORM = 0) an inf or a
    # NaN that the checks below report, as np.linalg.norm did.
    eps = EPS_NORM
    theta_tilde_norm = math.sqrt(memory.theta_tilde.dot(memory.theta_tilde))
    dtheta_g_norm = math.sqrt(dtheta_g.dot(dtheta_g))
    rho0 = np.sqrt(theta_tilde_norm / (np.sqrt(x_fwd.dot(x_fwd)) + eps)) + eps
    rho1 = np.sqrt(dtheta_g_norm / (np.sqrt(nu.dot(nu)) + eps)) + eps
    if not math.isfinite(rho0):
        raise NonFiniteError("rho0")
    if not math.isfinite(rho1):
        raise NonFiniteError("rho1")

    # 9. memory update
    x_tilde = rho0 * x_fwd + rho1 * nu
    theta_tilde = np.divide(memory.theta_tilde, rho0, out=theta_tilde)
    dtheta_g /= rho1
    theta_tilde += dtheta_g
    if not np.isfinite(x_tilde).all():
        raise NonFiniteError("x_tilde")
    if not (
        theta_tilde_norm / rho0 + dtheta_g_norm / rho1 <= _FINITE_BOUND
        or np.isfinite(theta_tilde).all()
    ):
        raise NonFiniteError("theta_tilde")

    # 10. clipped SGD
    new_params = sgd_update(
        params, grad, grad_norm, hyper.eta, hyper.tau, out=new_params
    )

    return UoroStepResult(
        params=new_params,
        x=x_next,
        memory=UoroMemory(x_tilde=x_tilde, theta_tilde=theta_tilde),
        y=cache.y,
        loss=loss_value,
    )
