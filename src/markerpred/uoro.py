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
    5. sign draw               nu ~ uniform on {-1, +1}^q, as
                               2 * rng.integers(0, 2, size=q) - 1, or
                               the nu the caller passes
    6. tangent propagation     x_fwd = (tanh(W_a(x + eps*x_tilde) + W_b u)
                               - x_next) / eps
    7. backward sign gradient  dtheta_g = nu-weighted Jacobian row of the
                               state map in theta: with a = nu * tanh'(z)
                               and the stacked input v = [x; u], the
                               [W_a | W_b] block a v^T, and zero for W_c
    8. normalizers             rho0 = sqrt(||theta_tilde|| / (||x_fwd||
                               + eps)) + eps, rho1 likewise for
                               dtheta_g / nu, where ||dtheta_g|| =
                               ||a|| * sqrt(||x||^2 + ||u||^2)
    9. memory update           x_tilde' = rho0*x_fwd + rho1*nu,
                               theta_tilde' = theta_tilde * (1/rho0)
                               + dtheta_g/rho1
   10. clipped SGD             theta' = theta - eta * clip(dtheta_est, tau)

Step 4 deliberately uses the pre-update memory; moving it after step 9
changes the estimator. The normalizers in step 8 keep the additive guards
inside and outside the square roots. Stage 9 applies its scalars to
|W|-length vectors only as multiplies, which rounds differently from the
divisions as stated, so it matches them up to rounding, not bit for bit:
||dtheta_g|| comes in closed form (`delta_theta_g_norm`), so rho1 is known
before dtheta_g is written, and dtheta_g / rho1 is written directly as the
one outer product of v and the q-vector (nu / rho1) * tanh'(z); theta_tilde
is multiplied by the reciprocal 1 / rho0.

The closed forms `delta_theta`, `delta_theta_g`, `delta_theta_g_norm` and
`tangent_propagate` are the tested reference: the tests check them against
finite differences, brute-force Jacobians and the norm of the formed
vector, and compose them into a step that `uoro_step` must match bit for
bit. `uoro_step` runs the same arithmetic in the same order as one body
that calls one helper per step, `rnn.forward`: the operations of
`rnn.loss`, `grad_x_loss` and `delta_theta_g_norm` are written inline, so
that a step pays the dispatch of each numpy operation only, which at small
q is most of its cost. The forward pass stays a call, and its `StepCache`
the one object a step builds besides its result, because perfbench's
tracer times the forward pass as its own layer through that call. The
step makes fewer passes over the |W|-length vectors: it adds the direct
gradient into the W_c block alone, its only non-zero block, by
subtracting x_next e^T from W_c transposed, writes dtheta_g / rho1 in
place as its [W_a | W_b] block alone and adds it into theta_tilde's
[W_a | W_b] rows (theta_tilde's W_c block is only scaled; from
`init_memory` on it is +0.0, as adding the zero block would leave it),
shares W_b u between stages 1 and 6, takes tanh'(z) as
1 - x_next^2, computes each norm once, and checks the gradient, x_tilde and
the new theta_tilde for finiteness through norms it already has (or, for
x_tilde, its squared norm), scanning an array only when such a norm is
not finite. The normalizers of stage 8 are Python floats: math.sqrt and
float division round as numpy's float64 scalars do (both are IEEE
operations, correctly rounded), and ||nu|| is sqrt(q) because nu is +-1,
so sum(nu * nu) is exactly q. The one difference is a zero denominator,
possible only with EPS_NORM = 0: numpy gave an infinity or NaN where a
Python float raises ZeroDivisionError, so the step reports there the
non-finite quantity the numpy form led to (rho0, or theta_tilde for a
zero rho) without dividing.

The guard eps of step 8 and the finite-difference step eps of step 6 are
the module constants EPS_NORM and EPS_PROP, which `uoro_step` reads on
every call.

A step runs on a `UoroWorkspace`, the per-run plan of the step: the
buffers (two gradient slots, theta_tilde, the [W_a | W_b] block of
dtheta_g, the stacked input v, and one x_tilde per slot) and every view
and object of them the step uses, each built by the `rnn` helpers that
define the flat layout, so the step does only the arithmetic and never
indexes the layout itself. It writes the gradient and then the new
weights, and x_tilde, into the slot the current weights are not in (see
`Workspace`), and returns that slot's `UoroMemory`, built with the
workspace, so a step builds two objects only, the `StepCache` of
`rnn.forward` and its result. A learner allocates one workspace per run
and feeds the returned params and memory,
which live in it, back into the next step; the memory a step returns is
valid until the next step, which scales theta_tilde in place. Called
without one, `uoro_step` builds a fresh workspace, so it writes to none
of its inputs and returns fresh arrays; the two calls run one body and
are bit-identical. The new weights are column-major views of a flat
buffer either way. The first step must be given `init_params`' C-order
matrices themselves, not a column-major copy: a matrix-vector product
over a column-major matrix rounds differently, so only the original
layout reproduces the pure chain bit for bit.

Stage 5 draws its signs from `rng`, q at a time, unless the caller passes
them as `nu`. A learner draws them ahead in blocks, as
`2 * rng.integers(0, 2, size=(B, q)) - 1`, and passes one row per step:
numpy makes each value of either draw from one 32-bit word of the
generator, in order, so the rows are the signs that B single draws give.
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
    _ab_rows,
    _aligned_empty,
    _c_rows,
    forward,
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
    "delta_theta_g_norm",
    "tangent_propagate",
    "uoro_step",
]

# Guard added inside and outside the normalizer square roots.
EPS_NORM = 1e-7
# Step size of the finite-difference tangent propagation.
EPS_PROP = 1e-7
# Up to rounding, far less than a factor of 2, no element of the new
# theta_tilde exceeds ||theta_tilde|| * (1/rho0) + ||dtheta_g|| / rho1. A bound
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


@dataclass(frozen=True, slots=True)
class UoroStepResult:
    params: RnnParams
    x: np.ndarray
    memory: UoroMemory
    y: np.ndarray
    loss: float


class UoroWorkspace(Workspace):
    """A UORO step's buffers (see `Workspace`): besides the two slots,
    theta_tilde, of length |W|, and dtheta_g, the [W_a | W_b] block of
    dtheta_g alone, each starting on a cache line like the slots. Both are
    held as the C-order (q+m+1) x q views `_ab_rows` gives, `theta_tilde_ab`
    and `dtheta_g`, so that stage 7 writes dtheta_g as the one outer product
    v a^T and stage 9 adds it into theta_tilde's [W_a | W_b] rows. Slot k
    also has the memory a step into it returns, `memory[k]`: its own
    x_tilde and the shared theta_tilde. `nu_norm` is ||nu|| = sqrt(q)."""

    def __init__(self, dims: RnnDims):
        super().__init__(dims)
        self.theta_tilde = _aligned_empty(dims.n_params)
        self.theta_tilde_ab = _ab_rows(self.theta_tilde, dims)
        self.dtheta_g = _ab_rows(_aligned_empty(dims.n_ab), dims)
        self.memory = tuple(
            UoroMemory(x_tilde=np.empty(dims.q), theta_tilde=self.theta_tilde)
            for _ in range(2)
        )
        self.nu_norm = math.sqrt(dims.q)


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
    _c_rows(out, dims)[...] = np.multiply.outer(x_next, -e)
    return out


def delta_theta_g(
    nu: np.ndarray,
    z: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    dims: RnnDims,
) -> np.ndarray:
    """Sign-weighted row of the state map's parameter Jacobian.

    With a = nu * tanh'(z) (elementwise) and the stacked input v = [x; u],
    the [W_a | W_b] block is a v^T (placed by `_ab_rows`) and the W_c block
    is zero. Equivalently this is nu^T d(tanh(W_a x + W_b u))/d theta.

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
    out = np.zeros(dims.n_params)
    _ab_rows(out, dims)[...] = np.multiply.outer(np.concatenate((x, u)), a)
    return out


def delta_theta_g_norm(a: np.ndarray, x: np.ndarray, u: np.ndarray) -> float:
    """Norm of `delta_theta_g` in closed form, without forming it.

    Its [W_a | W_b] block is a [x; u]^T, so the norm is
    ||a|| * sqrt(||x||^2 + ||u||^2). Since nu is +-1, ||a|| = ||tanh'(z)||,
    and `a` may be tanh'(z) itself.

    Edge rule: a fully saturated a (||a|| = 0) gives 0, the norm of the
    all-zero delta_theta_g, even where ||x||^2 + ||u||^2 overflows and
    0 * inf would give NaN; only an infinite or NaN entry of x or u, which
    makes delta_theta_g itself NaN, gives NaN. Otherwise an overflowing
    ||x||^2 + ||u||^2 gives inf, which `uoro_step` reports as a non-finite
    rho1.

    Args:
        a: nu * tanh'(z) or tanh'(z), length q.
        x: incoming hidden state, length q.
        u: input vector, length m+1.
    """
    a_norm = math.sqrt(a.dot(a))
    if a_norm == 0.0 and np.isfinite(x).all() and np.isfinite(u).all():
        return 0.0
    return a_norm * math.sqrt(x.dot(x) + u.dot(u))


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
        rng: source of the Rademacher draw; unused when `nu` is given.
        nu: sign vector replacing the draw (see stage 5 in the module
            docstring): a learner passes the rows of the signs it drew in
            blocks, and estimator tests resample or mirror nu explicitly.
        workspace: buffers to step in place, as a learner does: the new
            weights, x_tilde and theta_tilde are written into it, and
            `params` and `memory` may be the ones it returned last step.
            Without it, the step builds a fresh one, so every result is a
            fresh array and no input is written to. After a step raises,
            the workspace holds no usable state.

    Returns:
        UoroStepResult with updated params, state, memory, the prediction
        made this step, and its loss. The prediction and the hidden states
        are fresh arrays either way.

    Raises:
        ValueError: x, u, y_star or nu, or the workspace, does not fit
            the network.
        NonFiniteError: a NaN or infinity appeared; the message names the
            first affected quantity (loss, gradient, normalizers, or the
            updated memory).
    """
    if workspace is None:
        # Fresh buffers: the step writes to none of its inputs.
        workspace = UoroWorkspace(params.dims)
    k, theta = workspace.slot(params, x, u, y_star)
    x_tilde, theta_tilde = memory.x_tilde, memory.theta_tilde

    # 1-2. forward pass, then `loss`; W_b u is reused in stage 6.
    cache = forward(params, x, u)
    x_next, y = cache.x_next, cache.y
    e = y_star - y
    loss_value = 0.5 * float(e.dot(e))
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")

    # 3-4. The scalar is `grad_x_loss` . x_tilde. delta_theta is non-zero
    # only in the W_c block, -e x_next^T, so it is added into that block
    # alone (`grad_wc`, W_c transposed) by subtracting x_next e^T, which
    # gives the bits of adding x_next (-e)^T. A finite norm proves every
    # entry finite; only a non-finite one, which the squares' overflow
    # alone can cause, calls for the scan.
    grad = np.multiply(-(e @ params.w_c) @ x_tilde, theta_tilde,
                       out=workspace.grad[k])
    grad_wc = workspace.grad_wc[k]
    grad_wc -= np.multiply.outer(x_next, e)
    grad_norm = math.sqrt(grad.dot(grad))
    if not math.isfinite(grad_norm) and not np.isfinite(grad).all():
        raise NonFiniteError("gradient")

    # 5. sign draw
    if nu is None:
        nu = 2.0 * rng.integers(0, 2, size=x_next.size) - 1.0
    elif nu.shape != x_next.shape:
        raise ValueError(f"nu has shape {nu.shape}, expected {x_next.shape}")

    # 6. tangent propagation
    shifted = np.tanh(params.w_a @ (x + EPS_PROP * x_tilde) + cache.wb_u)
    x_fwd = (shifted - x_next) / EPS_PROP

    # 7-8. rho1 comes first, from the closed-form norm of dtheta_g
    # (`delta_theta_g_norm` with a = tanh'(z), which is 1 - x_next^2, from
    # the tanh the forward pass took), so that stage 7 writes dtheta_g /
    # rho1 directly, as the outer product v a^T of the stacked input
    # v = [x; u] and the q-vector a = (nu / rho1) * tanh'(z) into the
    # `_ab_rows` view of the [W_a | W_b] block; its W_c block is zero and is
    # not formed. The normalizers are Python floats, with ||nu|| = sqrt(q).
    eps = EPS_NORM
    d = 1.0 - x_next * x_next
    d_norm = math.sqrt(d.dot(d))
    if d_norm == 0.0 and np.isfinite(x).all() and np.isfinite(u).all():
        dtheta_g_norm = 0.0
    else:
        dtheta_g_norm = d_norm * math.sqrt(x.dot(x) + u.dot(u))
    theta_tilde_norm = math.sqrt(theta_tilde.dot(theta_tilde))
    fwd_norm = math.sqrt(x_fwd.dot(x_fwd)) + eps
    if not fwd_norm:
        # Only with EPS_NORM = 0: numpy's quotient was an inf or a NaN.
        raise NonFiniteError("rho0")
    rho0 = math.sqrt(theta_tilde_norm / fwd_norm) + eps
    rho1 = math.sqrt(dtheta_g_norm / (workspace.nu_norm + eps)) + eps
    if not math.isfinite(rho0):
        raise NonFiniteError("rho0")
    if not math.isfinite(rho1):
        raise NonFiniteError("rho1")
    v = np.concatenate((x, u), out=workspace.v)
    np.multiply.outer(v, (nu / rho1) * d, out=workspace.dtheta_g)

    # 9. memory update, into this slot's memory: x_tilde, then theta_tilde
    # scaled by the reciprocal of rho0, with dtheta_g added into its
    # [W_a | W_b] rows only, since dtheta_g's W_c block is zero.
    new_memory = workspace.memory[k]
    new_x_tilde = np.multiply(x_fwd, rho0, out=new_memory.x_tilde)
    new_x_tilde += rho1 * nu
    if (not math.isfinite(new_x_tilde.dot(new_x_tilde))
            and not np.isfinite(new_x_tilde).all()):
        raise NonFiniteError("x_tilde")
    if not (rho0 and rho1):
        # Only with EPS_NORM = 0: a zero rho scales theta_tilde or dtheta_g
        # by an infinity, which leaves no entry of theta_tilde finite.
        raise NonFiniteError("theta_tilde")
    inv_rho0 = 1.0 / rho0
    new_theta_tilde = np.multiply(theta_tilde, inv_rho0,
                                  out=workspace.theta_tilde)
    workspace.theta_tilde_ab += workspace.dtheta_g
    if not (
        theta_tilde_norm * inv_rho0 + dtheta_g_norm / rho1 <= _FINITE_BOUND
        or np.isfinite(new_theta_tilde).all()
    ):
        raise NonFiniteError("theta_tilde")

    # 10. clipped SGD
    new_params = sgd_update(params, grad, grad_norm, hyper.eta, hyper.tau,
                            workspace.weights[k], theta)

    return UoroStepResult(new_params, x_next, new_memory, y, loss_value)
