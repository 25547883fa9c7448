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
    4. gradient estimate       g = c * theta_tilde + dtheta with
                               c = grad_x_loss . x_tilde, using the memory
                               from BEFORE this step
    5. sign draw               nu ~ uniform on {-1, +1}^q, as
                               2 * rng.integers(0, 2, size=q) - 1 (see
                               the sign source below)
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
   10. clipped SGD             theta' = theta - eta * s * g, with the
                               clip factor s = min(1, tau' / ||g||)

Step 4 deliberately uses the pre-update memory; moving it after step 9
changes the estimator. The kernel runs stage 10 right after stage 6,
which changes no value: SGD reads only the gradient and the weights, and
stages 7-9 none of its outputs. Stages 3-4 and 10 are closed forms that
never form g as a |W| vector. g's [W_a | W_b] block is c theta_tilde_ab,
so its norm is |c| ||theta_tilde_ab||, from the squared norm of
theta_tilde_ab that rho0 needs anyway (rho0 takes ||theta_tilde||^2 as the
sum of its two blocks' squared norms); only the W_c block g_c =
c theta_tilde_c - x_next e^T, p*q entries, is formed. Then ||g|| =
sqrt((|c| ||theta_tilde_ab||)^2 + ||g_c||^2), and SGD subtracts
(eta s c) theta_tilde_ab from the [W_a | W_b] weights and (eta s) g_c from
W_c. tau' is tau shrunk by a bound on the rounding of ||g|| (see
`uoro_step`'s clip rule). The normalizers in step 8 keep the
additive guards inside and outside the square roots. Stage 9 applies its
scalars to |W|-length vectors only as multiplies, which rounds differently
from the divisions as stated, so it matches them up to rounding, not bit
for bit: ||dtheta_g|| comes in closed form (`delta_theta_g_norm`), so rho1
is known before dtheta_g is written, and dtheta_g / rho1 is written
directly as the one outer product of v and the q-vector (nu / rho1) *
tanh'(z); theta_tilde is multiplied by the reciprocal 1 / rho0.

The closed forms `grad_x_loss`, `delta_theta`, `delta_theta_g`,
`delta_theta_g_norm` and `tangent_propagate` are the tested reference: the
tests check them against finite differences, brute-force Jacobians and the
norm of the formed vector, and compose them into a step that `uoro_step`
must match bit for bit. The step that formed g and clipped it with
`rnn.clip_gradient` stays in the tests as an oracle, met one step at a
time within a measured tolerance.

A step is split in two: stage 1, the forward pass, and stages 2-4 and
6-10, the update kernel `uoro_update`. The kernel takes the forward
pass's W_b u, x_next and y and the signs, steps the weights and the
memory in place in a `UoroWorkspace`, and returns the loss. `uoro_step`
is the pure step: it checks its inputs, draws the signs unless it is
given them, calls `rnn.forward` and the kernel, and returns a
`UoroStepResult`. `learner` is the online learner the harness trains
with. For every shape whose [W_a | W_b] block has fewer than
`_BLOCK_MIN` = 10,000 entries, q = L = 10 among them, it checks its
shapes once, runs the forward pass inline, as the same three products,
add and tanh over the same operands, and calls the kernel, so its chain
is the pure chain bit for bit. Larger shapes take the block-delayed
learner (`block_learner`), which keeps [W_a | W_b] and theta_tilde_ab as
their blocks at the last fold plus up to 16 pending rank-one terms, reads
both once per step and folds them every 16 steps. It runs its own stages
2-4, 7 and 10 on that form and shares stage 6's difference quotient,
stage 8 and stage 9's x_tilde with the kernel (`_memory_scalars`). It is
within a measured tolerance of `uoro_step` one step at a time (3.5e-12
relatively in the new weights, 1.6e-7 in x_tilde, 1.0e-8 in
theta_tilde, from the same formed state and signs), not bit for bit.

The kernel writes the operations of `rnn.loss`, `grad_x_loss` and
`delta_theta_g_norm` inline, so that at small q a step pays the dispatch
of each numpy operation only, which is most of its cost there. It makes
few passes over the |W|-length vectors: one dot over theta_tilde_ab, one
multiply of it into the spent gradient buffer and one subtraction for
SGD, then the outer product dtheta_g / rho1, the scaling of theta_tilde
and one add for the memory. It forms the direct gradient in the W_c block
alone, its only non-zero block, by subtracting x_next e^T from W_c
transposed, writes dtheta_g / rho1 as its [W_a | W_b] block alone
(x_next e^T and dtheta_g / rho1 are each one BLAS product of a column and
a row: each entry is the one rounded product, an exact zero +0), adds it
into theta_tilde's [W_a | W_b] rows (theta_tilde's W_c block is only
scaled; from `init_memory` on it is +0.0, as adding the zero block would
leave it, but a pure call may be handed any W_c block), shares W_b u
between stages 1 and 6, takes tanh'(z) as 1 - x_next^2, computes each
norm once, and checks the gradient, x_tilde and the new theta_tilde for
finiteness through norms it already has (or, for x_tilde, its squared
norm), scanning an array only when such a norm is not finite; the
gradient's check never scans, and theta_tilde is scanned only when its
squared norm is not finite (see `uoro_step`).
The normalizers of stage 8 are Python floats: math.sqrt and float division
round as numpy's float64 scalars do (both are IEEE operations, correctly
rounded), and ||nu|| is sqrt(q) because nu is +-1, so sum(nu * nu) is
exactly q. The one difference is a zero denominator, possible only with
EPS_NORM = 0: numpy gave an infinity or NaN where a Python float raises
ZeroDivisionError, so the step reports there the non-finite quantity the
numpy form led to (rho0, or theta_tilde for a zero rho) without dividing.

The guard eps of step 8 and the finite-difference step eps of step 6 are
the module constants EPS_NORM and EPS_PROP, which the kernel reads on
every call.

The kernel runs on a `UoroWorkspace`, the per-run plan of the step: three
|W|-length buffers (the weights, the gradient and theta_tilde), the
stacked input v, x_tilde, and every view and object of them the step
uses, each built by the `rnn` helpers that define the flat layout, so the
kernel does only the arithmetic and never indexes the layout itself. The
gradient buffer never holds g: its W_c block holds g_c, and its
[W_a | W_b] block is scratch. The kernel reads the input weights (stages
4 and 6, after the forward pass), then SGD writes (eta s c) theta_tilde_ab
into that scratch, scales g_c by eta s in place and subtracts the whole
buffer from the input weights into the workspace's weights
(`Workspace.apply_update`). Stage 9 then writes x_tilde into the
workspace's `memory`, stage 7 dtheta_g / rho1 over the scratch, and stage
9 theta_tilde into the memory, each over the input memory when it is that
one, which no later stage reads. A learner allocates one workspace per run and, from its second
step on, feeds the workspace's weights and memory straight back into the
next step, which overwrites both. Called without one,
`uoro_step` builds a fresh workspace, so it writes to none of its inputs
and returns fresh arrays; the two calls run one kernel and are
bit-identical. The new weights are column-major views of a flat buffer
either way. The first step must be given `init_params`' C-order matrices
themselves, not a column-major copy: a matrix-vector product over a
column-major matrix rounds differently, so only the original layout
reproduces the pure chain bit for bit.

Stage 5 runs before the kernel: `uoro_step` draws q signs from `rng`
unless the caller passes them as `nu`, and a learner takes one row per
step of `_signs`, which draws `_SIGN_BLOCK` steps ahead from the seed
[seed, 1], as `2 * rng.integers(0, 2, size=(B, q)) - 1`: numpy makes
each value of either draw from one 32-bit word of the generator, in
order, so the rows are the signs that B single draws give.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    Workspace,
    _FINITE_BOUND,
    _UNIT_ROUNDOFF,
    _ab_rows,
    _aligned_empty,
    _c_rows,
    _clipped_rate,
    forward,
    tanh_prime,
    unflatten_params,
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
    "uoro_update",
    "learner",
    "block_learner",
]

# Guard added inside and outside the normalizer square roots.
EPS_NORM = 1e-7
# Step size of the finite-difference tangent propagation.
EPS_PROP = 1e-7

# Steps of Rademacher signs a learner draws at once (`_signs`): enough to
# make the draw's fixed cost negligible per step; 256 raised uoro-protocol's
# peak memory by about 0.3 MB.
_SIGN_BLOCK = 64

# The smallest [W_a | W_b] block, q (q + m + 1) entries, whose learner is
# block-delayed (`block_learner`); smaller ones keep the exact in-place
# step. Medians of 7 interleaved bench_step_time pairs, exact against
# block-delayed, in us (2-vCPU Xeon, one BLAS thread): 62 against 72 at
# 7,050 entries (q = 50, L = 10), 44 against 44 at 8,210 (q = 10, L = 90),
# 46 against 46 at 9,030 (q = L = 30), 52 against 47 at 11,270 (q = 70,
# L = 10), 57 against 47 at 16,050 (q = 50, L = 30), and 225 against 90 at
# 81,090 (q = L = 90).
_BLOCK_MIN = 10_000

# Pairs a block-delayed learner (`block_learner`) keeps pending between its
# folds. harness.bench_step_time read blocks of 8, 16 and 32 within 4 % of
# each other at q = L = 30 and 50, and at 99, 93 and 88 us at q = L = 90,
# where a second pass read 16 and 32 at 90 us each; at q = 90, L = 10, 32
# was 6 % slower than 16.
_BLOCK_PAIRS = 16

# The largest ratio of the expanded ||theta_tilde_ab||^2's triangle bound
# to its value that a block-delayed step uses; past it the step folds and
# takes the formed norm. Over the 17 block-delayed shapes of the shipped
# grid, at eta = 0.05 and 0.2 on two 200 s synthetic records, the ratio
# never passed 19.
_BLOCK_CANCEL_MAX = 2.0 ** 10


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
    """A UORO step's buffers (see `Workspace`): besides the weights and the
    gradient buffer, theta_tilde, of length |W| and starting on a cache
    line like them. The gradient buffer never holds the whole gradient:
    its W_c block, flat as `grad_c` and transposed as `grad_wc`, holds g_c,
    and its [W_a | W_b] block, flat as `grad_ab_flat`, is scratch for SGD's
    (eta s c) theta_tilde_ab. `theta_tilde_ab` and `grad_ab` are the
    C-order (q+m+1) x q `_ab_rows` views of the [W_a | W_b] blocks: a step
    writes dtheta_g as the one outer product v a^T into `grad_ab`, once SGD
    has consumed the scratch, and adds it into theta_tilde's.
    `theta_tilde_blocks` are theta_tilde's two blocks, flat. `memory` is
    the memory a step returns: x_tilde and theta_tilde, both updated in
    place. `nu_norm` is ||nu|| = sqrt(q)."""

    def __init__(self, dims: RnnDims):
        super().__init__(dims)
        self.theta_tilde = _aligned_empty(dims.n_params)
        self.theta_tilde_ab = _ab_rows(self.theta_tilde, dims)
        self.grad_ab = _ab_rows(self.grad, dims)
        self.theta_tilde_blocks = (self.theta_tilde[: dims.n_ab],
                                   self.theta_tilde[dims.n_ab :])
        self.grad_ab_flat = self.grad[: dims.n_ab]
        self.grad_c = self.grad[dims.n_ab :]
        self.memory = UoroMemory(x_tilde=np.empty(dims.q),
                                 theta_tilde=self.theta_tilde)
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

    Clip rule: with g_ab = c theta_tilde_ab and g_c as in the module
    docstring, ||g|| = sqrt((|c| ||theta_tilde_ab||)^2 + ||g_c||^2), each
    squared norm a dot product taken as a Python float. The clip factor is
    s = tau' / ||g|| when ||g|| > tau' and 1 otherwise, with
    tau' = tau * (1 - (|W| + 32) 2^-53) (`rnn._clipped_rate`, which
    `baselines.lms_step` and `rtrl.rtrl_step` share), and the update
    Delta = [(eta s c) theta_tilde_ab; (eta s) g_c], formed in doubles, has
    ||Delta|| <= eta * tau in exact arithmetic. tau' is tau shrunk by a
    bound on the relative rounding of ||g|| (two dot products of |W| terms
    between them, the square roots, products and the sum), of s and of
    Delta's entries, so no rounding carries the update past the clip. The
    bound needs that rounding to be relative: the rule holds whenever
    ||theta_tilde_ab||, ||g_c|| and ||g|| are each 0 or at least 2^-480
    (their squares 0 or at least 2^-960) and tau, eta * tau, eta * s and
    eta * s * |c| lie in [2^-1000, 2^1000]. When the step clips, its s is
    smaller than the factor of `rnn.clip_gradient` on the formed g by
    about (|W| + 32) 2^-53, relatively.

    Finiteness: a finite loss proves e finite. The input theta_tilde is
    scanned only when its squared norm is not finite: if every entry is
    finite, the squares overflowed (||theta_tilde|| above about 1.3e154)
    and the step raises "rho0", since rho0 takes that norm; a non-finite
    entry goes on to raise "gradient". A finite ||g||^2 proves c,
    theta_tilde_ab, g_c and so every entry of g finite; a non-finite one,
    also when only the squares
    overflow (||g|| above about 1.3e154), raises "gradient". Both raise
    before any weight changes. An overflow in the Python float product
    (|c| ||theta_tilde_ab||)^2 is an infinity without a warning, but one
    in a numpy dot (theta_tilde's blocks, g_c) emits numpy's overflow
    RuntimeWarning before the step raises. Finite rho0 and rho1 prove the
    normalizers finite; a finite ||x_tilde'||^2, or else a scan, proves
    x_tilde' finite; and the bound
    ||theta_tilde|| (1/rho0) + ||dtheta_g|| / rho1, or else a scan, proves
    theta_tilde' finite.

    Args:
        params: current weights.
        x: current hidden state, length q.
        memory: rank-one influence estimate from the previous step.
        u: input vector, length m+1.
        y_star: normalized target, length p.
        hyper: learning rate, clip threshold and sizes.
        rng: source of the Rademacher draw, taken after the shape checks;
            unused when `nu` is given.
        nu: sign vector replacing the draw (see stage 5 in the module
            docstring); estimator tests resample or mirror nu explicitly.
        workspace: buffers to step in place: the new weights, x_tilde and
            theta_tilde are written into it, and `params` and `memory` may
            be the ones it returned last step (it overwrites both).
            Without it, the step builds a fresh one, so every result is a
            fresh array and no input is written to. After a step raises,
            the workspace holds no usable state.

    Returns:
        UoroStepResult with updated params, state, memory, the prediction
        made this step, and its loss. The prediction and the hidden states
        are fresh arrays either way.

    Raises:
        ValueError: x, u, y_star or nu, or the workspace, does not fit
            the network; checked before the forward pass.
        NonFiniteError: a NaN or infinity appeared; the message names the
            first affected quantity (loss, gradient, normalizers, or the
            updated memory; see Finiteness above).
    """
    if workspace is None:
        # Fresh buffers: the step writes to none of its inputs.
        workspace = UoroWorkspace(params.dims)
    workspace.check(params, x, u, y_star)
    if nu is None:
        nu = 2.0 * rng.integers(0, 2, size=x.size) - 1.0
    elif nu.shape != x.shape:
        raise ValueError(f"nu has shape {nu.shape}, expected {x.shape}")
    cache = forward(params, x, u)
    loss_value = uoro_update(
        workspace, params, x, memory.x_tilde, memory.theta_tilde, u, y_star,
        cache.wb_u, cache.x_next, cache.y, nu, hyper.eta, hyper.tau,
    )
    return UoroStepResult(workspace.weights, cache.x_next, workspace.memory,
                          cache.y, loss_value)


def uoro_update(
    workspace: UoroWorkspace,
    params: RnnParams,
    x: np.ndarray,
    x_tilde: np.ndarray,
    theta_tilde: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    wb_u: np.ndarray,
    x_next: np.ndarray,
    y: np.ndarray,
    nu: np.ndarray,
    eta: float,
    tau: float,
) -> float:
    """Stages 2-4 and 6-10 of a UORO step, the update kernel, after the
    forward pass from weights `params` and state x on input u gave
    wb_u = W_b u, x_next and y, with the sign vector nu. Writes the new
    weights into `workspace.weights` and the new x_tilde and theta_tilde
    into `workspace.memory` (x_tilde and theta_tilde may be that memory's
    own arrays), and returns the loss.

    The caller checks the shapes: `uoro_step` on every call, a learner
    once. The clip rule and the finiteness checks are `uoro_step`'s.

    Raises:
        NonFiniteError: as `uoro_step`. After it raises, the workspace
            holds no usable state.
    """
    # 2. `loss`
    e = y_star - y
    loss_value = 0.5 * float(e.dot(e))
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")

    # 3-4. g = c theta_tilde + dtheta, c = `grad_x_loss` . x_tilde. Its
    # [W_a | W_b] block is c theta_tilde_ab, so ||g_ab|| is |c| times the
    # ||theta_tilde_ab|| that rho0 needs anyway, and the block is never
    # formed. The W_c block g_c = c theta_tilde_c - x_next e^T, p*q entries,
    # is formed in the gradient buffer (`grad_wc`, W_c transposed): x_next
    # e^T is one BLAS product, and subtracting it gives the bits of adding
    # delta_theta's x_next (-e)^T up to the sign of an exact zero.
    c = -float((e @ params.w_c) @ x_tilde)
    dims = workspace.dims
    if theta_tilde is workspace.theta_tilde:
        # A learner's memory: reusing the workspace's views of its two
        # blocks made a q = L = 10 step 1-2 % faster than slicing them
        # (paired in one process, 2-core Xeon, numpy 2.4, OpenBLAS 0.3.31).
        theta_tilde_ab, theta_tilde_c = workspace.theta_tilde_blocks
    else:
        n_ab = dims.n_ab
        theta_tilde_ab, theta_tilde_c = theta_tilde[:n_ab], theta_tilde[n_ab:]
    ab_squares = float(theta_tilde_ab.dot(theta_tilde_ab))
    theta_tilde_squares = ab_squares + float(theta_tilde_c.dot(theta_tilde_c))
    if (not math.isfinite(theta_tilde_squares)
            and np.isfinite(theta_tilde).all()):
        # Finite entries whose squares overflow: the ||theta_tilde|| that
        # rho0 takes is infinite, as in the formed-gradient step.
        raise NonFiniteError("rho0")
    grad_c = np.multiply(theta_tilde_c, c, out=workspace.grad_c)
    workspace.grad_wc -= np.dot(x_next[:, None], e[None, :])
    grad_ab_norm = abs(c) * math.sqrt(ab_squares)
    grad_squares = grad_ab_norm * grad_ab_norm + float(grad_c.dot(grad_c))
    # A finite ||g||^2 proves c, theta_tilde_ab and g_c finite, and so
    # every entry of g.
    if not math.isfinite(grad_squares):
        raise NonFiniteError("gradient")

    # 6. tangent propagation: the shifted state, whose difference quotient
    # x_fwd `_memory_scalars` takes with the normalizers.
    shifted = np.tanh(params.w_a @ (x + EPS_PROP * x_tilde) + wb_u)

    # 10. clipped SGD, by the clip rule (see `uoro_step`): theta_ab -=
    # (eta s c) theta_tilde_ab through the [W_a | W_b] block of the
    # gradient buffer, and W_c^T -= (eta s) g_c, as one subtraction into
    # the workspace's weights. Stages 7-9 then reuse the gradient buffer.
    eta_s = _clipped_rate(eta, tau, math.sqrt(grad_squares), dims.n_params)
    np.multiply(theta_tilde_ab, eta_s * c, out=workspace.grad_ab_flat)
    grad_c *= eta_s
    workspace.apply_update(params)

    # 7-9. rho1 comes from the closed-form norm of dtheta_g
    # (`delta_theta_g_norm` with a = tanh'(z) = 1 - x_next^2), so that
    # stage 7 writes dtheta_g / rho1 directly, as the outer product v a^T of
    # v = [x; u] and a = (nu / rho1) * tanh'(z), into the spent gradient's
    # `_ab_rows` view, once `_memory_scalars` has written x_tilde; its W_c
    # block is zero and is not formed.
    d = 1.0 - x_next * x_next
    d_norm = math.sqrt(d.dot(d))
    if d_norm == 0.0 and np.isfinite(x).all() and np.isfinite(u).all():
        dtheta_g_norm = 0.0
    else:
        dtheta_g_norm = d_norm * math.sqrt(x.dot(x) + u.dot(u))
    theta_tilde_norm = math.sqrt(theta_tilde_squares)
    inv_rho0, rho1 = _memory_scalars(shifted, x_next, theta_tilde_norm,
                                     dtheta_g_norm, nu, workspace.nu_norm,
                                     workspace.memory.x_tilde)
    v = np.concatenate((x, u), out=workspace.v)
    # Each entry of the BLAS product is the one rounded v_r a_j of
    # np.multiply.outer, 2.7 times as fast at q = 90, but an exact zero is
    # +0, never -0; adding it into theta_tilde differs only at a -0 there.
    a = (nu / rho1) * d
    np.dot(v[:, None], a[None, :], out=workspace.grad_ab)

    # 9. theta_tilde, in place, scaled by the reciprocal of rho0, with
    # dtheta_g added into its [W_a | W_b] rows only, since dtheta_g's W_c
    # block is zero.
    new_theta_tilde = np.multiply(theta_tilde, inv_rho0,
                                  out=workspace.theta_tilde)
    workspace.theta_tilde_ab += workspace.grad_ab
    # Up to rounding, far less than a factor of 2, no element of the new
    # theta_tilde exceeds ||theta_tilde|| * (1/rho0) + ||dtheta_g|| / rho1.
    if not (
        theta_tilde_norm * inv_rho0 + dtheta_g_norm / rho1 <= _FINITE_BOUND
        or np.isfinite(new_theta_tilde).all()
    ):
        raise NonFiniteError("theta_tilde")
    return loss_value


def _memory_scalars(
    shifted: np.ndarray,
    x_next: np.ndarray,
    theta_tilde_norm: float,
    dtheta_g_norm: float,
    nu: np.ndarray,
    nu_norm: float,
    x_tilde_out: np.ndarray,
) -> tuple[float, float]:
    """Stage 6's difference quotient, stage 8 and stage 9's x_tilde, which
    `uoro_update` and `block_learner` share: from `shifted`, the tanh of
    the shifted pre-activation, x_fwd = (shifted - x_next) / EPS_PROP; the
    normalizers rho0 and rho1 from ||theta_tilde||, ||x_fwd||,
    ||dtheta_g|| and ||nu||, as Python floats; and x_tilde' = rho0 x_fwd +
    rho1 nu, written into `x_tilde_out`. Returns (1 / rho0, rho1), the
    scalars of theta_tilde's update.

    Raises NonFiniteError, by `uoro_step`'s finiteness rules, in this
    order: "rho0" for a zero ||x_fwd|| + EPS_NORM (only with EPS_NORM = 0,
    where numpy's quotient was an inf or a NaN) or a non-finite rho0,
    "rho1", "x_tilde" (its squared norm, or else a scan), and "theta_tilde"
    for a zero rho (only with EPS_NORM = 0: it would scale theta_tilde or
    dtheta_g by an infinity, which leaves no entry of theta_tilde finite).
    """
    x_fwd = (shifted - x_next) / EPS_PROP
    eps = EPS_NORM
    fwd_norm = math.sqrt(x_fwd.dot(x_fwd)) + eps
    if not fwd_norm:
        raise NonFiniteError("rho0")
    rho0 = math.sqrt(theta_tilde_norm / fwd_norm) + eps
    rho1 = math.sqrt(dtheta_g_norm / (nu_norm + eps)) + eps
    if not math.isfinite(rho0):
        raise NonFiniteError("rho0")
    if not math.isfinite(rho1):
        raise NonFiniteError("rho1")
    new_x_tilde = np.multiply(x_fwd, rho0, out=x_tilde_out)
    new_x_tilde += rho1 * nu
    if (not math.isfinite(new_x_tilde.dot(new_x_tilde))
            and not np.isfinite(new_x_tilde).all()):
        raise NonFiniteError("x_tilde")
    if not (rho0 and rho1):
        raise NonFiniteError("theta_tilde")
    return 1.0 / rho0, rho1


def _signs(q: int, seed: int) -> Iterator[np.ndarray]:
    """A learner's sign vectors nu, one per step, drawn from [seed, 1]
    _SIGN_BLOCK steps at a time (see the module docstring)."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield from 2.0 * rng.integers(0, 2, size=(_SIGN_BLOCK, q)) - 1.0


def learner(
    dims: RnnDims, params: RnnParams, eta: float, tau: float, seed: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float]]:
    """A UORO learner from the weights `params` (`init_params`' C-order
    matrices), with rate eta, clip threshold tau and the signs of
    `_signs(dims.q, seed)`, and `Workspace.learner`'s interface, whose
    `step.fold_period` is the steps between its folds. A [W_a | W_b] block
    of at least _BLOCK_MIN entries takes `block_learner`; any other is the
    exact learner of a `UoroWorkspace` over `uoro_update`, the pure
    `uoro_step` chain bit for bit.
    """
    if dims.n_ab >= _BLOCK_MIN:
        return block_learner(dims, params, eta, tau, seed)
    workspace = UoroWorkspace(dims)
    # The first step reads init_memory's fresh zeros, as the pure chain
    # does, and writes the workspace's memory. Zeroing the workspace's
    # memory instead gives the same bits, but uoro-protocol's peak_rss_mb
    # read about 0.15 MB higher: the freed zeros leave the heap a
    # |W|-sized hole that later arrays reuse.
    memory = init_memory(dims)
    signs = _signs(dims.q, seed)

    def update(params, x, u, y_star, wb_u, x_next, y):
        nonlocal memory
        loss_value = uoro_update(workspace, params, x, memory.x_tilde,
                                 memory.theta_tilde, u, y_star, wb_u, x_next,
                                 y, next(signs), eta, tau)
        memory = workspace.memory
        return loss_value

    return workspace.learner(params, update)


def block_learner(
    dims: RnnDims,
    params: RnnParams,
    eta: float,
    tau: float,
    seed: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float]]:
    """The block-delayed UORO learner, with `learner`'s arguments and
    interface, which keeps [W_a | W_b] and theta_tilde_ab in
    block-delayed form. `step.state()` forms the current weights as
    W_0 + gamma T_0 + sum_s w_s v_s^T in fresh arrays, and
    `step.fold_period` is _BLOCK_PAIRS.

    Both blocks change at every step by terms that need not be formed
    (the delayed updates of `baselines.lms_learner`): stage 9 scales
    theta_tilde_ab by 1/rho0 and adds a v^T, and stage 10 subtracts
    (eta s c) theta_tilde_ab from W_ab, with v = [x; u] and a = (nu / rho1)
    tanh'(z). So the learner keeps W_0 and T_0, the blocks as of the last
    fold, two scalars alpha and gamma, and the j pairs pending since, v_s
    with q-vectors b_s and w_s:

        theta_tilde_ab = alpha T_0 + sum_s b_s v_s^T,
        W_ab = W_0 + gamma T_0 + sum_s w_s v_s^T.

    A step's SGD subtracts (eta s c) alpha from gamma and (eta s c) b_s
    from each w_s; its memory update scales alpha and every b_s by 1/rho0
    and appends the pair (v, a) with w = 0. W_c is updated at every step,
    as in the pure step. theta_tilde_c is not kept: from `init_memory`'s
    zeros it is only ever scaled, so it stays +0.0, and g_c is -x_next e^T.

    One product reads the stacked [W_0; T_0] once, against v and against
    [EPS_PROP x_tilde; 0]; the pending pairs add their terms to both with
    O(j (q + m)) work. That gives z = W_ab v and W_ab [EPS_PROP x_tilde; 0]
    = EPS_PROP W_a x_tilde from one read of the weights, and stage 6's
    shifted pre-activation is their sum, which shares z's W_b u as the
    pure step shares it. theta_tilde_ab's squared norm is expanded as

        N = alpha^2 ||T_0||^2 + 2 alpha sum_s b_s . (T_0 v_s)
            + sum_{s,r} (b_s . b_r)(v_s . v_r),

    from ||T_0||^2 (exact at the fold), the T_0 v_s of the steps that
    appended each pair, and the Gram matrix of the v_s. Every
    _BLOCK_PAIRS pairs the learner folds: W_0 += gamma T_0 + sum_s w_s
    v_s^T and T_0 = alpha T_0 + sum_s b_s v_s^T, each sum one BLAS product
    of rank j into one spare buffer, and ||T_0||^2 is taken again by one
    dot. So a step reads the |W|-sized blocks once and writes them only
    at a fold.

    Clip rule: N's rounding error is at most kappa B, with B = (|alpha|
    ||T_0|| + sum_s ||b_s|| ||v_s||)^2 the square of its triangle bound and
    kappa = (q (q+m+1) + 2 _BLOCK_PAIRS (2q+m+1) + 64) 2^-53, a bound on
    the rounding of ||T_0||^2, of the products T_0 v_s and v_s . v_r, and
    of the dots and sums above. A step uses N only when it is finite and
    positive and B <= _BLOCK_CANCEL_MAX N; then it shrinks tau by the
    factor 1 - kappa B / N before `rnn._clipped_rate` shrinks it by its
    own bound, so the update [(eta s c) theta_tilde_ab; (eta s) g_c] has
    exact norm at most eta tau, as in `uoro_step`, with theta_tilde_ab
    the block form above. Otherwise, a negative, non-finite or cancelled
    N, the step folds first and takes ||T_0||^2 as N, which the fold takes
    as one dot of the formed T_0, as `uoro_step` does with its
    theta_tilde (j = 0 needs no shrink either).

    Finiteness, by `uoro_step`'s rules on the formed blocks: a non-finite
    N makes the step fold, and a non-finite ||T_0||^2 raises "rho0" when
    every entry of T_0 is finite and goes on to raise "gradient"
    otherwise; ||g||^2 = (|c| sqrt(N))^2 + ||x_next||^2 ||e||^2 raises
    "gradient"; rho0, rho1, x_tilde and a zero rho are checked by
    `uoro_update`'s own rules (`_memory_scalars`). When the bound
    ||theta_tilde|| / rho0 + ||dtheta_g|| / rho1 on the new theta_tilde
    exceeds half the largest double, the step folds and scans T_0, and
    raises "theta_tilde" on a non-finite entry. The weights are not
    scanned, as in `uoro_step`: each update has norm at most eta tau.

    The learner rounds differently from the `uoro_step` chain, which forms
    both blocks at every step; each of its steps is within a measured
    tolerance of `uoro_step` from the same formed state and signs (see the
    module docstring).
    """
    q, n = dims.q, dims.q + dims.m + 1
    block = _BLOCK_PAIRS
    # W_0 over T_0, so that one product reads both.
    stacked = _aligned_empty(2 * dims.n_ab).reshape(2 * q, n)
    w0, t0 = stacked[:q], stacked[q:]
    w0[:, :q], w0[:, q:] = params.w_a, params.w_b
    t0.fill(0.0)
    t0_flat = t0.reshape(-1)
    spare = _aligned_empty(dims.n_ab).reshape(q, n)
    # W_c transposed, as `Workspace.grad_wc`.
    wc_rows = params.w_c.T.copy()
    w_c = wc_rows.T
    x, x_tilde = np.zeros(q), np.zeros(q)
    # The pending pairs: v_s in row s of `rows`, b_s, w_s, T_0 v_s, and the
    # Gram matrix of the v_s. A step writes its v into row j, where it
    # stays as the new pair's, and [EPS_PROP x_tilde; 0] into row j + 1.
    rows = np.empty((block + 1, n))
    bs, ws, t0_vs = (np.empty((block, q)) for _ in range(3))
    gram = np.empty((block, block))
    # alpha, gamma, ||T_0||^2, sum_s ||b_s|| ||v_s|| and the pending count.
    alpha, gamma, t0_squares, spread, j = 1.0, 0.0, 0.0, 0.0, 0
    kappa = (dims.n_ab + 2 * block * (q + n) + 64) * _UNIT_ROUNDOFF
    nu_norm = math.sqrt(q)
    signs = _signs(q, seed)
    n_steps = 0

    def fold():
        nonlocal alpha, gamma, t0_squares, spread, j
        np.multiply(t0, gamma, out=spare)
        np.add(w0, spare, out=w0)
        np.matmul(ws[:j].T, rows[:j], out=spare)
        np.add(w0, spare, out=w0)
        np.multiply(t0, alpha, out=t0)
        np.matmul(bs[:j].T, rows[:j], out=spare)
        np.add(t0, spare, out=t0)
        t0_squares = float(t0_flat.dot(t0_flat))
        alpha, gamma, spread, j = 1.0, 0.0, 0.0, 0

    def step(u, y_star):
        nonlocal x, alpha, gamma, spread, j, n_steps
        nu = next(signs)
        inputs = rows[j : j + 2]
        v, shift = inputs
        v[:q], v[q:], shift[q:] = x, u, 0.0
        np.multiply(x_tilde, EPS_PROP, out=shift[:q])
        both = inputs @ stacked.T
        z = both[:, q:] * gamma
        z += both[:, :q]
        if j:
            pending = inputs @ rows[:j].T
            z += pending @ ws[:j]
        # z is W_ab v over W_ab [EPS_PROP x_tilde; 0], and their sum the
        # tangent's pre-activation, in which W_b u is the forward pass's.
        z[1] += z[0]
        np.tanh(z, out=z)
        x_next, shifted = z
        y = w_c @ x_next

        e = y_star - y
        loss_value = 0.5 * float(e.dot(e))
        if not math.isfinite(loss_value):
            raise NonFiniteError("loss")
        c = -float((e @ w_c) @ x_tilde)
        j_in, shrink = j, 0.0
        if j:
            ab_squares = (alpha * alpha * t0_squares
                          + 2.0 * alpha * float(np.vdot(bs[:j], t0_vs[:j]))
                          + float(np.vdot(bs[:j], gram[:j, :j] @ bs[:j])))
            bound = abs(alpha) * math.sqrt(t0_squares) + spread
            bound *= bound
            if (0.0 < ab_squares < math.inf
                    and bound <= _BLOCK_CANCEL_MAX * ab_squares):
                shrink = kappa * bound / ab_squares
            else:
                fold()
        if not j:
            ab_squares = t0_squares
            if not math.isfinite(ab_squares) and np.isfinite(t0_flat).all():
                raise NonFiniteError("rho0")
        grad_ab_norm = abs(c) * math.sqrt(ab_squares)
        grad_squares = (grad_ab_norm * grad_ab_norm
                        + float(x_next.dot(x_next)) * (2.0 * loss_value))
        if not math.isfinite(grad_squares):
            raise NonFiniteError("gradient")

        eta_s = _clipped_rate(eta, tau * (1.0 - shrink),
                              math.sqrt(grad_squares), dims.n_params)
        rate = eta_s * c
        gamma -= rate * alpha
        if j:
            ws[:j] -= rate * bs[:j]
        np.add(wc_rows, np.dot(x_next[:, None], (eta_s * e)[None, :]),
               out=wc_rows)

        d = 1.0 - x_next * x_next
        d_norm = math.sqrt(d.dot(d))
        v_squares = float(v.dot(v))
        if d_norm == 0.0 and np.isfinite(v).all():
            dtheta_g_norm = 0.0
        else:
            dtheta_g_norm = d_norm * math.sqrt(v_squares)
        theta_tilde_norm = math.sqrt(ab_squares)
        inv_rho0, rho1 = _memory_scalars(shifted, x_next, theta_tilde_norm,
                                         dtheta_g_norm, nu, nu_norm, x_tilde)
        alpha *= inv_rho0
        if j < j_in:
            # This step folded: v moves to row 0, against the new T_0.
            rows[0] = v
            t0_vs[0] = t0 @ v
        else:
            t0_vs[j] = both[0, q:]
        if j:
            bs[:j] *= inv_rho0
            gram[j, :j] = gram[:j, j] = pending[0]
        np.multiply(nu / rho1, d, out=bs[j])
        ws[j] = 0.0
        gram[j, j] = v_squares
        spread = spread * inv_rho0 + d_norm / rho1 * math.sqrt(v_squares)
        j += 1
        if not (theta_tilde_norm * inv_rho0 + dtheta_g_norm / rho1
                <= _FINITE_BOUND):
            fold()
            if not np.isfinite(t0_flat).all():
                raise NonFiniteError("theta_tilde")
        elif j == block:
            fold()
        x = x_next
        n_steps += 1
        return y, loss_value

    def state() -> tuple[int, RnnParams]:
        w_ab = w0 + gamma * t0 + ws[:j].T @ rows[:j]
        return n_steps, unflatten_params(
            np.concatenate((w_ab.T.ravel(), wc_rows.ravel())), dims)

    step.state = state
    step.fold_period = block
    return step
