"""Tests for RTRL: Jacobian factors against finite differences, the
influence recursion's exactness along frozen trajectories, the exact
per-step gradient, the step against a reference built from the dense
Jacobians, and the learner against the pure chain."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markerpred.harness import CLIP_TAU, HyperChoice
from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    clip_gradient,
    flatten_params,
    forward,
    init_params,
    loss,
    unflatten_params,
)
from markerpred.rtrl import (
    RtrlStepResult,
    RtrlWorkspace,
    init_influence,
    jac_state_theta,
    jac_state_x,
    rtrl_step,
    rtrl_update,
)
from markerpred.signal import (
    build_io,
    fit_normalizer,
    iter_windows,
    synthetic_record,
)
from markerpred.uoro import delta_theta, grad_x_loss
from test_uoro import (
    _assert_diverges_where_pure_chain_diverges,
    _assert_learner_calls_its_kernel_by_name_once_per_step,
    _assert_learner_equals_pure_chain_over_1000_steps,
    _assert_stepped_alternately_equal_stepped_alone,
    _assert_warm_steps_stay_below,
    _learner,
    _quick_record,
)


def _instance(q=4, m=5, p=3, seed=0, sigma=0.4):
    rng = np.random.default_rng(seed)
    dims = RnnDims(q=q, m=m, p=p)
    params = init_params(dims, sigma_init=sigma, seed=seed + 1)
    x = np.tanh(rng.standard_normal(q))
    u = rng.standard_normal(m + 1)
    u[0] = 1.0
    y_star = rng.standard_normal(p)
    return dims, params, x, u, y_star, rng


def _rollout_state(theta, dims, inputs, n_steps):
    """Hidden state after n_steps of the frozen-parameter forward map."""
    params = unflatten_params(theta, dims)
    x = np.zeros(dims.q)
    for k in range(n_steps):
        x = forward(params, x, inputs[k]).x_next
    return x


def _rollout_loss(theta, dims, inputs, targets, n_steps):
    """Loss of the final step of a frozen-parameter rollout."""
    params = unflatten_params(theta, dims)
    x = np.zeros(dims.q)
    for k in range(n_steps):
        cache = forward(params, x, inputs[k])
        x = cache.x_next
    _, value = loss(cache.y, targets[n_steps - 1])
    return value


# -------------------------- jac_state_x -----------------------------------


def test_jac_state_x_zero_weights():
    dims = RnnDims(q=3, m=2, p=2)
    params = RnnParams(
        w_a=np.zeros((3, 3)), w_b=np.zeros((3, 3)), w_c=np.zeros((2, 3))
    )
    assert np.array_equal(jac_state_x(params, np.ones(3)), np.zeros((3, 3)))


def test_jac_state_x_zero_preactivation():
    dims, params, _, _, _, _ = _instance(seed=1)
    assert np.array_equal(jac_state_x(params, np.zeros(dims.q)), params.w_a)


def test_jac_state_x_finite_difference():
    # Oracle: column-wise central differences of tanh(W_a x + W_b u) in x.
    dims, params, x, u, _, _ = _instance(seed=2)
    z = params.w_a @ x + params.w_b @ u
    got = jac_state_x(params, z)
    eps = 1e-6
    fd = np.empty((dims.q, dims.q))
    for j in range(dims.q):
        dx = np.zeros(dims.q)
        dx[j] = eps
        fd[:, j] = (
            np.tanh(params.w_a @ (x + dx) + params.w_b @ u)
            - np.tanh(params.w_a @ (x - dx) + params.w_b @ u)
        ) / (2 * eps)
    assert np.abs(got - fd).max() <= 1e-6


# -------------------------- jac_state_theta -------------------------------


def test_jac_state_theta_zero_inputs():
    dims = RnnDims(q=3, m=2, p=2)
    z = np.random.default_rng(0).standard_normal(3)
    out = jac_state_theta(np.zeros(3), np.zeros(3), z, dims)
    assert np.array_equal(out, np.zeros((3, dims.n_params)))


def test_jac_state_theta_scalar_expansion():
    # q=1: one row [tanh'(z) x, tanh'(z) u_0, tanh'(z) u_1, 0].
    dims = RnnDims(q=1, m=1, p=1)
    x = np.array([0.7])
    u = np.array([1.0, -0.4])
    z = np.array([0.3])
    d = 1.0 - np.tanh(0.3) ** 2
    out = jac_state_theta(x, u, z, dims)
    assert out.shape == (1, 4)
    assert np.allclose(out[0], [d * 0.7, d * 1.0, d * -0.4, 0.0])


def test_jac_state_theta_brute_force():
    # Oracle: perturb every parameter by +-1e-6 and difference the state map.
    dims, params, x, u, _, _ = _instance(seed=3)
    z = params.w_a @ x + params.w_b @ u
    got = jac_state_theta(x, u, z, dims)
    theta = flatten_params(params)
    eps = 1e-6
    fd = np.empty((dims.q, dims.n_params))
    for c in range(dims.n_params):
        shift = np.zeros(dims.n_params)
        shift[c] = eps
        up = unflatten_params(theta + shift, dims)
        down = unflatten_params(theta - shift, dims)
        fd[:, c] = (
            np.tanh(up.w_a @ x + up.w_b @ u) - np.tanh(down.w_a @ x + down.w_b @ u)
        ) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-5 * np.linalg.norm(fd)


# -------------------------- rtrl_step -------------------------------------


def test_rtrl_step_first_step_gradient():
    # With zero incoming influence the gradient is grad_x_loss applied to
    # the parameter Jacobian of the first state update, plus delta_theta.
    dims, params, x, u, y_star, _ = _instance(seed=4)
    result = rtrl_step(params, x, init_influence(dims), u, y_star, eta=1.0, tau=1e12)
    cache = forward(params, x, u)
    e, _ = loss(cache.y, y_star)
    j_next = jac_state_theta(x, u, cache.z, dims)
    expected = grad_x_loss(e, params.w_c) @ j_next + delta_theta(e, cache.x_next, dims)
    got = flatten_params(params) - flatten_params(result.params)
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)
    assert np.array_equal(result.influence, j_next)


def test_rtrl_step_zero_learning_rate_freezes_params():
    dims, params, x, u, y_star, _ = _instance(seed=5)
    result = rtrl_step(params, x, init_influence(dims), u, y_star, eta=0.0, tau=2.0)
    assert np.array_equal(result.params.w_a, params.w_a)
    assert np.array_equal(result.params.w_b, params.w_b)
    assert np.array_equal(result.params.w_c, params.w_c)
    assert not np.array_equal(result.influence, init_influence(dims))
    assert np.array_equal(result.y, forward(params, x, u).y)


def test_rtrl_influence_matches_state_sensitivity():
    # Exactness oracle: after 3 frozen steps, J equals the central
    # finite difference of x_3 in theta, parameter by parameter.
    dims, params, _, _, _, rng = _instance(seed=6)
    n_steps = 3
    inputs = rng.standard_normal((n_steps, dims.m + 1))
    inputs[:, 0] = 1.0
    targets = rng.standard_normal((n_steps, dims.p))

    x = np.zeros(dims.q)
    influence = init_influence(dims)
    for k in range(n_steps):
        result = rtrl_step(params, x, influence, inputs[k], targets[k], eta=0.0, tau=2.0)
        x, influence = result.x, result.influence

    theta = flatten_params(params)
    eps = 1e-6
    fd = np.empty((dims.q, dims.n_params))
    for c in range(dims.n_params):
        shift = np.zeros(dims.n_params)
        shift[c] = eps
        fd[:, c] = (
            _rollout_state(theta + shift, dims, inputs, n_steps)
            - _rollout_state(theta - shift, dims, inputs, n_steps)
        ) / (2 * eps)
    assert np.linalg.norm(influence - fd) <= 1e-5 * np.linalg.norm(fd)


def test_rtrl_gradient_matches_unrolled_finite_difference():
    # Oracle: the step-5 gradient under frozen parameters equals the full
    # derivative of the fifth step's loss through the unrolled network.
    dims, params, _, _, _, rng = _instance(q=3, m=6, p=3, seed=7)
    n_steps = 5
    inputs = rng.standard_normal((n_steps, dims.m + 1))
    inputs[:, 0] = 1.0
    targets = rng.standard_normal((n_steps, dims.p))

    x = np.zeros(dims.q)
    influence = init_influence(dims)
    for k in range(n_steps - 1):
        result = rtrl_step(params, x, influence, inputs[k], targets[k], eta=0.0, tau=2.0)
        x, influence = result.x, result.influence
    final = rtrl_step(
        params, x, influence, inputs[-1], targets[-1], eta=1.0, tau=1e12
    )
    got = flatten_params(params) - flatten_params(final.params)

    theta = flatten_params(params)
    eps = 1e-6
    fd = np.empty(dims.n_params)
    for c in range(dims.n_params):
        shift = np.zeros(dims.n_params)
        shift[c] = eps
        fd[c] = (
            _rollout_loss(theta + shift, dims, inputs, targets, n_steps)
            - _rollout_loss(theta - shift, dims, inputs, targets, n_steps)
        ) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-5 * np.linalg.norm(fd)


def test_rtrl_step_clips_update():
    dims, params, x, u, y_star, _ = _instance(seed=8)
    y_star = y_star + 100.0
    result = rtrl_step(params, x, init_influence(dims), u, y_star, eta=1.0, tau=2.0)
    update = flatten_params(params) - flatten_params(result.params)
    assert np.linalg.norm(update) <= 2.0 * (1 + 1e-12)


def test_rtrl_step_nonfinite_loss_detected():
    dims = RnnDims(q=4, m=3, p=2)
    params = init_params(dims, sigma_init=1e160, seed=1)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        rtrl_step(
            params, np.zeros(4), init_influence(dims), np.ones(4), np.zeros(2),
            eta=0.1, tau=2.0,
        )
    assert info.value.quantity == "loss"


def test_rtrl_step_rejects_wrong_influence_shape():
    dims, params, x, u, y_star, _ = _instance(seed=9)
    with pytest.raises(ValueError):
        rtrl_step(params, x, np.zeros((dims.q, 3)), u, y_star, eta=0.1, tau=2.0)


def test_init_influence_zero():
    dims = RnnDims(q=5, m=4, p=3)
    J = init_influence(dims)
    assert J.shape == (5, dims.n_params)
    assert not J.any()


# ------------------ rtrl_step against the dense Jacobians ------------------


def _formed_gradient(params, x, influence, u, y_star):
    """Recursions (i) and (ii) with the dense q x |W| parameter Jacobian:
    the forward pass, the loss, the new influence and the gradient as a
    |W| vector, each checked for finiteness."""
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

    new_influence = jac_state_x(params, cache.z) @ influence
    new_influence += jac_state_theta(x, u, cache.z, dims)
    if not np.isfinite(new_influence).all():
        raise NonFiniteError("influence")

    grad = grad_x_loss(e, params.w_c) @ new_influence
    grad += delta_theta(e, cache.x_next, dims)
    if not np.isfinite(grad).all() or np.isinf(np.linalg.norm(grad)):
        raise NonFiniteError("gradient")
    return cache, loss_value, new_influence, grad


def _result(params, update, cache, loss_value, new_influence):
    """The step result of the SGD update theta - update, flattened."""
    theta = flatten_params(params) - update
    return RtrlStepResult(
        params=unflatten_params(theta, params.dims),
        x=cache.x_next,
        influence=new_influence,
        y=cache.y,
        loss=loss_value,
    )


def _reference_rtrl_step(params, x, influence, u, y_star, eta, tau):
    """The formed gradient clipped by `clip_gradient`, then a
    flatten/unflatten SGD update: an oracle that `rtrl_step` meets one
    step at a time within _ORACLE_RTOL, not bit for bit when it clips."""
    cache, loss_value, new_influence, grad = _formed_gradient(
        params, x, influence, u, y_star)
    return _result(params, eta * clip_gradient(grad, tau), cache, loss_value,
                   new_influence)


def _closed_form_rtrl_step(params, x, influence, u, y_star, eta, tau):
    """The step as `rtrl_step`'s docstring states its clip rule: the formed
    gradient, ||g|| = sqrt(g . g), tau shrunk by (|W| + 32) 2^-53 and the
    update (eta s) g subtracted from the flat weights. The reference that
    `rtrl_step` must match byte for byte."""
    cache, loss_value, new_influence, grad = _formed_gradient(
        params, x, influence, u, y_star)
    grad_norm = math.sqrt(float(grad @ grad))
    tau_shrunk = tau * (1.0 - (params.dims.n_params + 32) * 2.0 ** -53)
    eta_s = eta * (tau_shrunk / grad_norm) if grad_norm > tau_shrunk else eta
    return _result(params, grad * eta_s, cache, loss_value, new_influence)


def _assert_same_step(got, want):
    """Byte equality of two step results, signs of zeros included."""
    for name in ("w_a", "w_b", "w_c"):
        assert (getattr(got.params, name).tobytes()
                == getattr(want.params, name).tobytes()), name
    _assert_same_state(got, want)


def _assert_same_state(got, want):
    for name in ("x", "y", "influence"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.loss == want.loss


def _oracle_gap(got, oracle):
    """The relative gap (largest entry of the difference over the largest
    entry) of a step's new weights from the formed-gradient oracle's, run
    from the same input state. The clip moves nothing else, so the state,
    prediction, influence and loss must be equal."""
    _assert_same_state(got, oracle)
    new, want = flatten_params(got.params), flatten_params(oracle.params)
    return np.abs(new - want).max() / np.abs(want).max()


# Largest relative gap (`_oracle_gap`) of a step's new weights from the
# formed-gradient oracle's, run from the step's own input state. The oracle
# clips at tau, the step at tau shrunk by (|W| + 32) 2^-53. Measured when
# clipping: 2.2e-13 over the chained steps below at q = L = 25 (|W| =
# 2,600), 4.0e-14 at q = L = 10, and 1.4e-15 on random states like the
# property test's; 0 when not clipping, where both updates are eta g. The
# bound allows about 10 times the largest.
_ORACLE_RTOL = 2e-12


# The shipped clip threshold clips most steps; at eta = 0.01 no gradient
# norm on these streams comes near 1e3, so nothing is clipped.
@pytest.mark.parametrize("q, L", [(10, 10), (25, 25)])
@pytest.mark.parametrize("eta, tau, clips", [(0.1, CLIP_TAU, True), (0.01, 1e3, False)])
def test_rtrl_step_matches_reference_over_chained_steps(q, L, eta, tau, clips):
    # Each step equals the closed form, chained on its own, byte for byte,
    # and the formed-gradient oracle run from the step's own state within
    # _ORACLE_RTOL, or bit for bit when nothing clips.
    record = synthetic_record(duration_s=200.0, seed=3)
    normalizer = fit_normalizer(record, range(300))
    samples = [build_io(record, normalizer, L, 5, n) for n in range(1000)]
    dims = RnnDims(q=q, m=samples[0].u.size - 1, p=samples[0].target.size)
    state = closed_state = (init_params(dims, 0.02, 7), np.zeros(q),
                            init_influence(dims))
    n_clipped = 0
    gap = 0.0
    for sample in samples:
        got = rtrl_step(*state, sample.u, sample.target, eta, tau)
        closed = _closed_form_rtrl_step(*closed_state, sample.u, sample.target,
                                        eta, tau)
        oracle = _reference_rtrl_step(*state, sample.u, sample.target, eta, tau)
        _assert_same_step(got, closed)
        gap = max(gap, _oracle_gap(got, oracle))
        update = np.linalg.norm(flatten_params(state[0])
                                - flatten_params(got.params))
        n_clipped += bool(update >= eta * tau * (1 - 1e-9))
        state = (got.params, got.x, got.influence)
        closed_state = (closed.params, closed.x, closed.influence)
    assert gap <= (_ORACLE_RTOL if clips else 0.0), gap
    assert (n_clipped > 0) == clips


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 5),
    m=st.integers(1, 6),
    p=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    tau=st.sampled_from([1e-3, CLIP_TAU, 1e12]),
)
def test_rtrl_step_property_equals_reference_and_leaves_inputs(q, m, p, seed, tau):
    dims, params, x, _, _, rng = _instance(q=q, m=m, p=p, seed=seed % 2**31)
    influence = rng.standard_normal((q, dims.n_params))
    inputs = rng.uniform(-1.0, 1.0, size=(4, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(4, p))
    ref = (params, x, influence)
    for u, y_star in zip(inputs, targets):
        arrays = [params.w_a, params.w_b, params.w_c, x, influence, u, y_star]
        before = [a.copy() for a in arrays]
        got = rtrl_step(params, x, influence, u, y_star, eta=0.1, tau=tau)
        for old, now in zip(before, arrays):
            np.testing.assert_array_equal(now, old)
        want = _closed_form_rtrl_step(*ref, u, y_star, eta=0.1, tau=tau)
        _assert_same_step(got, want)
        oracle = _reference_rtrl_step(params, x, influence, u, y_star,
                                      eta=0.1, tau=tau)
        assert _oracle_gap(got, oracle) <= _ORACLE_RTOL
        params, x, influence = got.params, got.x, got.influence
        ref = (want.params, want.x, want.influence)


def _outcome(step, *args, **kwargs):
    """A step's result, or the quantity of the NonFiniteError it raised."""
    try:
        with np.errstate(all="ignore"):
            return step(*args, **kwargs)
    except NonFiniteError as err:
        return err.quantity


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300, np.inf])
def test_rtrl_step_huge_influence_matches_reference(scale):
    # Past about 1e154 the gradient's squared norm overflows although the
    # gradient is finite; the step must then raise "gradient" as the
    # closed form and the oracle do, and pass where they pass: byte for
    # byte with the closed form, within _ORACLE_RTOL of the oracle.
    dims, params, x, u, y_star, rng = _instance(seed=10)
    influence = scale * rng.standard_normal((dims.q, dims.n_params))
    got, closed, oracle = (
        _outcome(step, params, x, influence, u, y_star, eta=0.1, tau=2.0)
        for step in (rtrl_step, _closed_form_rtrl_step, _reference_rtrl_step)
    )
    if isinstance(got, str):
        assert got == closed == oracle
    else:
        _assert_same_step(got, closed)
        assert _oracle_gap(got, oracle) <= _ORACLE_RTOL


# The clip rule holds where the step's rounding is relative; see rtrl_step.
_RULE_RANGE = (2.0 ** -1000, 2.0 ** 1000)
_TINY_NORM = 2.0 ** -480


@st.composite
def _clip_rule_cases(draw):
    """A state whose update the step subtracts exactly, so that the new
    weights give it back. Unit 0 reads unit 1's old state through
    W_a[0, 1] = a, with x_1 = 0 and no input weights, so its new state is
    tanh(0) = 0 and d_0 = 1; units 1 and up have a bias b alone, W_c holds
    w at (0, 0) alone, so y = 0, e = y* and the gradient is
    -e_0 w (a J[1] + [x; u] in W_ab's row 0) - x_next e^T on the W_c block.
    Row 1 of the influence J is 0 at the non-zero weights, where the
    update is then 0: every other weight is 0 and becomes minus its
    update. The other rows of J enter only times 0. The entries of J's
    row 1, x, y* and u span tiny to huge magnitudes, with exact zeros; tau
    is near the gradient norm, so that about half the steps clip; the rate
    runs from 2^-61 to 2^60."""

    def vector(size, exponent):
        return np.array([
            math.ldexp(draw(st.sampled_from([0.0, 1.0, -1.0]))
                       * draw(st.floats(0.5, 1.0)),
                       exponent - draw(st.integers(0, 40)))
            for _ in range(size)
        ])

    q, m, p = draw(st.integers(2, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    dims = RnnDims(q=q, m=m, p=p)
    w_a = np.zeros((q, q))
    w_a[0, 1] = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-20, 20)))
    w_b = np.zeros((q, m + 1))
    w_b[1:, 0] = draw(st.floats(-3.0, 3.0))
    w_c = np.zeros((p, q))
    w_c[0, 0] = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-20, 20)))
    params = RnnParams(w_a=w_a, w_b=w_b, w_c=w_c)
    k_e = draw(st.integers(-560, 490))
    y_star = vector(p, k_e)
    y_star[0] = math.copysign(math.ldexp(draw(st.floats(0.5, 1.0)), k_e),
                              draw(st.sampled_from([1.0, -1.0])))
    x = vector(q, draw(st.integers(-560, 500)))
    x[1] = 0.0
    influence = np.random.default_rng(draw(st.integers(0, 2**32 - 1))
                                      ).standard_normal((q, dims.n_params))
    influence[1] = vector(dims.n_params, draw(st.integers(-600, 480)))
    influence[1, q] = 0.0                        # at W_a[0, 1]
    influence[1, q * q + 1 : q * (q + 1)] = 0.0  # at W_b[1:, 0]
    influence[1, dims.n_ab] = 0.0                # at W_c[0, 0]
    u = np.concatenate(([1.0], vector(m, draw(st.integers(-560, 500)))))
    eta = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-60, 60)))
    tau_scale = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-4, 4)))
    return params, x, influence, u, y_star, eta, tau_scale


@settings(max_examples=400, deadline=None)
@given(_clip_rule_cases())
def test_rtrl_step_update_never_exceeds_eta_tau(case):
    # The update the step subtracts, (eta s) g as formed in doubles, has
    # an exact norm of at most eta * tau. Here the weights give it back
    # exactly.
    params, x, influence, u, y_star, eta, tau_scale = case
    with np.errstate(all="ignore"):
        try:
            grad = _formed_gradient(params, x, influence, u, y_star)[3]
        except NonFiniteError:
            grad = None
    assume(grad is not None)
    grad_norm = math.hypot(*grad)
    assume(grad_norm < 2.0 ** 511)
    tau = grad_norm * tau_scale if grad_norm else 1.0
    eta_s = eta * min(1.0, tau / grad_norm) if grad_norm else eta
    low, high = _RULE_RANGE
    assume(grad_norm == 0.0 or grad_norm >= _TINY_NORM)
    assume(all(low <= v <= high for v in (tau, eta * tau, eta_s)))
    got = rtrl_step(params, x, influence, u, y_star, eta, tau)
    before = flatten_params(params).tolist()
    after = flatten_params(got.params).tolist()
    squares = sum((Fraction(b) - Fraction(a)) ** 2
                  for b, a in zip(before, after))
    assert squares <= (Fraction(eta) * Fraction(tau)) ** 2


def test_rtrl_step_gradient_norm_overflow_raises():
    # Influence entries of about 1e160 give a gradient whose entries are
    # finite and whose squared norm overflows. Clipping by tau / inf would
    # scale it to a zero update and carry on silently; the step raises
    # "gradient" instead, with a workspace and without one. Only numpy's
    # dot warns about the overflow.
    dims, params, x, u, y_star, rng = _instance(seed=10)
    influence = 1e160 * rng.standard_normal((dims.q, dims.n_params))
    for workspace in (None, RtrlWorkspace(dims)):
        kwargs = {} if workspace is None else {"workspace": workspace}
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            rtrl_step(params, x, influence, u, y_star, eta=0.1, tau=CLIP_TAU,
                      **kwargs)
        assert info.value.quantity == "gradient"
    # The gradient the step formed is finite entry by entry.
    workspace = RtrlWorkspace(dims)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        rtrl_step(params, x, influence, u, y_star, eta=0.1, tau=CLIP_TAU,
                  workspace=workspace)
    assert np.isfinite(workspace.grad).all()
    assert math.isinf(sum(g * g for g in workspace.grad.tolist()))


def test_rtrl_step_finds_nonfinite_influence_behind_zero_multiplier():
    # The step checks the new influence through the gradient norm alone. Here
    # its only non-finite entry sits in row r, whose gradient multiplier is
    # exactly 0 (W_c's column r is zero): the step still sees it, because
    # 0 * inf leaves a NaN in the gradient. A BLAS that skipped zero
    # multipliers would hide it.
    q, m, p, r, c = 4, 3, 2, 1, 6
    dims = RnnDims(q=q, m=m, p=p)
    rng = np.random.default_rng(3)
    w_a = np.zeros((q, q))
    w_a[r] = 0.5
    w_b = rng.standard_normal((q, m + 1))
    w_b[r] = 0.0
    w_c = rng.standard_normal((p, q))
    w_c[:, r] = 0.0
    params = RnnParams(w_a=w_a, w_b=w_b, w_c=w_c)
    x = np.zeros(q)
    u = np.concatenate([[1.0], rng.standard_normal(m)])
    y_star = rng.standard_normal(p)
    # Row r of the state Jacobian sums four 0.5 * 1.5e308 terms, which
    # overflow; every other row is zero, and 0 * 1.5e308 is 0.
    influence = np.zeros((q, dims.n_params))
    influence[:, c] = 1.5e308
    with np.errstate(over="ignore"):
        new = jac_state_x(params, forward(params, x, u).z) @ influence
    assert np.isinf(new[r, c])
    assert np.isfinite(np.delete(new, r, axis=0)).all()
    assert (-(y_star - forward(params, x, u).y) @ w_c)[r] == 0.0
    for step, workspace in ((rtrl_step, None), (rtrl_step, RtrlWorkspace(dims)),
                            (_closed_form_rtrl_step, None),
                            (_reference_rtrl_step, None)):
        kwargs = {} if workspace is None else {"workspace": workspace}
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            step(params, x, influence, u, y_star, eta=0.1, tau=CLIP_TAU,
                 **kwargs)
        assert info.value.quantity == "influence"


def test_rtrl_step_rejects_workspace_of_another_shape():
    dims, params, x, u, y_star, _ = _instance()
    other = RnnDims(q=dims.q, m=dims.m + 1, p=dims.p)
    with pytest.raises(ValueError, match="workspace is for"):
        rtrl_step(params, x, init_influence(dims), u, y_star, eta=0.1,
                  tau=CLIP_TAU, workspace=RtrlWorkspace(other))


@pytest.mark.parametrize("bad", ["x", "u", "y_star"])
@pytest.mark.parametrize("in_place", [False, True])
def test_rtrl_step_rejects_inputs_of_another_shape(bad, in_place):
    # A one-entry y_star would broadcast against y without the check.
    dims, params, x, u, y_star, _ = _instance()
    args = {"x": x, "u": u, "y_star": y_star}
    args[bad] = args[bad][:1]
    kwargs = {"workspace": RtrlWorkspace(dims)} if in_place else {}
    with pytest.raises(ValueError, match="x, u and y_star have shapes"):
        rtrl_step(params, args["x"], init_influence(dims), args["u"],
                  args["y_star"], eta=0.1, tau=CLIP_TAU, **kwargs)


def test_learner_steps_update_weights_in_place_and_alternate_influence():
    # Every step returns the workspace's one set of weights. The new
    # influence goes into the buffer the input influence is not in:
    # init_influence's is in neither, so the buffers run 0, 1, 0, 1, ...
    dims, params, x, u, y_star, _ = _instance()
    workspace = RtrlWorkspace(dims)
    influence = init_influence(dims)
    for step in range(6):
        out = rtrl_step(params, x, influence, u, y_star, eta=0.1,
                        tau=CLIP_TAU, workspace=workspace)
        assert out.params is workspace.weights
        assert out.influence is workspace.influence[step % 2]
        params, x, influence = out.params, out.x, out.influence


def test_pure_call_then_learner_step_on_the_same_inputs_agree():
    # |W| = 75 is odd, so a buffer after the first would start 8 bytes off
    # a 16-byte boundary unless the workspace aligns it. The pure call
    # copies the learner's weights and must leave them as they were; the
    # learner's first step copies init_params' matrices and leaves them.
    dims, params, x, u, y_star, _ = _instance(q=5, m=7, p=2)
    initial = params
    before = flatten_params(initial).tobytes()
    workspace = RtrlWorkspace(dims)
    influence = init_influence(dims)
    for _ in range(3):
        pure = rtrl_step(params, x, influence, u, y_star, eta=0.1, tau=CLIP_TAU)
        learner = rtrl_step(params, x, influence, u, y_star, eta=0.1,
                            tau=CLIP_TAU, workspace=workspace)
        _assert_same_step(pure, learner)
        params, x, influence = learner.params, learner.x, learner.influence
    assert flatten_params(initial).tobytes() == before


@pytest.mark.parametrize("eta, tau", [(-0.1, CLIP_TAU), (-1e-300, CLIP_TAU),
                                      (-np.inf, CLIP_TAU), (np.nan, CLIP_TAU),
                                      (0.1, 0.0), (0.1, np.nan)])
def test_rtrl_step_rejects_negative_learning_rate(eta, tau):
    # The rate and the clip threshold are checked on entry, before the
    # forward pass: these weights would make the loss overflow.
    dims = RnnDims(q=4, m=3, p=2)
    params = init_params(dims, sigma_init=1e160, seed=1)
    with pytest.raises(ValueError, match="need eta >= 0 and tau > 0"):
        rtrl_step(params, np.zeros(4), init_influence(dims), np.ones(4),
                  np.zeros(2), eta=eta, tau=tau)


@pytest.mark.parametrize("q, L", [(1, 1), (5, 5), (8, 3)])
def test_update_kernel_after_forward_is_the_pure_step(q, L):
    # rnn.forward then rtrl_update, chained as the harness's learner runs
    # them (one workspace, the influence starting from a zeroed buffer of
    # it, the first step from init_params' C-order matrices), return the
    # loss as a float and leave the weights and influence of the pure
    # rtrl_step chain, byte for byte; the influence alternates between the
    # workspace's two buffers.
    record = synthetic_record(duration_s=200.0, seed=3)
    normalizer = fit_normalizer(record, range(300))
    samples = [build_io(record, normalizer, L, 5, n) for n in range(200)]
    dims = RnnDims(q=q, m=samples[0].u.size - 1, p=samples[0].target.size)
    workspace = RtrlWorkspace(dims)
    influence = workspace.influence[1]
    influence.fill(0.0)
    params = init_params(dims, 0.02, 7)
    x = np.zeros(q)
    state = (params, x, init_influence(dims))
    for i, sample in enumerate(samples):
        cache = forward(params, x, sample.u)
        loss_value = rtrl_update(workspace, params, x, influence, sample.u,
                                 sample.target, cache.x_next, cache.y, 0.1,
                                 CLIP_TAU)
        want = rtrl_step(*state, sample.u, sample.target, 0.1, CLIP_TAU)
        assert type(loss_value) is float
        influence = workspace.influence[workspace.next_slot(influence)]
        assert influence is workspace.influence[i % 2]
        _assert_same_step(
            RtrlStepResult(workspace.weights, cache.x_next, influence,
                           cache.y, loss_value), want)
        params, x = workspace.weights, cache.x_next
        state = (want.params, want.x, want.influence)


# ------------------------------ learner -------------------------------------


def test_online_learner_equals_direct_step_chain():
    # The reference chains rtrl_step with the initialization that
    # run_sequence_online used before it drove it through the learner.
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=5, q=5)
    record = _quick_record(seed=4)
    samples = iter_windows(record, fit_normalizer(record, range(300)),
                           hyper.L, 4, range(300))
    m, p, seed = 3 * record.n_markers * hyper.L, 3 * record.n_markers, 11
    step = _learner("rtrl", hyper, m, p, seed)
    dims = RnnDims(q=hyper.q, m=m, p=p)
    params, x = init_params(dims, hyper.sigma_init, seed), np.zeros(hyper.q)
    influence = init_influence(dims)
    for sample in samples:
        y, loss_value = step(sample.u, sample.target)
        want = rtrl_step(params, x, influence, sample.u, sample.target,
                         eta=hyper.eta, tau=CLIP_TAU)
        params, x, influence = want.params, want.x, want.influence
        np.testing.assert_array_equal(y, want.y)
        np.testing.assert_array_equal(loss_value, want.loss)


# The shipped clip threshold clips most steps; at eta = 0.01 no gradient
# norm on this stream comes near 1e3, so nothing is clipped.
@pytest.mark.parametrize("q, L", [(5, 5), (8, 3)])
@pytest.mark.parametrize("eta, tau, clips", [
    (0.1, CLIP_TAU, True), (0.01, 1e3, False),
])
def test_in_place_learner_equals_pure_chain_over_1000_steps(q, L, eta, tau,
                                                            clips):
    _assert_learner_equals_pure_chain_over_1000_steps("rtrl", q, L, eta, tau,
                                                      clips)


def test_learners_stepped_alternately_equal_learners_stepped_alone():
    _assert_stepped_alternately_equal_stepped_alone(
        "rtrl", HyperChoice(eta=0.1, sigma_init=0.02, L=5, q=5))


def test_in_place_learner_diverges_where_pure_chain_diverges(monkeypatch):
    # A 1e160 mm spike overflows the loss of the sample that targets it
    # (step 400 - L - h + 1).
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=5, q=5)
    _assert_diverges_where_pure_chain_diverges(
        monkeypatch, "rtrl", hyper, None, 1e160, 392, "loss")


def test_learner_calls_its_kernel_by_name_once_per_step(monkeypatch):
    _assert_learner_calls_its_kernel_by_name_once_per_step(
        monkeypatch, "rtrl", HyperChoice(eta=0.1, sigma_init=0.02, L=5, q=5))


def test_learner_step_allocates_no_weight_sized_temporary():
    # After warm-up a learner step writes its |W|-sized results into its
    # workspace. The peak allocation must stay below a tenth of the
    # influence (about 100 KB is reached at q = L = 25, the strided add
    # into the influence's diagonal buffers), so that any influence-sized
    # temporary brought back into a step fails here.
    dims = RnnDims(q=25, m=9 * 25, p=9)
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=25, q=25)
    step = _learner("rtrl", hyper, dims.m, dims.p, seed=0)
    assert step.fold_period == 1
    _assert_warm_steps_stay_below(step, dims.m, dims.p,
                                  dims.q * dims.n_params * 8 // 10,
                                  n_measured=16)
