"""Tests for RTRL: Jacobian factors against finite differences, the
influence recursion's exactness along frozen trajectories, the exact
per-step gradient, and the step against a reference built from the dense
Jacobians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markerpred.harness import CLIP_TAU
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
)
from markerpred.signal import build_io, fit_normalizer, synthetic_record
from markerpred.uoro import delta_theta, grad_x_loss


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


def _reference_rtrl_step(params, x, influence, u, y_star, eta, tau):
    """Recursions (i) and (ii) with the dense q x |W| parameter Jacobian
    and a flatten/unflatten SGD update: the reference that `rtrl_step` must
    match bit for bit."""
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
    if not np.isfinite(grad).all():
        raise NonFiniteError("gradient")

    grad = clip_gradient(grad, tau)
    theta = flatten_params(params) - eta * grad
    new_params = unflatten_params(theta, dims)

    return RtrlStepResult(
        params=new_params,
        x=cache.x_next,
        influence=new_influence,
        y=cache.y,
        loss=loss_value,
    )


def _assert_same_step(got, want):
    for name in ("w_a", "w_b", "w_c"):
        np.testing.assert_array_equal(
            getattr(got.params, name), getattr(want.params, name)
        )
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.y, want.y)
    np.testing.assert_array_equal(got.influence, want.influence)
    assert got.loss == want.loss


# The shipped clip threshold clips most steps; at eta = 0.01 no gradient
# norm on these streams comes near 1e3, so nothing is clipped.
@pytest.mark.parametrize("q, L", [(10, 10), (25, 25)])
@pytest.mark.parametrize("eta, tau, clips", [(0.1, CLIP_TAU, True), (0.01, 1e3, False)])
def test_rtrl_step_matches_reference_over_chained_steps(q, L, eta, tau, clips):
    record = synthetic_record(duration_s=200.0, seed=3)
    normalizer = fit_normalizer(record, range(300))
    samples = [build_io(record, normalizer, L, 5, n) for n in range(1000)]
    dims = RnnDims(q=q, m=samples[0].u.size - 1, p=samples[0].target.size)
    params = ref_params = init_params(dims, 0.02, 7)
    x = ref_x = np.zeros(q)
    influence = ref_influence = init_influence(dims)
    n_clipped = 0
    for sample in samples:
        got = rtrl_step(params, x, influence, sample.u, sample.target, eta, tau)
        want = _reference_rtrl_step(ref_params, ref_x, ref_influence, sample.u,
                                    sample.target, eta, tau)
        np.testing.assert_array_equal(got.y, want.y)
        update = np.linalg.norm(flatten_params(ref_params)
                                - flatten_params(want.params))
        n_clipped += bool(update >= eta * tau * (1 - 1e-9))
        params, x, influence = got.params, got.x, got.influence
        ref_params, ref_x, ref_influence = want.params, want.x, want.influence
    _assert_same_step(got, want)
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
        want = _reference_rtrl_step(*ref, u, y_star, eta=0.1, tau=tau)
        _assert_same_step(got, want)
        params, x, influence = got.params, got.x, got.influence
        ref = (want.params, want.x, want.influence)


@pytest.mark.parametrize("scale", [1e150, 1e160, 1e300, np.inf])
def test_rtrl_step_huge_influence_matches_reference(scale):
    # Past about 1e154 the gradient's squared norm overflows although the
    # gradient is finite; the step must then scan it and clip to zero as
    # the reference does, and raise where the reference raises.
    dims, params, x, u, y_star, rng = _instance(seed=10)
    influence = scale * rng.standard_normal((dims.q, dims.n_params))
    outcomes = []
    for step in (rtrl_step, _reference_rtrl_step):
        try:
            with np.errstate(all="ignore"):
                result = step(params, x, influence, u, y_star, eta=0.1, tau=2.0)
        except NonFiniteError as err:
            outcomes.append(err.quantity)
        else:
            outcomes.append([flatten_params(result.params).tobytes(),
                             result.influence.tobytes()])
    assert outcomes[0] == outcomes[1]


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


def test_learner_steps_alternate_between_the_workspace_slots():
    # Each step writes its influence, gradient and weights into the slot
    # its weights are not in: init_params' are in neither, so the slots run
    # 0, 1, 0, 1, ...
    dims, params, x, u, y_star, _ = _instance()
    workspace = RtrlWorkspace(dims)
    influence = init_influence(dims)
    for step in range(6):
        out = rtrl_step(params, x, influence, u, y_star, eta=0.1,
                        tau=CLIP_TAU, workspace=workspace)
        assert out.params is workspace.weights[step % 2]
        assert out.influence is workspace.influence[step % 2]
        params, x, influence = out.params, out.x, out.influence


def test_pure_call_then_learner_step_on_the_same_inputs_agree():
    # |W| = 75 is odd, so slot 1 starts 8 bytes off a 16-byte boundary.
    dims, params, x, u, y_star, _ = _instance(q=5, m=7, p=2)
    workspace = RtrlWorkspace(dims)
    influence = init_influence(dims)
    for _ in range(3):
        pure = rtrl_step(params, x, influence, u, y_star, eta=0.1, tau=CLIP_TAU)
        learner = rtrl_step(params, x, influence, u, y_star, eta=0.1,
                            tau=CLIP_TAU, workspace=workspace)
        _assert_same_step(pure, learner)
        params, x, influence = learner.params, learner.x, learner.influence


@pytest.mark.parametrize("eta", [-0.1, -1e-300])
def test_rtrl_step_rejects_negative_learning_rate(eta):
    dims, params, x, u, y_star, _ = _instance()
    with pytest.raises(ValueError, match="need eta >= 0"):
        rtrl_step(params, x, init_influence(dims), u, y_star, eta=eta,
                  tau=CLIP_TAU)
