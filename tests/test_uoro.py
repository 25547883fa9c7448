"""Tests for the UORO trainer: closed-form gradient pieces against
finite-difference oracles, the frozen step order, estimator properties, and
the step against a reference composed from the closed forms."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markerpred import uoro
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
    tanh_prime,
    unflatten_params,
)
from markerpred.rtrl import jac_state_theta, jac_state_x
from markerpred.signal import build_io, fit_normalizer, synthetic_record
from markerpred.uoro import (
    EPS_NORM,
    EPS_PROP,
    UoroHyper,
    UoroMemory,
    UoroStepResult,
    UoroWorkspace,
    delta_theta,
    delta_theta_g,
    delta_theta_g_norm,
    grad_x_loss,
    init_memory,
    tangent_propagate,
    uoro_step,
)


def _instance(q=5, m=7, p=4, seed=0, sigma=0.4):
    rng = np.random.default_rng(seed)
    dims = RnnDims(q=q, m=m, p=p)
    params = init_params(dims, sigma_init=sigma, seed=seed + 1)
    x = np.tanh(rng.standard_normal(q))
    u = rng.standard_normal(m + 1)
    u[0] = 1.0
    y_star = rng.standard_normal(p)
    return dims, params, x, u, y_star, rng


def _hyper(dims, eta=0.1, tau=2.0):
    return UoroHyper(eta=eta, tau=tau, sigma_init=0.02, L=2, q=dims.q)


# -------------------------- grad_x_loss -----------------------------------


def test_grad_x_loss_zero_error():
    w_c = np.random.default_rng(0).standard_normal((3, 5))
    assert np.array_equal(grad_x_loss(np.zeros(3), w_c), np.zeros(5))


def test_grad_x_loss_identity_output():
    e = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(grad_x_loss(e, np.eye(3)), -e)


def test_grad_x_loss_finite_difference():
    # Oracle: central differences of L(x) = 0.5 ||y* - W_c x||^2 in x.
    rng = np.random.default_rng(4)
    w_c = rng.standard_normal((4, 6))
    x = rng.standard_normal(6)
    y_star = rng.standard_normal(4)
    e, _ = loss(w_c @ x, y_star)
    got = grad_x_loss(e, w_c)
    eps = 1e-6
    fd = np.empty(6)
    for i in range(6):
        dx = np.zeros(6)
        dx[i] = eps
        _, up = loss(w_c @ (x + dx), y_star)
        _, down = loss(w_c @ (x - dx), y_star)
        fd[i] = (up - down) / (2 * eps)
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


def test_grad_x_loss_shape_mismatch():
    with pytest.raises(ValueError):
        grad_x_loss(np.zeros(3), np.zeros((4, 5)))


# -------------------------- delta_theta -----------------------------------


def test_delta_theta_zero_error():
    dims = RnnDims(q=4, m=3, p=2)
    out = delta_theta(np.zeros(2), np.ones(4), dims)
    assert np.array_equal(out, np.zeros(dims.n_params))


def test_delta_theta_scalar_case():
    dims = RnnDims(q=1, m=1, p=1)
    out = delta_theta(np.array([2.0]), np.array([3.0]), dims)
    assert out[-1] == -6.0
    assert np.array_equal(out[:-1], np.zeros(dims.n_params - 1))


def test_delta_theta_finite_difference():
    # Oracle: perturb each W_c entry by +-1e-6 in the measurement loss
    # while the state path stays fixed.
    dims, params, x, u, y_star, _ = _instance(seed=2)
    cache = forward(params, x, u)
    e, _ = loss(cache.y, y_star)
    got = delta_theta(e, cache.x_next, dims)

    eps = 1e-6
    fd = np.zeros(dims.n_params)
    theta = flatten_params(params)
    for c in range(dims.n_ab, dims.n_params):
        for sign, bucket in ((1.0, 0), (-1.0, 1)):
            shifted = theta.copy()
            shifted[c] += sign * eps
            w_c = unflatten_params(shifted, dims).w_c
            _, value = loss(w_c @ cache.x_next, y_star)
            fd[c] += (value if bucket == 0 else -value)
        fd[c] /= 2 * eps
    assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)
    assert np.array_equal(got[: dims.n_ab], np.zeros(dims.n_ab))


def test_delta_theta_shape_mismatch():
    dims = RnnDims(q=4, m=3, p=2)
    with pytest.raises(ValueError):
        delta_theta(np.zeros(3), np.ones(4), dims)


# -------------------------- delta_theta_g ---------------------------------


def _state_map(theta, dims, x, u):
    params = unflatten_params(theta, dims)
    return np.tanh(params.w_a @ x + params.w_b @ u)


def _brute_force_state_jacobian(theta, dims, x, u, eps=1e-6):
    """Columns of d tanh(W_a x + W_b u) / d theta by central differences."""
    jac = np.empty((dims.q, dims.n_params))
    for c in range(dims.n_params):
        shift = np.zeros(dims.n_params)
        shift[c] = eps
        jac[:, c] = (
            _state_map(theta + shift, dims, x, u)
            - _state_map(theta - shift, dims, x, u)
        ) / (2 * eps)
    return jac


def test_delta_theta_g_zero_inputs():
    dims = RnnDims(q=3, m=2, p=2)
    nu = np.ones(3)
    z = np.random.default_rng(0).standard_normal(3)
    out = delta_theta_g(nu, z, np.zeros(3), np.zeros(3), dims)
    assert np.array_equal(out, np.zeros(dims.n_params))


def test_delta_theta_g_saturated():
    dims, params, x, u, _, _ = _instance(seed=3)
    nu = np.ones(dims.q)
    z = np.full(dims.q, 30.0)
    out = delta_theta_g(nu, z, x, u, dims)
    assert np.abs(out).max() < 1e-20


def test_delta_theta_g_matches_brute_force_jacobian():
    # Oracle: nu^T J where J is the full state-map Jacobian in theta,
    # built one parameter at a time.
    dims, params, x, u, _, rng = _instance(seed=5)
    z = params.w_a @ x + params.w_b @ u
    nu = 2.0 * rng.integers(0, 2, size=dims.q) - 1.0
    got = delta_theta_g(nu, z, x, u, dims)
    jac = _brute_force_state_jacobian(flatten_params(params), dims, x, u)
    expected = nu @ jac
    assert np.linalg.norm(got - expected) <= 1e-5 * np.linalg.norm(expected)


# ------------------------- delta_theta_g_norm -----------------------------


@settings(max_examples=200, deadline=None)
@given(
    q=st.integers(1, 8),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    # Up to 40, some units saturate (tanh'(z) = 0) and some sit near it.
    z_scale=st.sampled_from([0.0, 1.0, 10.0, 40.0]),
    # Input scales whose squares neither overflow nor underflow.
    u_exp=st.integers(-50, 50),
)
def test_delta_theta_g_norm_matches_norm_of_formed_vector(q, m, seed, z_scale,
                                                          u_exp):
    rng = np.random.default_rng(seed)
    dims = RnnDims(q=q, m=m, p=1)
    nu = 2.0 * rng.integers(0, 2, size=q) - 1.0
    z = z_scale * rng.standard_normal(q)
    x = np.tanh(rng.standard_normal(q))
    u = 10.0**u_exp * rng.standard_normal(m + 1)
    want = np.linalg.norm(delta_theta_g(nu, z, x, u, dims))
    # nu is +-1, so a = nu * tanh'(z) and tanh'(z) have one norm.
    for a in (nu * tanh_prime(z), tanh_prime(z)):
        assert abs(delta_theta_g_norm(a, x, u) - want) <= 1e-12 * want


def test_delta_theta_g_norm_fully_saturated_is_zero_though_inputs_overflow():
    # Edge rule: ||a|| = 0 gives the formed vector's norm, 0, where
    # 0 * sqrt(||x||^2 + ||u||^2) would be 0 * inf = NaN.
    dims = RnnDims(q=3, m=2, p=1)
    z, x = np.full(3, 40.0), np.array([0.5, -0.2, 0.1])
    u = np.array([1.0, 1e200, -1e200])
    with np.errstate(over="ignore"):
        assert delta_theta_g_norm(tanh_prime(z), x, u) == 0.0
    assert np.linalg.norm(delta_theta_g(np.ones(3), z, x, u, dims)) == 0.0
    # An infinite input makes the formed vector NaN (0 * inf), and the
    # closed form with it.
    u[1] = np.inf
    with np.errstate(over="ignore"):
        assert np.isnan(delta_theta_g_norm(tanh_prime(z), x, u))
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.linalg.norm(delta_theta_g(np.ones(3), z, x, u, dims)))


def _fixed_drive_instance(z_value, u_value):
    """A state whose pre-activation is z_value in every unit, whatever the
    input: W_b is zero, so u = [1, u_value, ...] reaches only the
    parameter Jacobian, dtheta_g's W_b block a u^T."""
    dims, params, x, _, y_star, _ = _instance(seed=11)
    w_a = np.outer(np.full(dims.q, z_value), x) / x.dot(x)
    params = type(params)(w_a=w_a, w_b=np.zeros_like(params.w_b),
                          w_c=params.w_c)
    u = np.full(dims.m + 1, u_value)
    u[0] = 1.0
    return dims, params, x, u, y_star


def test_uoro_step_saturated_units_with_overflowing_input_norm_pass():
    # Every unit saturates (a = 0) while ||u||^2 overflows: by the edge rule
    # rho1 is EPS_NORM, and with x_fwd = 0 the new x_tilde is EPS_NORM * nu.
    dims, params, x, u, y_star = _fixed_drive_instance(40.0, 1e200)
    nu = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    for step in (uoro_step, _closed_form_uoro_step, _reference_uoro_step):
        with np.errstate(over="ignore"):
            out = step(params, x, init_memory(dims), u, y_star, _hyper(dims),
                       None, nu=nu)
        np.testing.assert_array_equal(out.memory.x_tilde, EPS_NORM * nu)
        assert np.isfinite(out.memory.theta_tilde).all()


def test_uoro_step_overflowing_closed_form_norm_is_nonfinite_rho1():
    # tanh'(18) is about 1e-15, so the formed dtheta_g's norm is about 1e145
    # and finite, but the closed form's ||u||^2 overflows: rho1 is infinite.
    dims, params, x, u, y_star = _fixed_drive_instance(18.0, 1e160)
    z = params.w_a @ x
    assert 0.0 < tanh_prime(z).min()
    nu = np.ones(dims.q)
    assert np.isfinite(np.linalg.norm(delta_theta_g(nu, z, x, u, dims)))
    for step in (uoro_step, _closed_form_uoro_step, _reference_uoro_step):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
            step(params, x, init_memory(dims), u, y_star, _hyper(dims), None,
                 nu=nu)
        assert info.value.quantity == "rho1"


# -------------------------- tangent_propagate -----------------------------


def test_tangent_propagate_zero_direction():
    dims, params, x, u, _, _ = _instance(seed=6)
    cache = forward(params, x, u)
    out = tangent_propagate(params, x, np.zeros(dims.q), u, cache.x_next)
    assert np.abs(out).max() <= 1e-9


def test_tangent_propagate_matches_exact_jvp():
    # Oracle: diag(tanh'(z)) W_a x_tilde, the exact Jacobian-vector product.
    dims, params, x, u, _, rng = _instance(seed=7)
    cache = forward(params, x, u)
    x_tilde = rng.standard_normal(dims.q)
    x_tilde /= np.linalg.norm(x_tilde)
    got = tangent_propagate(params, x, x_tilde, u, cache.x_next)
    exact = jac_state_x(params, cache.z) @ x_tilde
    assert np.linalg.norm(got - exact) <= 1e-4 * max(np.linalg.norm(exact), 1e-12)


def test_tangent_propagate_linear_region():
    # With tiny weights the state map is nearly linear: result ~ W_a x_tilde.
    dims = RnnDims(q=6, m=4, p=3)
    params = init_params(dims, sigma_init=1e-4, seed=8)
    rng = np.random.default_rng(9)
    x = 1e-4 * rng.standard_normal(dims.q)
    u = 1e-4 * rng.standard_normal(dims.m + 1)
    x_tilde = rng.standard_normal(dims.q)
    cache = forward(params, x, u)
    got = tangent_propagate(params, x, x_tilde, u, cache.x_next)
    assert np.linalg.norm(got - params.w_a @ x_tilde) <= 1e-6


def test_tangent_propagate_rejects_bad_eps():
    dims, params, x, u, _, _ = _instance()
    cache = forward(params, x, u)
    with pytest.raises(ValueError):
        tangent_propagate(params, x, np.zeros(dims.q), u, cache.x_next, eps_prop=0.0)


# -------------------------- uoro_step -------------------------------------


def test_uoro_step_zero_learning_rate():
    dims, params, x, u, y_star, rng = _instance(seed=10)
    hyper = UoroHyper(eta=1e-300, tau=2.0, sigma_init=0.02, L=2, q=dims.q)
    result = uoro_step(params, x, init_memory(dims), u, y_star, hyper, rng)
    cache = forward(params, x, u)
    assert np.allclose(result.params.w_a, params.w_a, atol=1e-280)
    assert np.array_equal(result.y, cache.y)
    assert np.array_equal(result.x, cache.x_next)


def test_uoro_step_first_step_gradient_is_delta_theta():
    # Zero memory kills the rank-one term, so the update must be exactly
    # -eta * clip(delta_theta).
    dims, params, x, u, y_star, rng = _instance(seed=11)
    hyper = _hyper(dims, eta=0.25, tau=10.0)
    result = uoro_step(params, x, init_memory(dims), u, y_star, hyper, rng)
    cache = forward(params, x, u)
    e, _ = loss(cache.y, y_star)
    expected = flatten_params(params) - hyper.eta * delta_theta(e, cache.x_next, dims)
    assert np.linalg.norm(delta_theta(e, cache.x_next, dims)) < hyper.tau
    assert np.allclose(flatten_params(result.params), expected, rtol=0, atol=1e-15)


def test_uoro_step_first_step_normalizers_well_defined():
    dims, params, x, u, y_star, rng = _instance(seed=12)
    result = uoro_step(params, x, init_memory(dims), u, y_star, _hyper(dims), rng)
    assert np.isfinite(result.memory.x_tilde).all()
    assert np.isfinite(result.memory.theta_tilde).all()
    assert np.linalg.norm(result.memory.theta_tilde) > 0


def test_uoro_step_sign_flip_symmetry():
    # From zero memory, mirroring nu flips both estimator vectors and
    # leaves their outer product unchanged.
    dims, params, x, u, y_star, _ = _instance(seed=13)
    nu = 2.0 * np.random.default_rng(13).integers(0, 2, size=dims.q) - 1.0
    rng = np.random.default_rng(0)
    plus = uoro_step(params, x, init_memory(dims), u, y_star, _hyper(dims), rng, nu=nu)
    minus = uoro_step(params, x, init_memory(dims), u, y_star, _hyper(dims), rng, nu=-nu)
    assert np.allclose(plus.memory.x_tilde, -minus.memory.x_tilde, atol=1e-12)
    assert np.allclose(plus.memory.theta_tilde, -minus.memory.theta_tilde, atol=1e-12)
    assert np.allclose(
        np.outer(plus.memory.x_tilde, plus.memory.theta_tilde),
        np.outer(minus.memory.x_tilde, minus.memory.theta_tilde),
        atol=1e-12,
    )


def test_uoro_step_gradient_uses_pre_update_memory():
    # The parameter update must combine delta_theta with the INCOMING
    # memory's rank-one term, not the refreshed one.
    dims, params, x, u, y_star, rng = _instance(seed=14)
    x_tilde = rng.standard_normal(dims.q)
    theta_tilde = rng.standard_normal(dims.n_params)
    memory = UoroMemory(x_tilde=x_tilde, theta_tilde=theta_tilde)
    hyper = _hyper(dims, eta=1.0, tau=1e12)
    result = uoro_step(params, x, memory, u, y_star, hyper, rng)
    cache = forward(params, x, u)
    e, _ = loss(cache.y, y_star)
    expected_grad = (grad_x_loss(e, params.w_c) @ x_tilde) * theta_tilde
    expected_grad = expected_grad + delta_theta(e, cache.x_next, dims)
    got_grad = flatten_params(params) - flatten_params(result.params)
    assert np.allclose(got_grad, expected_grad, rtol=1e-10, atol=1e-12)


def test_uoro_step_clips_update_norm():
    dims, params, x, u, y_star, rng = _instance(seed=15)
    y_star = y_star + 50.0
    memory = UoroMemory(
        x_tilde=10.0 * np.ones(dims.q),
        theta_tilde=10.0 * np.ones(dims.n_params),
    )
    hyper = _hyper(dims, eta=1.0, tau=2.0)
    result = uoro_step(params, x, memory, u, y_star, hyper, rng)
    update = flatten_params(params) - flatten_params(result.params)
    assert np.linalg.norm(update) <= hyper.tau * (1 + 1e-12)


def test_uoro_step_estimator_mean_tracks_influence_recursion():
    # Monte-Carlo oracle: seed the memory with an exact rank-one influence
    # matrix, resample nu many times, and compare the averaged outer
    # product against the exact one-step influence recursion.
    q, n_m, L = 3, 1, 2
    m = 3 * n_m * L
    dims = RnnDims(q=q, m=m, p=3 * n_m)
    params = init_params(dims, sigma_init=0.5, seed=20)
    rng = np.random.default_rng(21)
    x = np.tanh(rng.standard_normal(q))
    u = rng.standard_normal(m + 1)
    u[0] = 1.0
    y_star = rng.standard_normal(dims.p)
    x_tilde = rng.standard_normal(q)
    theta_tilde = rng.standard_normal(dims.n_params)
    memory = UoroMemory(x_tilde=x_tilde, theta_tilde=theta_tilde)
    influence = np.outer(x_tilde, theta_tilde)

    cache = forward(params, x, u)
    exact_next = jac_state_x(params, cache.z) @ influence
    exact_next += jac_state_theta(x, u, cache.z, dims)

    n_draws = 20_000
    total = np.zeros((q, dims.n_params))
    total_sq = np.zeros((q, dims.n_params))
    hyper = _hyper(dims)
    for _ in range(n_draws):
        result = uoro_step(params, x, memory, u, y_star, hyper, rng)
        sample = np.outer(result.memory.x_tilde, result.memory.theta_tilde)
        total += sample
        total_sq += sample * sample
    mean = total / n_draws
    var = total_sq / n_draws - mean * mean
    se = np.sqrt(np.maximum(var, 0.0) / n_draws)

    deviation = np.abs(mean - exact_next)
    assert (deviation <= 3.0 * se + 1e-3).all()


def test_uoro_step_nonfinite_loss_detected():
    dims = RnnDims(q=4, m=3, p=2)
    params = init_params(dims, sigma_init=1e160, seed=1)
    x = np.zeros(4)
    u = np.ones(4)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        uoro_step(params, x, init_memory(dims), u, np.zeros(2), _hyper(dims),
                  np.random.default_rng(0))
    assert info.value.quantity == "loss"


def test_uoro_step_nonfinite_gradient_detected():
    dims, params, x, u, y_star, rng = _instance(seed=16)
    memory = UoroMemory(
        x_tilde=np.ones(dims.q),
        theta_tilde=np.full(dims.n_params, np.inf),
    )
    # The squared norm of theta_tilde is infinite here too, but its entries
    # are not finite, so this is the gradient, not rho0.
    for step in (uoro_step, _closed_form_uoro_step, _reference_uoro_step):
        with pytest.raises(NonFiniteError) as info:
            step(params, x, memory, u, y_star, _hyper(dims), rng)
        assert info.value.quantity == "gradient"


def test_uoro_hyper_rejects_nonpositive():
    with pytest.raises(ValueError):
        UoroHyper(eta=0.0, tau=2.0, sigma_init=0.02, L=10, q=10)
    with pytest.raises(ValueError):
        UoroHyper(eta=0.1, tau=2.0, sigma_init=0.02, L=0, q=10)


def test_uoro_memory_defaults():
    dims = RnnDims(q=3, m=2, p=1)
    memory = init_memory(dims)
    assert np.array_equal(memory.x_tilde, np.zeros(3))
    assert np.array_equal(memory.theta_tilde, np.zeros(dims.n_params))
    assert EPS_NORM == EPS_PROP == 1e-7


# ------------------- uoro_step against the closed forms -------------------


def _reference_uoro_step(params, x, memory, u, y_star, hyper, rng, *, nu=None):
    """The ten stages composed from the public closed forms, one function
    per stage, with whole-vector temporaries, on the formed gradient: g =
    c theta_tilde + delta_theta as a |W| vector, `clip_gradient` on it and
    a finiteness scan of it. This is how the step was composed before it
    took SGD straight from theta_tilde: an oracle that `uoro_step` meets
    within the tolerances measured below, not bit for bit. As in the step,
    ||dtheta_g|| is the closed form, dtheta_g / rho1 is `delta_theta_g` of
    the signs nu / rho1, and theta_tilde is scaled by 1 / rho0. Like the
    step, it reads the eps constants from the module at call time."""
    dims = params.dims

    cache = forward(params, x, u)
    e, loss_value = loss(cache.y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")

    dtheta = delta_theta(e, cache.x_next, dims)
    grad = (grad_x_loss(e, params.w_c) @ memory.x_tilde) * memory.theta_tilde
    grad += dtheta
    if not np.isfinite(grad).all():
        raise NonFiniteError("gradient")

    if nu is None:
        nu = 2.0 * rng.integers(0, 2, size=dims.q) - 1.0
    x_fwd = tangent_propagate(
        params, x, memory.x_tilde, u, cache.x_next, uoro.EPS_PROP
    )

    eps = uoro.EPS_NORM
    rho0 = np.sqrt(
        np.linalg.norm(memory.theta_tilde) / (np.linalg.norm(x_fwd) + eps)
    ) + eps
    dtheta_g_norm = delta_theta_g_norm(tanh_prime(cache.z), x, u)
    rho1 = np.sqrt(dtheta_g_norm / (np.linalg.norm(nu) + eps)) + eps
    if not np.isfinite(rho0):
        raise NonFiniteError("rho0")
    if not np.isfinite(rho1):
        raise NonFiniteError("rho1")

    x_tilde = rho0 * x_fwd + rho1 * nu
    theta_tilde = (memory.theta_tilde * (1.0 / rho0)
                   + delta_theta_g(nu / rho1, cache.z, x, u, dims))
    if not np.isfinite(x_tilde).all():
        raise NonFiniteError("x_tilde")
    if not np.isfinite(theta_tilde).all():
        raise NonFiniteError("theta_tilde")

    grad = clip_gradient(grad, hyper.tau)
    theta = flatten_params(params) - hyper.eta * grad
    new_params = unflatten_params(theta, dims)

    return UoroStepResult(
        params=new_params,
        x=cache.x_next,
        memory=UoroMemory(x_tilde=x_tilde, theta_tilde=theta_tilde),
        y=cache.y,
        loss=loss_value,
    )


def _closed_form_uoro_step(params, x, memory, u, y_star, hyper, rng, *,
                           nu=None):
    """The step as `uoro_step`'s docstring states it, composed from the
    public closed forms with whole-vector temporaries: the reference that
    `uoro_step` must match byte for byte. g's [W_a | W_b] block, c
    theta_tilde_ab, is not formed: it enters through c and
    ||theta_tilde_ab||. Its W_c block g_c is c theta_tilde_c plus
    `delta_theta`'s block, ||g|| = sqrt((|c| ||theta_tilde_ab||)^2 +
    ||g_c||^2), tau is shrunk by (|W| + 32) 2^-53, and the update
    [(eta s c) theta_tilde_ab; (eta s) g_c] is subtracted from the flat
    weights. rho0 reads ||theta_tilde||^2 as the sum of its two blocks';
    a finite theta_tilde whose squared norm overflows raises "rho0" before
    the gradient is checked, as the formed-gradient step does. Exact
    zeros of the step's BLAS outer products are +0, which the `0.0 - ...`
    and `+ 0.0` below reproduce."""
    dims = params.dims
    n_ab = dims.n_ab

    cache = forward(params, x, u)
    e, loss_value = loss(cache.y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")

    c = float(grad_x_loss(e, params.w_c) @ memory.x_tilde)
    theta_tilde_ab = memory.theta_tilde[:n_ab]
    theta_tilde_c = memory.theta_tilde[n_ab:]
    dtheta_c = delta_theta(e, cache.x_next, dims)[n_ab:]
    grad_c = c * theta_tilde_c - (0.0 - dtheta_c)
    ab_squares = float(theta_tilde_ab @ theta_tilde_ab)
    c_squares = float(theta_tilde_c @ theta_tilde_c)
    if (not math.isfinite(ab_squares + c_squares)
            and np.isfinite(memory.theta_tilde).all()):
        raise NonFiniteError("rho0")
    grad_ab_norm = abs(c) * math.sqrt(ab_squares)
    grad_squares = grad_ab_norm * grad_ab_norm + float(grad_c @ grad_c)
    if not math.isfinite(grad_squares):
        raise NonFiniteError("gradient")

    if nu is None:
        nu = 2.0 * rng.integers(0, 2, size=dims.q) - 1.0
    x_fwd = tangent_propagate(
        params, x, memory.x_tilde, u, cache.x_next, uoro.EPS_PROP
    )

    grad_norm = math.sqrt(grad_squares)
    tau_shrunk = hyper.tau * (1.0 - (dims.n_params + 32) * 2.0 ** -53)
    eta_s = (hyper.eta * (tau_shrunk / grad_norm) if grad_norm > tau_shrunk
             else hyper.eta)
    update = np.concatenate((theta_tilde_ab * (eta_s * c), grad_c * eta_s))
    new_params = unflatten_params(flatten_params(params) - update, dims)

    eps = uoro.EPS_NORM
    rho0 = np.sqrt(
        math.sqrt(ab_squares + c_squares) / (np.linalg.norm(x_fwd) + eps)
    ) + eps
    dtheta_g_norm = delta_theta_g_norm(tanh_prime(cache.z), x, u)
    rho1 = np.sqrt(dtheta_g_norm / (np.linalg.norm(nu) + eps)) + eps
    if not np.isfinite(rho0):
        raise NonFiniteError("rho0")
    if not np.isfinite(rho1):
        raise NonFiniteError("rho1")

    x_tilde = rho0 * x_fwd + rho1 * nu
    theta_tilde = memory.theta_tilde * (1.0 / rho0)
    theta_tilde[:n_ab] += (
        delta_theta_g(nu / rho1, cache.z, x, u, dims)[:n_ab] + 0.0
    )
    if not np.isfinite(x_tilde).all():
        raise NonFiniteError("x_tilde")
    if not np.isfinite(theta_tilde).all():
        raise NonFiniteError("theta_tilde")

    return UoroStepResult(
        params=new_params,
        x=cache.x_next,
        memory=UoroMemory(x_tilde=x_tilde, theta_tilde=theta_tilde),
        y=cache.y,
        loss=loss_value,
    )


def _assert_same_step(got, want):
    """Byte equality of two step results, signs of zeros included."""
    for name in ("w_a", "w_b", "w_c"):
        assert (getattr(got.params, name).tobytes()
                == getattr(want.params, name).tobytes()), name
    for name in ("x", "y"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("x_tilde", "theta_tilde"):
        assert (getattr(got.memory, name).tobytes()
                == getattr(want.memory, name).tobytes()), name
    assert got.loss == want.loss


def _marker_stream(L, n_steps, h=5, seed=3):
    """Normalized (u, y*) pairs of a 3-marker synthetic record, as the
    harness feeds them to the trainers."""
    record = synthetic_record(duration_s=200.0, seed=seed)
    normalizer = fit_normalizer(record, range(300))
    samples = [build_io(record, normalizer, L, h, n) for n in range(n_steps)]
    return [s.u for s in samples], [s.target for s in samples]


def _rel_gap(got, want):
    """Largest entry of |got - want| over the largest entry of |want|."""
    return np.abs(got - want).max() / np.abs(want).max()


def _oracle_gaps(got, oracle):
    """The relative gaps of a step's new weights, x_tilde and theta_tilde
    from the formed-gradient oracle's, run from the same state and signs."""
    return (
        _rel_gap(flatten_params(got.params), flatten_params(oracle.params)),
        _rel_gap(got.memory.x_tilde, oracle.memory.x_tilde),
        _rel_gap(got.memory.theta_tilde, oracle.memory.theta_tilde),
    )


# Largest relative gaps (`_oracle_gaps`) between a step and the
# formed-gradient oracle run from the step's own input state and signs.
# Measured over the chained steps below: 6.1e-13 for the new weights when
# clipping (the oracle clips at tau, the step at tau shrunk by (|W| + 32)
# 2^-53, 1.9e-12 at q = 90, L = 10) and 2.0e-16 when not; 5.2e-16 for
# x_tilde and 4.2e-16 for theta_tilde (rho0 sums ||theta_tilde||^2 by
# blocks). The bounds allow about 10 to 30 times that. Chained on its own,
# the oracle drifts from the step by O(1) within 1000 clipped steps, as
# online training amplifies any rounding change; so the oracle is held one
# step at a time.
_ORACLE_RTOL = {True: (2e-11, 5e-15, 5e-15), False: (5e-15, 5e-15, 5e-15)}


@pytest.mark.parametrize("q, L", [(10, 10), (30, 30), (90, 10), (10, 90)])
# The shipped clip threshold clips most steps; at eta = 0.01 no gradient
# norm on these streams comes near 1e3, so nothing is clipped.
@pytest.mark.parametrize("eta, tau, clips", [(0.1, CLIP_TAU, True), (0.01, 1e3, False)])
def test_uoro_step_matches_reference_over_chained_steps(q, L, eta, tau, clips):
    # Each step equals the closed form, chained on its own, byte for byte,
    # and the formed-gradient oracle run from the step's own state within
    # _ORACLE_RTOL.
    n_steps = 1000
    inputs, targets = _marker_stream(L, n_steps)
    dims = RnnDims(q=q, m=len(inputs[0]) - 1, p=len(targets[0]))
    hyper = UoroHyper(eta=eta, tau=tau, sigma_init=0.02, L=L, q=q)
    state = closed_state = (init_params(dims, hyper.sigma_init, 7),
                            np.zeros(q), init_memory(dims))
    rng = np.random.default_rng([7, 1])
    n_clipped = 0
    gaps = np.zeros(3)
    for u, y_star in zip(inputs, targets):
        nu = 2.0 * rng.integers(0, 2, size=q) - 1.0
        got = uoro_step(*state, u, y_star, hyper, None, nu=nu)
        closed = _closed_form_uoro_step(*closed_state, u, y_star, hyper, None,
                                        nu=nu)
        oracle = _reference_uoro_step(*state, u, y_star, hyper, None, nu=nu)
        _assert_same_step(got, closed)
        gaps = np.maximum(gaps, _oracle_gaps(got, oracle))
        # An unclipped update has norm eta*||grad|| <= eta*tau; a clipped
        # one lands within rounding of eta*tau.
        update = np.linalg.norm(flatten_params(state[0])
                                - flatten_params(got.params))
        n_clipped += bool(update >= hyper.eta * tau * (1 - 1e-9))
        state = (got.params, got.x, got.memory)
        closed_state = (closed.params, closed.x, closed.memory)
    assert (gaps <= _ORACLE_RTOL[clips]).all(), gaps
    assert (n_clipped > 0) == clips


def _random_instance(q, m, p, seed, theta_scale=1.0):
    rng = np.random.default_rng(seed)
    dims = RnnDims(q=q, m=m, p=p)
    params = init_params(dims, sigma_init=0.4, seed=seed)
    x = np.tanh(rng.standard_normal(q))
    memory = UoroMemory(
        x_tilde=rng.standard_normal(q),
        theta_tilde=theta_scale * rng.standard_normal(dims.n_params),
    )
    inputs = rng.uniform(-1.0, 1.0, size=(4, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(4, p))
    return params, x, memory, inputs, targets


def _arrays(params, x, memory, u, y_star):
    return [params.w_a, params.w_b, params.w_c, x, memory.x_tilde,
            memory.theta_tilde, u, y_star]


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 6),
    m=st.integers(1, 8),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    tau=st.sampled_from([1e-3, CLIP_TAU, 1e12]),
)
def test_uoro_step_property_equals_reference_and_leaves_inputs(q, m, p, seed, tau):
    params, x, memory, inputs, targets = _random_instance(q, m, p, seed)
    hyper = UoroHyper(eta=0.1, tau=tau, sigma_init=0.4, L=1, q=q)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = (params, x, memory)
    for u, y_star in zip(inputs, targets):
        before = [a.copy() for a in _arrays(params, x, memory, u, y_star)]
        got = uoro_step(params, x, memory, u, y_star, hyper, rng)
        for old, now in zip(before, _arrays(params, x, memory, u, y_star)):
            np.testing.assert_array_equal(now, old)
        want = _closed_form_uoro_step(*ref, u, y_star, hyper, ref_rng)
        _assert_same_step(got, want)
        params, x, memory = got.params, got.x, got.memory
        ref = (want.params, want.x, want.memory)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tau, clips", [(1e-3, True), (1e12, False)])
def test_uoro_step_with_a_nonzero_theta_tilde_wc_block_meets_the_oracle(
    seed, tau, clips
):
    # A learner's theta_tilde keeps a +0 W_c block, but a pure call may be
    # handed any memory: here every entry of theta_tilde is non-zero, so
    # g_c = c theta_tilde_c - x_next e^T has both terms. The step must
    # equal the closed form byte for byte and meet the formed-gradient
    # oracle within _ORACLE_RTOL at each of four chained steps.
    params, x, memory, inputs, targets = _random_instance(5, 7, 4, seed)
    n_ab = params.dims.n_ab
    assert memory.theta_tilde[n_ab:].all()
    hyper = UoroHyper(eta=0.1, tau=tau, sigma_init=0.4, L=1, q=5)
    rng = np.random.default_rng(seed)
    for u, y_star in zip(inputs, targets):
        nu = 2.0 * rng.integers(0, 2, size=5) - 1.0
        got = uoro_step(params, x, memory, u, y_star, hyper, None, nu=nu)
        _assert_same_step(got, _closed_form_uoro_step(
            params, x, memory, u, y_star, hyper, None, nu=nu))
        oracle = _reference_uoro_step(params, x, memory, u, y_star, hyper,
                                      None, nu=nu)
        assert (np.array(_oracle_gaps(got, oracle))
                <= _ORACLE_RTOL[clips]).all()
        params, x, memory = got.params, got.x, got.memory


# The clip rule holds where the step's rounding is relative; see uoro_step.
_RULE_RANGE = (2.0 ** -1000, 2.0 ** 1000)
_TINY_NORM = 2.0 ** -480


@st.composite
def _clip_rule_cases(draw):
    """A state whose update the step subtracts exactly, so that the new
    weights give it back: W_a = 0 and x = 0, W_b's bias column holds b_j
    at every unit j but unit 0, and W_c holds w at (0, 0) alone. Unit 0's
    new state is tanh(0) = 0, so y = 0, e = y* and c = -e_0 w x_tilde_0,
    and theta_tilde is 0 at the non-zero weights, where the update is
    then 0: every other weight is 0 and becomes minus its update. The
    entries of theta_tilde, y* and x_tilde span tiny to huge magnitudes,
    with exact zeros; tau is near the gradient norm, so that about half
    the steps clip; the rate runs from 2^-61 to 2^60."""

    def vector(size, exponent):
        return np.array([
            math.ldexp(draw(st.sampled_from([0.0, 1.0, -1.0]))
                       * draw(st.floats(0.5, 1.0)),
                       exponent - draw(st.integers(0, 40)))
            for _ in range(size)
        ])

    q, m, p = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    dims = RnnDims(q=q, m=m, p=p)
    w_b = np.zeros((q, m + 1))
    w_b[1:, 0] = draw(st.floats(-3.0, 3.0))
    w_c = np.zeros((p, q))
    w_c[0, 0] = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-20, 20)))
    params = RnnParams(w_a=np.zeros((q, q)), w_b=w_b, w_c=w_c)
    k_e = draw(st.integers(-1000, 490))
    k_x = draw(st.integers(-1000, 1000))
    k_t = draw(st.integers(-560, 500))
    y_star = vector(p, k_e)
    y_star[0] = math.copysign(math.ldexp(draw(st.floats(0.5, 1.0)), k_e),
                              draw(st.sampled_from([1.0, -1.0])))
    x_tilde = vector(q, k_x)
    theta_tilde = vector(dims.n_params, k_t)
    theta_tilde[q * q + 1 : q * (q + 1)] = 0.0  # at W_b[1:, 0]
    theta_tilde[dims.n_ab] = 0.0                # at W_c[0, 0]
    u = np.concatenate(([1.0], draw(st.lists(st.floats(-1.0, 1.0),
                                             min_size=m, max_size=m))))
    eta = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-60, 60)))
    tau_scale = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-4, 4)))
    return params, u, y_star, UoroMemory(x_tilde, theta_tilde), eta, tau_scale


@settings(max_examples=400, deadline=None)
@given(_clip_rule_cases())
def test_uoro_step_update_never_exceeds_eta_tau(case):
    # The update the step subtracts, Delta = [(eta s c) theta_tilde_ab;
    # (eta s) g_c] as formed in doubles, has an exact norm of at most
    # eta * tau. Here the weights give Delta back exactly.
    params, u, y_star, memory, eta, tau_scale = case
    dims = params.dims
    n_ab = dims.n_ab
    x = np.zeros(dims.q)
    # The step's c and g_c, and the exact norms the rule is stated in.
    with np.errstate(over="ignore", invalid="ignore"):
        c = -float((y_star @ params.w_c) @ memory.x_tilde)
        x_next = np.tanh(params.w_b @ u)
        grad_c = (c * memory.theta_tilde[n_ab:]
                  - np.outer(x_next, y_star).ravel())
    assume(math.isfinite(c) and np.isfinite(grad_c).all())
    ab_norm = math.hypot(*memory.theta_tilde[:n_ab])
    grad_norm = math.hypot(abs(c) * ab_norm, math.hypot(*grad_c))
    tau = grad_norm * tau_scale if grad_norm else 1.0
    eta_s = eta * min(1.0, tau / grad_norm) if grad_norm else eta
    low, high = _RULE_RANGE
    assume(grad_norm < 2.0 ** 511)
    # Squared norms 0 or at least 2^-960: norms 0 or at least 2^-480.
    assume(all(v == 0.0 or v >= _TINY_NORM
               for v in (ab_norm, math.hypot(*grad_c), grad_norm)))
    assume(all(v == 0.0 or low <= v <= high
               for v in (tau, eta * tau, eta_s, eta_s * abs(c))))
    # Built after the assumptions: a subnormal grad_norm, which they
    # reject, can round tau to 0, which UoroHyper refuses.
    hyper = UoroHyper(eta=eta, tau=tau, sigma_init=0.02, L=1, q=dims.q)
    got = uoro_step(params, x, memory, u, y_star, hyper, None,
                    nu=np.ones(dims.q))
    before = flatten_params(params).tolist()
    after = flatten_params(got.params).tolist()
    squares = sum((Fraction(b) - Fraction(a)) ** 2
                  for b, a in zip(before, after))
    assert squares <= (Fraction(eta) * Fraction(tau)) ** 2


def _outcome(step, params, x, memory, u, y_star, hyper, n_steps=4):
    """Per step, the new state's theta_tilde and x_tilde, until the first
    NonFiniteError, whose step and quantity end the list."""
    rng = np.random.default_rng(0)
    out = []
    for i in range(n_steps):
        try:
            with np.errstate(all="ignore"):
                result = step(params, x, memory, u, y_star, hyper, rng)
        except NonFiniteError as err:
            return out + [(i, err.quantity)]
        params, x, memory = result.params, result.x, result.memory
        out.append((memory.theta_tilde.tobytes(), memory.x_tilde.tobytes()))
    return out


def _ending(outcome):
    """The (step, quantity) that ends an `_outcome`, or its length when no
    step raised."""
    if outcome and isinstance(outcome[-1][0], int):
        return outcome[-1]
    return len(outcome)


def _huge_memory_instance(monkeypatch, theta_tilde, eps, x_tilde_scale):
    """A state whose prediction is exact (zero error, zero gradient), so
    that a huge but finite memory reaches the normalizers and stage 9; both
    eps constants are set to eps for the rest of the test."""
    monkeypatch.setattr(uoro, "EPS_NORM", eps)
    monkeypatch.setattr(uoro, "EPS_PROP", eps)
    dims, params, x, u, _, rng = _instance(seed=16)
    y_star = forward(params, x, u).y
    memory = UoroMemory(
        x_tilde=x_tilde_scale * rng.standard_normal(dims.q),
        theta_tilde=theta_tilde(dims.n_params, rng),
    )
    return params, x, memory, u, y_star, _hyper(dims)


def test_uoro_step_nonfinite_rho0_when_theta_tilde_norm_overflows():
    # theta_tilde and the formed gradient are finite, but their squared
    # norms overflow. The step reports the infinite rho0 that
    # ||theta_tilde|| gives, as the formed-gradient oracle does once its
    # scan finds the gradient finite; it does not report the gradient,
    # whose closed-form norm overflows too.
    dims, params, x, u, y_star, rng = _instance(seed=16)
    memory = UoroMemory(
        x_tilde=np.full(dims.q, 1e-3),
        theta_tilde=np.full(dims.n_params, 1e200),
    )
    for step in (uoro_step, _closed_form_uoro_step, _reference_uoro_step):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            step(params, x, memory, u, y_star, _hyper(dims),
                 np.random.default_rng(0))
        assert info.value.quantity == "rho0"


def test_uoro_step_gradient_norm_overflow_raises_without_a_warning():
    # A finite memory whose x_tilde is huge: c is about 1e199 and every
    # entry of g = c theta_tilde + dtheta is finite, but ||g||^2 overflows.
    # Only the Python float product (|c| ||theta_tilde_ab||)^2 overflows,
    # to an infinity, not a numpy warning, and raises as the gradient. The
    # formed-gradient oracle passes its scan, warns when its norm
    # overflows, and clips to tau / inf = 0: it leaves the weights as they
    # were.
    dims, params, x, u, y_star, rng = _instance(seed=17)
    theta_tilde = np.zeros(dims.n_params)
    theta_tilde[: dims.n_ab] = rng.standard_normal(dims.n_ab)
    memory = UoroMemory(x_tilde=np.full(dims.q, 1e200),
                        theta_tilde=theta_tilde)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for step in (uoro_step, _closed_form_uoro_step):
            with pytest.raises(NonFiniteError) as info:
                step(params, x, memory, u, y_star, _hyper(dims), None,
                     nu=np.ones(dims.q))
            assert info.value.quantity == "gradient"
    with np.errstate(over="ignore"):
        oracle = _reference_uoro_step(params, x, memory, u, y_star,
                                      _hyper(dims), None, nu=np.ones(dims.q))
    np.testing.assert_array_equal(flatten_params(oracle.params),
                                  flatten_params(params))


def test_uoro_step_nonfinite_theta_tilde_detected(monkeypatch):
    # With EPS_PROP = EPS_NORM = 1e-300 the tangent overflows ||x_fwd||, so
    # rho0 falls to EPS_NORM and theta_tilde / rho0 overflows, while rho0,
    # rho1 and x_tilde stay finite.
    state = _huge_memory_instance(
        monkeypatch, lambda n, rng: np.full(n, 1e10), eps=1e-300,
        x_tilde_scale=1e300,
    )
    for step in (uoro_step, _closed_form_uoro_step, _reference_uoro_step):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            step(*state, np.random.default_rng(0))
        assert info.value.quantity == "theta_tilde"


@pytest.mark.parametrize(
    "theta_tilde, eps, x_tilde_scale",
    [
        # The scalar bound on the new theta_tilde overflows while every
        # element stays finite: the full scan must let the step pass.
        (lambda n, rng: np.full(n, 3e7), 1e-300, 1e300),
        (lambda n, rng: np.full(n, 1e7), 1e-300, 1e300),
        (lambda n, rng: np.full(n, 2e8), 1e-300, 1e300),
        (lambda n, rng: 1e150 * rng.standard_normal(n), EPS_NORM, 1.0),
        (lambda n, rng: 1e154 * rng.standard_normal(n), EPS_NORM, 1.0),
    ],
)
def test_uoro_step_huge_finite_memory_raises_where_reference_raises(
    monkeypatch, theta_tilde, eps, x_tilde_scale
):
    # Byte for byte against the closed form; against the formed-gradient
    # oracle, which rounds differently, the step and quantity it ends with.
    state = _huge_memory_instance(monkeypatch, theta_tilde, eps, x_tilde_scale)
    got = _outcome(uoro_step, *state)
    assert got == _outcome(_closed_form_uoro_step, *state)
    assert _ending(got) == _ending(_outcome(_reference_uoro_step, *state))


def test_uoro_step_rejects_workspace_of_another_shape():
    dims, params, x, u, y_star, rng = _instance()
    other = RnnDims(q=dims.q, m=dims.m, p=dims.p + 1)
    with pytest.raises(ValueError, match="workspace is for"):
        uoro_step(params, x, init_memory(dims), u, y_star, _hyper(dims), rng,
                  workspace=UoroWorkspace(other))


@pytest.mark.parametrize("bad", ["x", "u", "y_star"])
@pytest.mark.parametrize("in_place", [False, True])
def test_uoro_step_rejects_inputs_of_another_shape(bad, in_place):
    # A one-entry y_star would broadcast against y without the check.
    dims, params, x, u, y_star, rng = _instance()
    args = {"x": x, "u": u, "y_star": y_star}
    args[bad] = args[bad][:1]
    kwargs = {"workspace": UoroWorkspace(dims)} if in_place else {}
    with pytest.raises(ValueError, match="x, u and y_star have shapes"):
        uoro_step(params, args["x"], init_memory(dims), args["u"],
                  args["y_star"], _hyper(dims), rng, **kwargs)


def test_learner_theta_tilde_wc_block_stays_positive_zero():
    # dtheta_g has no W_c block, so the step adds it into theta_tilde's
    # [W_a | W_b] rows alone. theta_tilde's W_c block must therefore stay
    # the +0.0 of init_memory (+0.0 * (1 / rho0)), as adding the zero block
    # kept it, and the learner chain must stay the pure chain.
    dims, params, x, u, y_star, rng = _instance(q=6, m=9, p=4)
    workspace = UoroWorkspace(dims)
    memory, hyper = init_memory(dims), _hyper(dims)
    pure_params, pure_x, pure_memory = params, x, memory
    data = np.random.default_rng(8)
    for _ in range(300):
        u[1:] = data.standard_normal(dims.m)
        y_star = data.standard_normal(dims.p)
        nu = 2.0 * rng.integers(0, 2, size=dims.q) - 1.0
        out = uoro_step(params, x, memory, u, y_star, hyper, rng, nu=nu,
                        workspace=workspace)
        pure = uoro_step(pure_params, pure_x, pure_memory, u, y_star, hyper,
                         rng, nu=nu)
        _assert_same_step(out, pure)
        params, x, memory = out.params, out.x, out.memory
        pure_params, pure_x, pure_memory = pure.params, pure.x, pure.memory
        wc_block = memory.theta_tilde[dims.n_ab :]
        assert not wc_block.any() and not np.signbit(wc_block).any()
    assert memory.theta_tilde is workspace.theta_tilde


def test_learner_steps_update_the_workspace_weights_in_place():
    # Every step, the first from init_params' own matrices included,
    # returns the workspace's one set of weights and its one memory.
    dims, params, x, u, y_star, rng = _instance()
    workspace = UoroWorkspace(dims)
    memory, hyper = init_memory(dims), _hyper(dims)
    for _ in range(6):
        out = uoro_step(params, x, memory, u, y_star, hyper, rng,
                        workspace=workspace)
        assert out.params is workspace.weights
        assert out.memory is workspace.memory
        assert out.memory.theta_tilde is workspace.theta_tilde
        params, x, memory = out.params, out.x, out.memory


def test_workspace_holds_three_weight_sized_buffers():
    # The weights, the gradient and theta_tilde: dtheta_g goes into the
    # gradient buffer once SGD has consumed it. At q = L = 90
    # (|W| = 81,900) a fourth buffer, even only the [W_a | W_b] block
    # (648 KB), exceeds the eighth of one buffer left for the small
    # vectors, the views and their objects.
    dims = RnnDims(q=90, m=3 * 3 * 90, p=9)
    UoroWorkspace(dims)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        UoroWorkspace(dims)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3 * dims.n_params * 8 + dims.n_params, peak


def test_pure_call_then_learner_step_on_the_same_inputs_agree():
    # |W| = 75 is odd, so a buffer after the first would start 8 bytes off
    # a 16-byte boundary unless the workspace aligns it. The pure call
    # copies the learner's weights and must leave them as they were.
    dims, params, x, u, y_star, rng = _instance(q=5, m=7, p=2)
    hyper, workspace = _hyper(dims), UoroWorkspace(dims)
    memory = init_memory(dims)
    for _ in range(3):
        nu = 2.0 * rng.integers(0, 2, size=dims.q) - 1.0
        pure = uoro_step(params, x, memory, u, y_star, hyper, rng, nu=nu)
        learner = uoro_step(params, x, memory, u, y_star, hyper, rng, nu=nu,
                            workspace=workspace)
        _assert_same_step(pure, learner)
        params, x, memory = learner.params, learner.x, learner.memory
