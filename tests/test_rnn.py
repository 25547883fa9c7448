"""Tests for the shared RNN core: shapes, flattening, clipping, the SGD
update."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    _norm,
    clip_gradient,
    flatten_params,
    forward,
    init_params,
    loss,
    sgd_update,
    tanh_prime,
    unflatten_params,
)


def test_param_count_formula():
    dims = RnnDims(q=90, m=3 * 3 * 70, p=9)
    assert dims.n_params == 90 * (9 + 90 + 3 * 3 * 70 + 1)
    assert dims.n_params == 65_700


def test_param_count_small():
    # q=10, m=91, p=9: 10*10 + 10*92 + 9*10 contributions.
    dims = RnnDims(q=10, m=91, p=9)
    assert dims.n_params == 100 + 920 + 90
    assert dims.n_params == 10 * (9 + 10 + 91 + 1)


def test_dims_reject_nonpositive():
    with pytest.raises(ValueError):
        RnnDims(q=0, m=5, p=3)
    with pytest.raises(ValueError):
        RnnDims(q=4, m=-1, p=3)


def test_init_params_shapes_and_scale():
    dims = RnnDims(q=40, m=60, p=6)
    params = init_params(dims, sigma_init=0.05, seed=7)
    assert params.w_a.shape == (40, 40)
    assert params.w_b.shape == (40, 61)
    assert params.w_c.shape == (6, 40)
    pooled = np.concatenate([params.w_a.ravel(), params.w_b.ravel(), params.w_c.ravel()])
    # Sample std of ~4k draws from N(0, 0.05^2) should sit near 0.05.
    assert abs(pooled.std() - 0.05) < 0.005
    assert abs(pooled.mean()) < 0.005


def test_init_params_deterministic():
    dims = RnnDims(q=8, m=5, p=2)
    a = init_params(dims, sigma_init=0.02, seed=123)
    b = init_params(dims, sigma_init=0.02, seed=123)
    c = init_params(dims, sigma_init=0.02, seed=124)
    assert np.array_equal(a.w_a, b.w_a)
    assert np.array_equal(a.w_b, b.w_b)
    assert np.array_equal(a.w_c, b.w_c)
    assert not np.array_equal(a.w_a, c.w_a)


def test_init_params_rejects_bad_sigma():
    with pytest.raises(ValueError):
        init_params(RnnDims(q=3, m=3, p=3), sigma_init=0.0, seed=0)


def test_forward_matches_direct_computation():
    rng = np.random.default_rng(0)
    dims = RnnDims(q=6, m=4, p=3)
    params = init_params(dims, sigma_init=0.3, seed=1)
    x = rng.standard_normal(6)
    u = rng.standard_normal(5)
    cache = forward(params, x, u)
    z = params.w_a @ x + params.w_b @ u
    assert np.allclose(cache.z, z, rtol=0, atol=0)
    assert np.allclose(cache.x_next, np.tanh(z), rtol=0, atol=0)
    assert np.allclose(cache.y, params.w_c @ np.tanh(z), rtol=0, atol=0)


def test_forward_rejects_bad_shapes():
    params = init_params(RnnDims(q=6, m=4, p=3), sigma_init=0.1, seed=0)
    with pytest.raises(ValueError):
        forward(params, np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        forward(params, np.zeros(6), np.zeros(4))


def test_loss_definition():
    y = np.array([1.0, 2.0, 3.0])
    y_star = np.array([2.0, 2.0, 1.0])
    e, value = loss(y, y_star)
    assert np.array_equal(e, [1.0, 0.0, -2.0])
    assert value == pytest.approx(0.5 * (1 + 4))


def test_tanh_prime_finite_difference():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(50) * 2.0
    eps = 1e-6
    fd = (np.tanh(z + eps) - np.tanh(z - eps)) / (2 * eps)
    assert np.allclose(tanh_prime(z), fd, atol=1e-9)


def test_clip_gradient_over_threshold():
    g = np.array([3.0, 4.0])
    clipped = clip_gradient(g, tau=2.0)
    assert np.linalg.norm(clipped) == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(clipped, [1.2, 1.6])


def test_clip_gradient_under_threshold_identity():
    g = np.array([0.3, -0.4, 0.1])
    clipped = clip_gradient(g, tau=2.0)
    assert clipped is g


def test_norm_equals_numpy_norm_bit_for_bit():
    # The clip and its overshoot guard take norms through `_norm`; it must
    # give np.linalg.norm's value for every memory layout.
    rng = np.random.default_rng(8)
    for shape in ((1,), (17,), (9, 31), (4, 5, 6)):
        for _ in range(20):
            v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150)
            for arr in (v, np.asfortranarray(v), v[..., ::2], v.T):
                assert _norm(arr) == float(np.linalg.norm(arr))


def test_clip_gradient_randomized():
    # Acceptance-style property on a smaller batch: post-clip norm <= tau,
    # under-norm vectors pass through bit-identically.
    rng = np.random.default_rng(42)
    tau = 2.0
    for _ in range(1000):
        g = rng.standard_normal(rng.integers(1, 20)) * rng.uniform(0.01, 5.0)
        out = clip_gradient(g, tau)
        if np.linalg.norm(g) > tau:
            assert np.linalg.norm(out) <= tau + 1e-12
        else:
            assert out is g


# Gradients over many magnitudes, zeros and signed zeros included; the
# scale keeps every squared norm finite, and 1e-160 puts the squares below
# the normal range, where the computed norm is coarse.
_gradients = st.builds(
    lambda g, scale: g * scale,
    arrays(np.float64, st.integers(1, 40),
           elements=st.floats(-1e3, 1e3, allow_nan=False)),
    st.sampled_from([1e-160, 1e-150, 1e-8, 1.0, 1e8, 1e150]),
)


def _assert_positive_multiple(out, g):
    """out = c * g for one c > 0, up to the rounding of the rescaling: every
    entry keeps its sign or underflows to zero, and the entries that stay
    normal numbers share one positive ratio to a few ulps."""
    assert np.all(out * g >= 0) and np.all(out[g == 0] == 0)
    tiny = np.finfo(np.float64).tiny
    normal = (np.abs(g) >= tiny) & (np.abs(out) >= tiny)
    ratios = out[normal] / g[normal]
    assert np.all(ratios > 0)
    if ratios.size:
        assert ratios.max() <= ratios.min() * (1 + 1e-14)


@settings(max_examples=300, deadline=None)
@given(g=_gradients, tau=st.floats(1e-6, 1e6))
def test_clip_gradient_contract(g, tau):
    norm = _norm(g)
    assume(norm > 0)
    tau *= norm  # taus from far below to far above the norm
    out = clip_gradient(g, tau)
    assert _norm(out) <= tau
    if norm <= tau:
        assert out is g
    else:
        assert not np.shares_memory(out, g)
        _assert_positive_multiple(out, g)


@settings(max_examples=300, deadline=None)
@given(g=_gradients, ulps=st.integers(1, 4))
def test_clip_gradient_just_above_tau(g, ulps):
    # A norm a few ulps above tau: the plain rescaling often lands one ulp
    # over tau, and the overshoot guard must bring it back under.
    norm = _norm(g)
    assume(norm > 0)
    tau = norm
    for _ in range(ulps):
        tau = float(np.nextafter(tau, 0.0))
    out = clip_gradient(g, tau)
    assert out is not g
    assert _norm(out) <= tau
    _assert_positive_multiple(out, g)


def test_clip_gradient_overshoot_guard_is_exercised():
    # The property test above reaches the guard only if the plain rescaling
    # overshoots for some inputs; count those cases on a fixed sample.
    rng = np.random.default_rng(3)
    guarded = 0
    for _ in range(500):
        g = rng.standard_normal(rng.integers(1, 30))
        norm = _norm(g)
        tau = float(np.nextafter(norm, 0.0))
        if _norm(g * (tau / norm)) > tau:
            guarded += 1
            out = clip_gradient(g, tau)
            assert _norm(out) <= tau
            _assert_positive_multiple(out, g)
    assert guarded > 0


def test_clip_gradient_ends_when_squares_are_subnormal():
    # Each nudge of the overshoot guard shrinks these entries by an ulp
    # while the norm of their subnormal squares stays put; the guard must
    # still end.
    g = np.array([-3.2386068177416028e-158, 1.126318626198672e-158])
    tau = 3.4288726681155298e-158
    assert _norm(g) > tau
    out = clip_gradient(g, tau)
    assert _norm(out) <= tau
    _assert_positive_multiple(out, g)


@settings(max_examples=200, deadline=None)
@given(
    q=st.integers(1, 6),
    m=st.integers(1, 8),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    eta=st.floats(1e-4, 1.0),
    tau=st.sampled_from([1e-3, 2.0, 1e12]),
)
def test_sgd_update_equals_flat_clipped_step(q, m, p, seed, scale, eta, tau):
    dims = RnnDims(q=q, m=m, p=p)
    params = init_params(dims, sigma_init=0.5, seed=seed)
    grad = np.random.default_rng(seed).standard_normal(dims.n_params) * scale
    before = [w.tobytes() for w in (params.w_a, params.w_b, params.w_c)]
    grad_before = grad.tobytes()

    out = sgd_update(params, grad, _norm(grad), eta, tau)
    ref = unflatten_params(
        flatten_params(params) - eta * clip_gradient(grad, tau), dims
    )
    for got, want in zip((out.w_a, out.w_b, out.w_c),
                         (ref.w_a, ref.w_b, ref.w_c)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert [w.tobytes() for w in (params.w_a, params.w_b, params.w_c)] == before
    assert grad.tobytes() == grad_before
    for w in (out.w_a, out.w_b, out.w_c):
        for source in (params.w_a, params.w_b, params.w_c, grad):
            assert not np.shares_memory(w, source)


@settings(max_examples=100, deadline=None)
@given(
    q=st.integers(1, 6),
    m=st.integers(1, 8),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    eta=st.floats(1e-4, 1.0),
    tau=st.sampled_from([1e-3, 2.0, 1e12]),
)
def test_sgd_update_into_out_equals_fresh_update(q, m, p, seed, eta, tau):
    # A learner's first step subtracts from init_params' C-order matrices
    # into its workspace's column-major views; later steps update those
    # views in place. Both must give the fresh update's bits.
    dims = RnnDims(q=q, m=m, p=p)
    want = init_params(dims, sigma_init=0.5, seed=seed)
    got = want
    own = unflatten_params(np.empty(dims.n_params), dims)
    rng = np.random.default_rng(seed)
    for scale in (1.0, 1e-3):
        grad = scale * rng.standard_normal(dims.n_params)
        want = sgd_update(want, grad, _norm(grad), eta, tau)
        got = sgd_update(got, grad.copy(), _norm(grad), eta, tau, out=own)
        for name in ("w_a", "w_b", "w_c"):
            assert getattr(got, name) is getattr(own, name)
        assert flatten_params(got).tobytes() == flatten_params(want).tobytes()


def test_flatten_is_column_major():
    dims = RnnDims(q=2, m=1, p=1)
    params = init_params(dims, sigma_init=1.0, seed=0)
    theta = flatten_params(params)
    w_a, w_b, w_c = params.w_a, params.w_b, params.w_c
    expected = np.array(
        [
            w_a[0, 0], w_a[1, 0], w_a[0, 1], w_a[1, 1],
            w_b[0, 0], w_b[1, 0], w_b[0, 1], w_b[1, 1],
            w_c[0, 0], w_c[0, 1],
        ]
    )
    assert np.array_equal(theta, expected)


def test_flatten_unflatten_roundtrip():
    dims = RnnDims(q=7, m=11, p=4)
    params = init_params(dims, sigma_init=0.5, seed=5)
    theta = flatten_params(params)
    assert theta.shape == (dims.n_params,)
    back = unflatten_params(theta, dims)
    assert np.array_equal(back.w_a, params.w_a)
    assert np.array_equal(back.w_b, params.w_b)
    assert np.array_equal(back.w_c, params.w_c)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_params(np.zeros(11), RnnDims(q=2, m=1, p=1))


def test_nonfinite_error_carries_quantity():
    err = NonFiniteError("loss")
    assert err.quantity == "loss"
    assert "loss" in str(err)
