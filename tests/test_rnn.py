"""Tests for the shared RNN core: shapes, flattening, clipping and the
workspace buffers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    Workspace,
    _ab_diagonal,
    _ab_rows,
    _c_rows,
    _norm,
    clip_gradient,
    flatten_params,
    forward,
    init_params,
    loss,
    tanh_prime,
    unflatten_params,
)
from markerpred.rtrl import RtrlWorkspace
from markerpred.uoro import UoroWorkspace


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


@pytest.mark.parametrize("q, m, p", [(1, 1, 1), (5, 7, 2), (90, 810, 9)])
def test_workspace_buffers_start_on_a_cache_line(q, m, p):
    # The weights, the gradient and UORO's theta_tilde.
    dims = RnnDims(q=q, m=m, p=p)
    for _ in range(20):
        workspace = UoroWorkspace(dims)
        for flat in (workspace.theta, workspace.grad, workspace.theta_tilde):
            assert flat.ctypes.data % 64 == 0
            assert flat.shape == (dims.n_params,)
        assert np.shares_memory(workspace.weights.w_a, workspace.theta)
        assert np.shares_memory(workspace.grad_wc, workspace.grad)


@pytest.mark.parametrize("q, m, p", [(1, 1, 1), (5, 7, 2), (30, 90, 9)])
@pytest.mark.parametrize("layout", ["C-order", "flat vector",
                                    "column-major views alone"])
def test_apply_update_on_other_weights_is_the_flat_subtraction(q, m, p,
                                                               layout):
    # Weights that are not the workspace's own, init_params' C-order
    # matrices or another workspace's views with or without their flat
    # vector, are subtracted from straight into the workspace's buffer:
    # the bits of flat theta - grad, signs of zeros included, and the
    # inputs unwritten.
    dims = RnnDims(q=q, m=m, p=p)
    params = init_params(dims, sigma_init=1.0, seed=3)
    theta = flatten_params(params)
    theta[::7] = -0.0
    if layout == "C-order":
        params = unflatten_params(theta, dims)
        params = RnnParams(*(np.ascontiguousarray(w) for w in
                             (params.w_a, params.w_b, params.w_c)))
    else:
        params = unflatten_params(theta.copy(), dims)
        assert params.theta is not None
        if layout != "flat vector":
            params = RnnParams(params.w_a, params.w_b, params.w_c)
    before = flatten_params(params).tobytes()
    workspace = Workspace(dims)
    workspace.grad[...] = np.random.default_rng(4).standard_normal(
        dims.n_params)
    workspace.grad[::5] = 0.0
    new = workspace.apply_update(params)
    assert new is workspace.weights
    assert workspace.theta.tobytes() == (theta - workspace.grad).tobytes()
    assert flatten_params(params).tobytes() == before


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


def _sentinel_params(dims):
    """W_a, W_b, W_c whose entries are distinct and non-zero."""
    q, m, p = dims.q, dims.m, dims.p
    values = np.arange(1.0, dims.n_params + 1)
    return RnnParams(
        w_a=values[: q * q].reshape(q, q),
        w_b=values[q * q : dims.n_ab].reshape(q, m + 1),
        w_c=values[dims.n_ab :].reshape(p, q),
    )


def _row_of_influence(params, i):
    """flatten_params of params with every weight zeroed except row i of
    W_a and W_b: row i of the state map's parameter Jacobian, in shape."""
    keep = (np.arange(params.w_a.shape[0]) == i)[:, None]
    return flatten_params(RnnParams(w_a=params.w_a * keep,
                                    w_b=params.w_b * keep,
                                    w_c=0.0 * params.w_c))


_odd = st.integers(0, 4).map(lambda i: 2 * i + 1)


@settings(max_examples=40, deadline=None)
@given(q=_odd, m=_odd, p=_odd)
def test_layout_views_address_the_entries_unflatten_params_maps(q, m, p):
    # Sentinel matrices written in through the views must land where
    # flatten_params puts them and read back unchanged, in a bare vector
    # and in every workspace buffer that holds the views.
    dims = RnnDims(q=q, m=m, p=p)
    params = _sentinel_params(dims)
    w_ab = np.hstack((params.w_a, params.w_b))
    theta = flatten_params(params)
    influence = np.stack([_row_of_influence(params, i) for i in range(q)])

    written = np.zeros(dims.n_params)
    _ab_rows(written, dims)[...] = w_ab.T
    _c_rows(written, dims)[...] = params.w_c.T
    assert np.array_equal(written, theta)
    back = unflatten_params(theta, dims)
    assert np.array_equal(_ab_rows(theta, dims), w_ab.T)
    assert np.array_equal(_c_rows(theta, dims), params.w_c.T)
    assert np.array_equal(np.hstack((back.w_a, back.w_b)), w_ab)
    assert np.array_equal(back.w_c, params.w_c)
    matrix = np.zeros((q, dims.n_params))
    _ab_diagonal(matrix, dims)[...] = w_ab
    assert np.array_equal(matrix, influence)
    assert np.array_equal(_ab_diagonal(influence, dims), w_ab)

    uoro, rtrl = UoroWorkspace(dims), RtrlWorkspace(dims)
    for workspace in (Workspace(dims), uoro, rtrl):
        weights = workspace.weights
        for name in ("w_a", "w_b", "w_c"):
            getattr(weights, name)[...] = getattr(params, name)
        assert np.array_equal(workspace.theta, theta)
        workspace.grad[...] = theta
        assert np.array_equal(workspace.grad_wc, params.w_c.T)
    uoro.theta_tilde[...] = theta
    assert np.array_equal(uoro.theta_tilde_ab, w_ab.T)
    # A step writes dtheta_g into the gradient's [W_a | W_b] rows once SGD
    # has consumed the gradient: the view is _ab_rows(grad).
    target, view = uoro.grad_ab, _ab_rows(uoro.grad, dims)
    assert ((target.ctypes.data, target.shape, target.strides)
            == (view.ctypes.data, view.shape, view.strides))
    assert np.array_equal(target, w_ab.T)
    for k in (0, 1):
        rtrl.influence[k][...] = 0.0
        rtrl.diagonals[k][...] = w_ab
        assert np.array_equal(rtrl.influence[k], influence)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_params(np.zeros(11), RnnDims(q=2, m=1, p=1))


def test_nonfinite_error_carries_quantity():
    err = NonFiniteError("loss")
    assert err.quantity == "loss"
    assert "loss" in str(err)
