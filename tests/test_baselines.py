"""Tests for LMS, least squares, and the no-prediction hold."""

import warnings

import numpy as np
import pytest

from markerpred.baselines import (
    fit_linreg,
    lms_step,
    no_prediction,
    predict_linreg,
)
from markerpred.rnn import NonFiniteError, clip_gradient, loss
from markerpred.signal import (
    MarkerRecord,
    WindowedSample,
    fit_normalizer,
    iter_windows,
    synthetic_record,
)


def _samples(n, m, p, seed=0, w_true=None, noise=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        u = rng.standard_normal(m + 1)
        u[0] = 1.0
        if w_true is None:
            target = rng.standard_normal(p)
        else:
            target = w_true @ u + noise * rng.standard_normal(p)
        out.append(WindowedSample(u=u, target=target, time_index=i, target_index=i + 1))
    return out


def _design(samples):
    """The samples' inputs and targets stacked, one row each, as
    `signal.design_matrix` gives them."""
    return np.stack([s.u for s in samples]), np.stack([s.target for s in samples])


# ------------------------------- LMS ---------------------------------------


def test_lms_step_zero_error_keeps_weights():
    w = np.zeros((2, 5))
    new_w, _, loss_value = lms_step(w, np.ones(5), np.zeros(2), eta=0.1, tau=2.0)
    assert np.array_equal(new_w, w)
    assert loss_value == 0.0


def test_lms_step_zero_rate_keeps_weights():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 5))
    u = rng.standard_normal(5)
    y_star = rng.standard_normal(2)
    new_w, y, _ = lms_step(w, u, y_star, eta=0.0, tau=2.0)
    assert np.array_equal(new_w, w)
    assert np.array_equal(y, w @ u)


def test_lms_step_leaves_inputs_untouched_and_returns_fresh_weights():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((3, 6))
    u = rng.standard_normal(6)
    y_star = rng.standard_normal(3)
    w_before, u_before = w.copy(), u.copy()
    for tau in (1e-3, 1e3):  # clipped and unclipped
        new_w, _, _ = lms_step(w, u, y_star, eta=0.5, tau=tau)
        np.testing.assert_array_equal(w, w_before)
        np.testing.assert_array_equal(u, u_before)
        assert not np.shares_memory(new_w, w)
        assert not np.shares_memory(new_w, u)
        assert not np.array_equal(new_w, w)


def test_lms_step_descends_on_fixed_pair():
    rng = np.random.default_rng(2)
    w = np.zeros((3, 7))
    u = rng.standard_normal(7)
    u[0] = 1.0
    y_star = rng.standard_normal(3)
    losses = []
    for _ in range(10):
        w, _, loss_value = lms_step(w, u, y_star, eta=0.01, tau=2.0)
        losses.append(loss_value)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_lms_step_clips_flattened_gradient():
    w = np.zeros((2, 4))
    u = np.full(4, 10.0)
    y_star = np.full(2, 10.0)
    new_w, _, _ = lms_step(w, u, y_star, eta=1.0, tau=2.0)
    update = w - new_w  # eta = 1
    assert np.linalg.norm(update) <= 2.0 * (1 + 1e-12)


def test_lms_realizable_tracks_true_weights():
    # With the clip inactive and a consistent linear target, the weight
    # error shrinks monotonically over epochs on a fixed batch.
    rng = np.random.default_rng(3)
    m, p = 5, 2
    w_true = rng.standard_normal((p, m + 1))
    batch = _samples(20, m, p, seed=4, w_true=w_true)
    w = np.zeros((p, m + 1))
    dist = [np.linalg.norm(w - w_true)]
    for _ in range(15):
        for s in batch:
            w, _, _ = lms_step(w, s.u, s.target, eta=0.02, tau=1e12)
        dist.append(np.linalg.norm(w - w_true))
    assert all(b < a for a, b in zip(dist, dist[1:]))


def test_lms_step_shape_checks():
    w = np.zeros((2, 4))
    with pytest.raises(ValueError, match="u has shape"):
        lms_step(w, np.zeros(3), np.zeros(2), eta=0.1, tau=2.0)
    with pytest.raises(ValueError, match="y_star has shape"):
        lms_step(w, np.zeros(4), np.zeros(3), eta=0.1, tau=2.0)
    with pytest.raises(ValueError, match="W must be a matrix"):
        lms_step(np.zeros(4), np.zeros(4), np.zeros(1), eta=0.1, tau=2.0)


@pytest.mark.parametrize("eta, tau", [
    (-0.1, 2.0), (np.nan, 2.0), (0.1, 0.0), (0.1, -1.0), (0.1, np.nan),
])
def test_lms_step_rejects_bad_rate_or_clip(eta, tau):
    with pytest.raises(ValueError, match="need eta >= 0 and tau > 0"):
        lms_step(np.zeros((2, 4)), np.ones(4), np.ones(2), eta=eta, tau=tau)


def test_lms_step_nonfinite_detected():
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        lms_step(np.zeros((2, 4)), np.array([1.0, np.inf, 0.0, 0.0]),
                 np.ones(2), eta=0.1, tau=2.0)


def _reference_lms_step(w, u, y_star, eta, tau):
    """The LMS step as composed before its norm was shared: clip_gradient
    on the outer product, then a full finiteness scan of the weights."""
    y = w @ u
    e, loss_value = loss(y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")
    grad = clip_gradient(np.outer(-e, u), tau)
    new_w = w - eta * grad
    if not np.isfinite(new_w).all():
        raise NonFiniteError("weights")
    return new_w, y, loss_value


@pytest.mark.parametrize("eta, tau, clipping", [(0.1, 0.5, True), (0.005, 1e3, False)])
def test_lms_step_matches_reference_over_chained_steps(eta, tau, clipping):
    record = synthetic_record(duration_s=110.0, seed=21)
    norm = fit_normalizer(record, range(0, 300))
    L, h = 10, 5
    samples = list(iter_windows(record, norm, L, h, range(1000)))
    got = want = np.zeros((3 * record.n_markers, 3 * record.n_markers * L + 1))
    n_clipped = 0
    for s in samples:
        e = s.target - want @ s.u
        n_clipped += np.linalg.norm(np.outer(-e, s.u)) > tau
        got, y, loss_value = lms_step(got, s.u, s.target, eta, tau)
        want, want_y, want_loss = _reference_lms_step(want, s.u, s.target,
                                                      eta, tau)
        np.testing.assert_array_equal(y, want_y)
        assert loss_value == want_loss
    np.testing.assert_array_equal(got, want)
    assert (n_clipped > 500) if clipping else (n_clipped == 0)


def test_lms_step_matches_reference_bit_for_bit_at_exact_zeros():
    # One coordinate is constant, so it normalizes to exactly 0: its
    # entries u_j of every window are 0, and so are its target and, from
    # the zero start, its prediction, so its error e_i is 0 at every step.
    # Their products are +0 in the BLAS outer product and may be -0 in
    # np.outer(-e, u); the new weights must be the reference's, signs of
    # zeros included.
    record = synthetic_record(duration_s=60.0, seed=4)
    positions = record.positions.copy()
    positions[:, 1, 2] = 12.5
    record = MarkerRecord(positions=positions,
                          sample_period=record.sample_period)
    with pytest.warns(UserWarning, match="constant"):
        norm = fit_normalizer(record, range(0, 300))
    L = 4
    samples = list(iter_windows(record, norm, L, 3, range(400)))
    assert (samples[0].u[1 + 5 :: 3 * record.n_markers] == 0.0).all()
    p, n_in = 3 * record.n_markers, 3 * record.n_markers * L + 1
    got = want = np.zeros((p, n_in))
    for s in samples:
        got, y, loss_value = lms_step(got, s.u, s.target, 0.3, 0.5)
        want, want_y, want_loss = _reference_lms_step(want, s.u, s.target,
                                                      0.3, 0.5)
        assert y.tobytes() == want_y.tobytes()
        assert loss_value == want_loss
        assert got.tobytes() == want.tobytes()
    assert (got[5] == 0.0).all() and not np.signbit(got[5]).any()


def test_lms_step_accepts_huge_finite_weights():
    # The new weights' squared norm overflows, so finiteness falls back to
    # the full scan, which passes.
    w = np.full((2, 4), 1e200)
    w[:, 0] = 0.0
    u = np.array([1.0, 0.0, 0.0, 0.0])
    y_star = np.array([3.0, -1.0])
    with np.errstate(over="ignore"):
        new_w, _, _ = lms_step(w, u, y_star, eta=0.1, tau=2.0)
        want, _, _ = _reference_lms_step(w, u, y_star, eta=0.1, tau=2.0)
        assert np.isinf(np.linalg.norm(new_w))
    np.testing.assert_array_equal(new_w, want)


@pytest.mark.parametrize("eta", [1.5e308, np.inf])
def test_lms_step_overflowing_weights_raise(eta):
    # A finite loss and a clipped gradient, but eta * grad overflows to inf
    # (and is NaN where the gradient is 0 and eta is inf).
    w = np.zeros((2, 4))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            lms_step(w, u, np.full(2, 10.0), eta=eta, tau=2.0)
        with pytest.raises(NonFiniteError) as ref:
            _reference_lms_step(w, u, np.full(2, 10.0), eta=eta, tau=2.0)
    assert err.value.quantity == ref.value.quantity == "weights"


# --------------------------- linear regression -----------------------------


def test_fit_linreg_realizable_residual():
    rng = np.random.default_rng(5)
    w_true = rng.standard_normal((3, 8))
    samples = _samples(50, m=7, p=3, seed=6, w_true=w_true)
    w = fit_linreg(*_design(samples))
    residual = max(
        np.linalg.norm(predict_linreg(w, s.u) - s.target) for s in samples
    )
    assert residual <= 1e-8


def test_fit_linreg_single_sample_exact():
    sample = _samples(1, m=3, p=2, seed=7)[0]
    with pytest.warns(UserWarning, match="under-determined"):
        w = fit_linreg(*_design([sample]))
    assert np.allclose(predict_linreg(w, sample.u), sample.target, atol=1e-10)


def test_fit_linreg_orthogonal_residuals():
    # Least-squares residuals are orthogonal to the design columns.
    U, Y = _design(_samples(60, m=9, p=4, seed=8))
    w = fit_linreg(U, Y)
    R = Y - U @ w.T
    assert np.linalg.norm(U.T @ R) <= 1e-8 * np.linalg.norm(Y)


def test_fit_linreg_affine_equivariance():
    samples = _samples(40, m=5, p=2, seed=9)
    U, Y = _design(samples)
    base = fit_linreg(U, Y)
    moved = fit_linreg(U, Y + 7.5)
    for s in samples[:5]:
        assert np.allclose(
            predict_linreg(moved, s.u), predict_linreg(base, s.u) + 7.5, atol=1e-8
        )


def test_fit_linreg_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        fit_linreg(np.empty((0, 4)), np.empty((0, 2)))


@pytest.mark.parametrize("u_shape, y_shape", [((5, 4), (4, 2)), ((5, 4), (5,)),
                                              ((4,), (1, 2))])
def test_fit_linreg_rejects_design_of_mismatched_shapes(u_shape, y_shape):
    with pytest.raises(ValueError, match="one row per sample"):
        fit_linreg(np.ones(u_shape), np.ones(y_shape))


def test_predict_linreg_bias_only_returns_intercept():
    w = fit_linreg(*_design(_samples(30, m=4, p=2, seed=10)))
    assert w.shape == (2, 5)
    u = np.zeros(5)
    u[0] = 1.0
    assert np.allclose(predict_linreg(w, u), w[:, 0])
    with pytest.raises(ValueError, match="u has shape"):
        predict_linreg(w, np.zeros(4))


# ----------------------------- no prediction -------------------------------


def _record_from_axis(values):
    positions = np.zeros((len(values), 1, 3))
    positions[:, 0, 0] = values
    return MarkerRecord(positions=positions, sample_period=0.1)


def test_no_prediction_constant_signal():
    record = _record_from_axis(np.full(50, 4.2))
    for h in (1, 5, 10):
        for n in range(0, 30):
            pred = no_prediction(record, h, n)
            assert np.array_equal(pred, record.coords(n + h))


def test_no_prediction_ramp_error():
    slope = 0.3
    record = _record_from_axis(slope * np.arange(100.0))
    h = 7
    for n in (0, 10, 50):
        err = np.linalg.norm(no_prediction(record, h, n) - record.coords(n + h))
        assert err == pytest.approx(slope * h, abs=1e-12)


def test_no_prediction_zero_horizon():
    record = _record_from_axis(np.random.default_rng(11).standard_normal(40))
    for n in range(40):
        assert np.array_equal(no_prediction(record, 0, n), record.coords(n))


def test_no_prediction_sinusoid_worst_phase():
    # Closed form: on amplitude-A period-T sine, the held value trails the
    # truth by at most 2 A |sin(pi h dt / T)|, attained at the worst phase.
    A, T, dt, h = 10.0, 4.0, 0.1, 7
    t = np.arange(400) * dt
    phase = -np.pi * h * dt / T
    record = _record_from_axis(A * np.sin(2 * np.pi * t / T + phase))
    bound = 2 * A * abs(np.sin(np.pi * h * dt / T))
    errors = [
        np.linalg.norm(no_prediction(record, h, n) - record.coords(n + h))
        for n in range(400 - h)
    ]
    assert max(errors) <= bound * (1 + 1e-9)
    assert max(errors) == pytest.approx(bound, rel=1e-9)


def test_no_prediction_out_of_range():
    record = _record_from_axis(np.zeros(20))
    with pytest.raises(IndexError):
        no_prediction(record, 5, 15)
    with pytest.raises(IndexError):
        no_prediction(record, 1, -1)
