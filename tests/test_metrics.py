"""Tests for the metric suite against literal loop-based recomputation."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markerpred.metrics import (
    CiSummary,
    PredictionTrace,
    ci_aggregate,
    ci_per_condition,
    compute_metrics,
    instantaneous_error,
    jitter,
    mae,
    max_error,
    nrmse,
    rmse,
)


def _trace(K=40, n_m=3, seed=0, error_scale=1.0):
    rng = np.random.default_rng(seed)
    true = 10.0 * rng.standard_normal((K, n_m, 3)) + 50.0
    pred = true + error_scale * rng.standard_normal((K, n_m, 3))
    return PredictionTrace(pred=pred, true=true)


def _loop_deltas(trace):
    out = np.empty((trace.n_steps, trace.n_markers))
    for k in range(trace.n_steps):
        for j in range(trace.n_markers):
            d = trace.pred[k, j] - trace.true[k, j]
            out[k, j] = np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
    return out


# ----------------------- per-step error and pooled metrics -----------------


def test_instantaneous_error_perfect():
    true = np.ones((5, 2, 3))
    trace = PredictionTrace(pred=true.copy(), true=true)
    assert instantaneous_error(trace, 0, 0) == 0.0


def test_instantaneous_error_345():
    true = np.zeros((3, 1, 3))
    pred = true.copy()
    pred[1, 0] = [3.0, 4.0, 0.0]
    trace = PredictionTrace(pred=pred, true=true)
    assert instantaneous_error(trace, 1, 0) == pytest.approx(5.0)


def test_instantaneous_error_respects_k_min():
    trace = PredictionTrace(pred=np.zeros((4, 1, 3)), true=np.zeros((4, 1, 3)), k_min=100)
    assert instantaneous_error(trace, 103, 0) == 0.0
    with pytest.raises(IndexError):
        instantaneous_error(trace, 99, 0)
    with pytest.raises(IndexError):
        instantaneous_error(trace, 104, 0)
    with pytest.raises(IndexError):
        instantaneous_error(trace, 100, 1)


def test_instantaneous_error_loop_oracle():
    trace = _trace(seed=1)
    deltas = _loop_deltas(trace)
    for k in (0, 7, 39):
        for j in range(3):
            assert instantaneous_error(trace, k, j) == pytest.approx(
                deltas[k, j], abs=1e-12
            )


def test_rmse_perfect_and_constant():
    true = np.random.default_rng(2).standard_normal((10, 3, 3))
    assert rmse(PredictionTrace(pred=true.copy(), true=true)) == 0.0
    pred = true.copy()
    pred[:, :, 0] += 2.0
    assert rmse(PredictionTrace(pred=pred, true=true)) == pytest.approx(2.0)


def test_mae_perfect_and_constant():
    true = np.random.default_rng(3).standard_normal((10, 3, 3))
    assert mae(PredictionTrace(pred=true.copy(), true=true)) == 0.0
    pred = true.copy()
    pred[:, :, 1] -= 2.0
    assert mae(PredictionTrace(pred=pred, true=true)) == pytest.approx(2.0)


def test_max_error_spike():
    true = np.zeros((8, 3, 3))
    pred = true.copy()
    pred[5, 1, 2] = 7.0
    assert max_error(PredictionTrace(pred=pred, true=true)) == pytest.approx(7.0)


def test_pooled_metrics_match_loop_oracles():
    trace = _trace(K=60, seed=4, error_scale=2.5)
    deltas = _loop_deltas(trace)
    K, n_m = deltas.shape
    assert rmse(trace) == pytest.approx(
        np.sqrt(deltas.ravel() @ deltas.ravel() / (n_m * K)), abs=1e-12
    )
    assert mae(trace) == pytest.approx(deltas.sum() / (n_m * K), abs=1e-12)
    assert max_error(trace) == pytest.approx(deltas.max(), abs=1e-12)


def test_nrmse_perfect_and_mean_predictor():
    trace = _trace(K=50, seed=5)
    perfect = PredictionTrace(pred=trace.true.copy(), true=trace.true)
    assert nrmse(perfect) == 0.0
    mean_pred = np.broadcast_to(
        trace.true.mean(axis=0, keepdims=True), trace.true.shape
    ).copy()
    assert nrmse(PredictionTrace(pred=mean_pred, true=trace.true)) == pytest.approx(1.0)


def test_nrmse_loop_oracle():
    trace = _trace(K=30, seed=6, error_scale=3.0)
    deltas = _loop_deltas(trace)
    mu = trace.true.mean(axis=0)
    denom = 0.0
    for k in range(trace.n_steps):
        for j in range(trace.n_markers):
            denom += np.sum((mu[j] - trace.true[k, j]) ** 2)
    expected = np.sqrt((deltas**2).sum()) / np.sqrt(denom)
    assert nrmse(trace) == pytest.approx(expected, abs=1e-12)


def test_nrmse_constant_truth_rejected():
    true = np.ones((10, 2, 3))
    pred = true + 1.0
    with pytest.raises(ValueError, match="constant"):
        nrmse(PredictionTrace(pred=pred, true=true))


def test_nrmse_translation_invariance():
    trace = _trace(K=25, seed=7)
    shift = np.array([13.0, -4.0, 2.0])
    moved = PredictionTrace(pred=trace.pred + shift, true=trace.true + shift)
    assert nrmse(moved) == pytest.approx(nrmse(trace), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    K=st.integers(2, 40),
    n_m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    error_scale=st.floats(0.1, 10.0),
    shift=st.tuples(*[st.floats(-200.0, 200.0)] * 3),
)
def test_metrics_invariant_under_translation_and_marker_permutation(
    K, n_m, seed, error_scale, shift
):
    # Every metric is a function of the errors and of the predictions'
    # and true positions' motion, all blind to a common translation and
    # to the order of the markers.
    trace = _trace(K=K, n_m=n_m, seed=seed, error_scale=error_scale)
    want = astuple(compute_metrics(trace))
    moved = PredictionTrace(pred=trace.pred + np.array(shift),
                            true=trace.true + np.array(shift))
    assert astuple(compute_metrics(moved)) == pytest.approx(want, rel=1e-9)
    order = np.random.default_rng(seed).permutation(n_m)
    permuted = PredictionTrace(pred=trace.pred[:, order],
                               true=trace.true[:, order])
    assert astuple(compute_metrics(permuted)) == pytest.approx(want, rel=1e-12)


def test_jitter_constant_prediction_is_zero():
    true = np.random.default_rng(8).standard_normal((12, 3, 3))
    pred = np.broadcast_to(np.ones((1, 3, 3)), (12, 3, 3)).copy()
    assert jitter(PredictionTrace(pred=pred, true=true)) == 0.0


def test_jitter_alternating_axis():
    # One marker of three alternates +-1 mm on one axis: each transition
    # moves 2 mm for that marker, 0 for the others, so the pooled mean is
    # 2/3 mm.
    K = 11
    pred = np.zeros((K, 3, 3))
    pred[:, 0, 0] = [(-1.0) ** k for k in range(K)]
    true = np.zeros((K, 3, 3))
    assert jitter(PredictionTrace(pred=pred, true=true)) == pytest.approx(2.0 / 3.0)


def test_jitter_loop_oracle_and_truth_independence():
    trace = _trace(K=40, seed=9)
    total = 0.0
    for k in range(trace.n_steps - 1):
        for j in range(trace.n_markers):
            total += np.linalg.norm(trace.pred[k + 1, j] - trace.pred[k, j])
    expected = total / (trace.n_markers * (trace.n_steps - 1))
    assert jitter(trace) == pytest.approx(expected, abs=1e-12)
    other_truth = PredictionTrace(
        pred=trace.pred, true=np.zeros_like(trace.true)
    )
    assert jitter(other_truth) == jitter(trace)


def test_jitter_needs_two_steps():
    with pytest.raises(ValueError):
        jitter(PredictionTrace(pred=np.zeros((1, 1, 3)), true=np.zeros((1, 1, 3))))


def test_metric_ordering_random_traces():
    rng = np.random.default_rng(10)
    for i in range(200):
        trace = _trace(K=int(rng.integers(2, 30)), seed=1000 + i,
                       error_scale=float(rng.uniform(0.01, 5.0)))
        m = compute_metrics(trace)
        assert 0.0 <= m.mae <= m.rmse <= m.max_error
        assert m.nrmse >= 0.0
        assert m.jitter >= 0.0


def test_metrics_time_offset_invariance():
    trace = _trace(K=20, seed=11)
    moved = PredictionTrace(pred=trace.pred, true=trace.true, k_min=500)
    assert compute_metrics(moved) == compute_metrics(trace)


def test_trace_validation():
    with pytest.raises(ValueError):
        PredictionTrace(pred=np.zeros((3, 2, 3)), true=np.zeros((4, 2, 3)))
    with pytest.raises(ValueError):
        PredictionTrace(pred=np.zeros((0, 2, 3)), true=np.zeros((0, 2, 3)))
    bad = np.zeros((3, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        PredictionTrace(pred=bad, true=np.zeros((3, 2, 3)))


# ----------------------- confidence intervals ------------------------------


def test_ci_identical_values():
    summary = ci_per_condition(np.full(10, 3.3))
    assert summary.mean == pytest.approx(3.3)
    assert summary.half_range == 0.0
    assert summary.n_runs == 10


def test_ci_two_values():
    summary = ci_per_condition(np.array([0.0, 2.0]))
    assert summary.mean == pytest.approx(1.0)
    assert summary.half_range == pytest.approx(1.96)


def test_ci_rejects_single_value():
    with pytest.raises(ValueError):
        ci_per_condition(np.array([1.0]))


def test_ci_coverage_monte_carlo():
    # ~95% of intervals built from Gaussian samples should cover the true
    # mean.
    rng = np.random.default_rng(12)
    mu, sd, n = 3.0, 2.0, 50
    hits = 0
    trials = 2000
    for _ in range(trials):
        summary = ci_per_condition(mu + sd * rng.standard_normal(n))
        hits += abs(summary.mean - mu) <= summary.half_range
    assert 0.93 <= hits / trials <= 0.97


def test_ci_halfrange_scales_inverse_sqrt_n():
    rng = np.random.default_rng(13)
    values = rng.standard_normal(400)
    small = ci_per_condition(values[:100])
    large = ci_per_condition(values)
    # Same order of spread, so quadrupling n should roughly halve the range.
    assert large.half_range < small.half_range


def test_ci_aggregate_single_cell():
    assert ci_aggregate(np.array([[0.37]])) == pytest.approx(0.37)


def test_ci_aggregate_equal_cells():
    grid = np.full((3, 4), 0.5)
    assert ci_aggregate(grid) == pytest.approx(0.5 / np.sqrt(12))


def test_ci_aggregate_explicit_sum():
    rng = np.random.default_rng(14)
    grid = rng.uniform(0.0, 1.0, size=(5, 7))
    total = 0.0
    for row in grid:
        for v in row:
            total += v * v
    assert ci_aggregate(grid) == pytest.approx(np.sqrt(total) / 35, abs=1e-12)


def test_ci_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        ci_aggregate(np.zeros((0, 3)))
