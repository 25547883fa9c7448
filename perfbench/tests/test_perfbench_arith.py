"""The benchmark's own arithmetic, tracing and stream replay.

    python3 -m pytest perfbench/tests
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
import spans
import stats
import workloads
from markerpred import harness, signal, uoro

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_full_grid_h_matches_hand_count():
    cv_run_s, test_run_s = 0.4, 1.3
    hand = (150 * 50 * 20 * cv_run_s + 300 * 20 * test_run_s) / 3600
    # One CV run per shape over the 25 shapes, one test run.
    assert stats.full_grid_h(25 * cv_run_s, 25, test_run_s, 1) == pytest.approx(hand)
    # Two CV runs per shape and three test runs give the same projection.
    assert stats.full_grid_h(50 * cv_run_s, 50, 3 * test_run_s, 3) == pytest.approx(hand)


def _hand_built_tracer():
    """cli.main [0, 10] calls grid_search [1, 7], which calls
    run_sequence_online [2, 4] and [4.5, 6]; report_from_dir [7.5, 9] has
    no children."""
    tracer = spans.Tracer()
    tracer.names = ["cli.main", "harness.grid_search",
                    "harness.run_sequence_online", "harness.report_from_dir"]
    tracer.span_name = [0, 1, 2, 2, 3]
    tracer.span_start = [0.0, 1.0, 2.0, 4.5, 7.5]
    tracer.span_end = [10.0, 7.0, 4.0, 6.0, 9.0]
    tracer.span_parent = [-1, 0, 1, 1, 0]
    tracer.facts["harness.run_sequence_online"] = {2: 0, 3: 1}
    return tracer


def test_self_times_subtract_direct_children():
    _, durations, parents = _hand_built_tracer().spans()
    np.testing.assert_allclose(
        spans.self_times(durations, parents), [10 - 6 - 1.5, 6 - 2 - 1.5, 2, 1.5, 1.5]
    )


def test_layer_metrics_on_hand_built_tree():
    m = spans.layer_metrics(_hand_built_tracer(), traced_wall_s=12.0,
                            untraced_wall_s=10.0, cpu_s=6.0)
    assert m["cli.main.self_s"] == pytest.approx(2.5)
    assert m["harness.grid_search.self_s"] == pytest.approx(2.5)
    assert m["harness.run_sequence_online.calls"] == 2
    assert m["harness.run_sequence_online.self_s"] == pytest.approx(3.5)
    assert m["harness.report_from_dir.total_s"] == pytest.approx(1.5)
    assert m["harness.runs.diverged"] == 1
    assert m["harness.runs.useful_frac"] == pytest.approx(0.5)
    assert m["harness.cpu_per_wall"] == pytest.approx(0.5)
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    # Functions that never ran, or no longer exist, report zero.
    assert m["uoro.uoro_step.calls"] == 0
    assert m["uoro.uoro_step.p50_us"] == 0


def _small_problem():
    record = signal.synthetic_record(duration_s=75.0, seed=3)
    partition = signal.make_partition(record)
    normalizer = signal.fit_normalizer(record, partition.train)
    return record, partition, normalizer


@pytest.mark.parametrize("algorithm, size, replay", [
    ("uoro", 10, workloads.stream_uoro),
    ("rtrl", 4, workloads.stream_rtrl),
])
def test_stream_predictions_equal_run_sequence_online(algorithm, size, replay):
    record, partition, normalizer = _small_problem()
    h, seed = 5, 7
    hyper = harness.HyperChoice(eta=0.1, sigma_init=0.02, L=size, q=size)
    reference = harness.run_sequence_online(
        algorithm, record, partition, hyper, h, seed,
        scoring_range=partition.test,
    )
    preds, targets, latencies = replay(
        record, normalizer, size, size, h, 0.1, 0.02, seed
    )
    scored = targets >= partition.test.start
    pred_mm = normalizer.denormalize(preds[scored].reshape(-1, record.n_markers, 3))
    assert reference.trace.k_min == targets[scored][0]
    np.testing.assert_array_equal(pred_mm, reference.trace.pred)
    assert latencies.shape == targets.shape and (latencies > 0).all()


def test_tracer_sees_the_stream_and_survives_missing_names(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + ("uoro.no_such_step",))
    record, _, normalizer = _small_problem()
    original = uoro.uoro_step
    with spans.Tracer() as tracer:
        _, targets, _ = workloads.stream_uoro(
            record, normalizer, 10, 10, 5, 0.1, 0.02, 0
        )
    assert uoro.uoro_step is original
    assert harness.uoro_step is original
    m = spans.layer_metrics(tracer, 1.0, 1.0, 1.0)
    assert m["uoro.uoro_step.calls"] == targets.size
    assert m["signal.build_io.calls"] == targets.size
    assert m["uoro.uoro_step.q10L10.p50_us"] > 0
    assert m["uoro.uoro_step.q90L90.p50_us"] == 0
    assert m["rnn.forward.total_s"] > 0


def test_sampler_clock_leaves_out_the_ticks():
    with hostspeed.Sampler() as sampler:
        c0, t0 = sampler.clock(), time.perf_counter()
        while len(sampler.durations) < 3:
            pass
        c1, t1 = sampler.clock(), time.perf_counter()
    ticks = sum(sampler.durations)
    assert ticks > 0
    assert c1 - c0 == pytest.approx((t1 - t0) - ticks, abs=1e-4)


def test_sampler_factor_is_the_reference_over_the_median_tick():
    sampler = hostspeed.Sampler()
    sampler.durations = [0.5, 0.1, 0.2, 0.4]
    ref = hostspeed.REFERENCE_TICK_S
    assert sampler.factor(0) == pytest.approx(ref / 0.3)
    assert sampler.factor(1) == pytest.approx(ref / 0.2)
    assert sampler.mark() == 4
    with pytest.raises(RuntimeError):
        sampler.factor(4)


def test_scaled_pass_converts_every_duration():
    p = workloads.PassResult(
        wall_s=2.0, cpu_s=1.0, ops=3, fingerprint={},
        timings={"run_s": 1.5}, latencies={"uoro": np.array([0.1, 0.3])},
    ).scaled(0.5)
    assert (p.wall_s, p.cpu_s, p.host_speed) == (1.0, 1.0, 0.5)
    assert p.timings == {"run_s": 0.75}
    np.testing.assert_allclose(p.latencies["uoro"], [0.05, 0.15])


def test_compare_reports_each_mismatch():
    expected = {"a": 1.0, "b": [1, "x", None], "c": {"d": 2.0}}
    assert workloads.compare(expected, json.loads(json.dumps(expected)), 0.0) == []
    actual = {"a": 1.0 + 1e-12, "b": [2, "x", None], "c": {"d": 2.1}}
    problems = workloads.compare(expected, actual, 1e-7)
    assert len(problems) == 2
    assert problems[0].startswith("/b[0]") and problems[1].startswith("/c/d")
    assert len(workloads.compare(expected, actual, 0.0)) == 3
    # The tolerance is a share of the expected value, not of the larger one.
    assert workloads.compare(1.0, 1.25, 0.25) == []
    assert len(workloads.compare(1.0, 1.3, 0.25)) == 1
    assert workloads.compare(2.0, 1.0, 0.5) == []
    assert len(workloads.compare(1.0, 2.0, 0.5)) == 1


def test_protocol_accepts_a_near_tie_for_the_chosen_tuple():
    reference = {"chosen": "A", "cv": {"A": [1.0, 0, 1], "B": [1.2, 0, 1],
                                       "C": [2.0, 0, 1]},
                 "test_rmse": [1.5], "test_diverged": 0}
    check = workloads.UoroProtocol(0, None).matches
    assert check(reference, dict(reference, chosen="B")) == []
    assert len(check(reference, dict(reference, chosen="C"))) == 1
    assert check(reference, dict(reference, test_rmse=[1.6])) == []
    assert len(check(reference, dict(reference, test_rmse=[15.0]))) == 1


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
