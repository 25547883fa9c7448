"""Tests for the experiment harness: seeding, grid search, evaluation,
aggregation, and the full protocol on synthetic data."""

from __future__ import annotations

import csv
import json
import math
import re
import time

import numpy as np
import pytest

from markerpred import baselines, harness, signal, uoro
from markerpred.harness import (
    ALGORITHMS,
    DEFAULT_GRIDS,
    METRIC_NAMES,
    CiSummary,
    CvResult,
    EvalResult,
    ExperimentConfig,
    HyperChoice,
    RunRecord,
    RunResult,
    aggregate,
    bench_step_time,
    derive_seed,
    evaluate,
    grid_search,
    iter_grid,
    load_dataset,
    partition_scheme,
    read_runs_csv,
    report_from_dir,
    run_experiment,
    run_sequence_online,
    write_runs_csv,
)
from markerpred.baselines import fit_linreg, no_prediction, predict_linreg
from markerpred.metrics import MetricSet, ci_per_condition, compute_metrics
from markerpred.signal import (
    MarkerRecord,
    build_io,
    design_matrix,
    fit_normalizer,
    iter_windows,
    make_partition,
    synthetic_record,
    whole_steps,
    write_record,
)


def _quick_record(seed=0, duration=80.0, label="seq"):
    return synthetic_record(duration_s=duration, seed=seed, label=label)


def _planted_linear_record(n_steps=800, label="planted", seed=1):
    """Noiseless sum of five shared sinusoids per coordinate.

    The signal lives in a 10-dimensional function space (sine and cosine
    of five frequencies), so the 9 coordinates observed at a single step
    cannot pin the state down, while any two consecutive steps (18
    observables) generically can. A linear predictor is therefore exact
    for window length L >= 2 and strictly lossy for L = 1.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(n_steps)
    ws = 2 * np.pi * np.array([0.13, 0.21, 0.27, 0.34, 0.41]) * 0.1
    coords = np.empty((n_steps, 3, 3))
    for j in range(3):
        for axis in range(3):
            amps = rng.uniform(1.0, 3.0, size=5)
            phases = rng.uniform(0, 2 * np.pi, size=5)
            coords[:, j, axis] = sum(
                a * np.sin(w * k + p) for a, w, p in zip(amps, ws, phases)
            )
    return MarkerRecord(
        positions=coords, sample_period=0.1, label=label,
        breathing_class="regular",
    )


def _config(algorithm, tmp_path, **kw):
    defaults = dict(
        algorithm=algorithm,
        horizons_s=(0.4,),
        data_manifest=tmp_path / "dataset.json",
        out_dir=tmp_path / "out",
        n_cv=2,
        n_test=2,
        master_seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ------------------------------ seeding -------------------------------------


def test_derive_seed_is_deterministic_and_sensitive():
    a = derive_seed(0, "seq", 4, "eta=0.1", 0, "cv")
    assert a == derive_seed(0, "seq", 4, "eta=0.1", 0, "cv")
    others = [
        derive_seed(1, "seq", 4, "eta=0.1", 0, "cv"),
        derive_seed(0, "other", 4, "eta=0.1", 0, "cv"),
        derive_seed(0, "seq", 5, "eta=0.1", 0, "cv"),
        derive_seed(0, "seq", 4, "eta=0.2", 0, "cv"),
        derive_seed(0, "seq", 4, "eta=0.1", 1, "cv"),
        derive_seed(0, "seq", 4, "eta=0.1", 0, "test"),
    ]
    assert len({a, *others}) == 7


def test_derive_seed_fits_numpy_seed_range():
    for i in range(50):
        s = derive_seed(i, "x", i)
        assert 0 <= s < 2**63


# ------------------------------ grids ---------------------------------------


def test_default_grid_sizes():
    assert len(iter_grid("uoro", DEFAULT_GRIDS["uoro"])) == 3 * 2 * 5 * 5
    assert len(iter_grid("rtrl", DEFAULT_GRIDS["rtrl"])) == 4 * 3 * 4 * 4
    assert len(iter_grid("lms", DEFAULT_GRIDS["lms"])) == 7 * 5
    assert len(iter_grid("linreg", DEFAULT_GRIDS["linreg"])) == 9
    assert iter_grid("none", DEFAULT_GRIDS["none"]) == [HyperChoice()]


def test_iter_grid_rejects_unknown_axis():
    with pytest.raises(ValueError, match="unknown grid axes"):
        iter_grid("uoro", {"eta": (0.1,), "momentum": (0.9,)})


def test_iter_grid_deduplicates_values():
    assert len(iter_grid("lms", {"eta": (0.1, 0.1), "L": (10,)})) == 1


def test_sort_key_orders_q_then_L_then_eta_then_sigma():
    a = HyperChoice(eta=0.2, sigma_init=0.05, L=90, q=10)
    b = HyperChoice(eta=0.05, sigma_init=0.02, L=10, q=30)
    c = HyperChoice(eta=0.05, sigma_init=0.02, L=30, q=30)
    d = HyperChoice(eta=0.1, sigma_init=0.02, L=30, q=30)
    e = HyperChoice(eta=0.1, sigma_init=0.05, L=30, q=30)
    assert sorted([e, d, c, b, a], key=HyperChoice.sort_key) == [a, b, c, d, e]


def test_partition_scheme_per_algorithm():
    assert partition_scheme("linreg") == "offline_54_6"
    for algo in ("uoro", "rtrl", "lms", "none"):
        assert partition_scheme(algo) == "online_30_30"


# ------------------------------ config --------------------------------------


def test_config_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(ValueError, match="algorithm"):
        _config("sgd", tmp_path)


def test_config_rejects_horizon_beyond_bound(tmp_path):
    # The bound is 2.0 s, the paper's largest horizon, and no field.
    assert _config("uoro", tmp_path, horizons_s=(2.0,)).horizons_s == (2.0,)
    with pytest.raises(ValueError,
                       match=re.escape("horizon 2.5s outside (0, 2.0]s")):
        _config("uoro", tmp_path, horizons_s=(2.5,))
    with pytest.raises(TypeError, match="max_horizon_s"):
        _config("uoro", tmp_path, horizons_s=(2.5,), max_horizon_s=3.0)


@pytest.mark.parametrize("h", [True, "0.5", None])
def test_config_rejects_horizons_that_are_not_numbers(tmp_path, h):
    # True used to pass as a 1 s horizon, and "0.5" to raise a bare
    # TypeError from the bound check.
    with pytest.raises(ValueError,
                       match=re.escape(f"horizons_s takes numbers, got {h!r}")):
        _config("uoro", tmp_path, horizons_s=(0.4, h))


def test_config_rejects_empty_horizons_and_bad_counts(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        _config("uoro", tmp_path, horizons_s=())
    with pytest.raises(ValueError, match=">= 1"):
        _config("uoro", tmp_path, n_cv=0)
    with pytest.raises(ValueError, match="non-empty"):
        _config("uoro", tmp_path, grid={"eta": ()})


@pytest.mark.parametrize("field", ["n_cv", "n_test"])
@pytest.mark.parametrize(
    "value",
    # 2.5 used to fail in range() at the first run, True to mean one run,
    # and "3" to fail with a TypeError from <.
    [2.5, 3.0, True, False, "3", 0, -2, None],
)
def test_config_run_counts_must_be_integers_at_least_one(tmp_path, field, value):
    message = re.escape(f"{field} takes integers >= 1, got {value!r}")
    with pytest.raises(ValueError, match=message):
        _config("uoro", tmp_path, **{field: value})


def test_config_run_counts_accept_numpy_integers(tmp_path):
    cfg = _config("uoro", tmp_path, n_cv=np.int64(3), n_test=np.int32(1))
    assert (cfg.n_cv, cfg.n_test) == (3, 1)


@pytest.mark.parametrize("value", [True, False, "3", 1.5, 3.0, None])
def test_config_master_seed_must_be_an_integer(tmp_path, value):
    # derive_seed hashes str(master_seed): True used to seed apart from 1,
    # and "3" the same as 3.
    message = re.escape(f"master_seed takes integers, got {value!r}")
    with pytest.raises(ValueError, match=message):
        _config("uoro", tmp_path, master_seed=value)


def test_config_stores_numpy_integers_as_python_ints(tmp_path):
    # Stored as a Python int, which the manifest's JSON can hold, and
    # seeding as the same value given as an int.
    cfg = _config("uoro", tmp_path, master_seed=np.int64(3),
                  n_cv=np.int64(2), n_test=np.int32(1))
    assert type(cfg.master_seed) is int and cfg.master_seed == 3
    assert json.dumps([cfg.master_seed, cfg.n_cv, cfg.n_test]) == "[3, 2, 1]"
    assert _config("uoro", tmp_path, master_seed=-7).master_seed == -7


@pytest.mark.parametrize("value", ["no", "yes", 1, 0, None, np.bool_(True)])
def test_config_save_loss_traces_must_be_a_bool(tmp_path, value):
    # "no" used to turn the traces on.
    message = re.escape(f"save_loss_traces takes true or false, got {value!r}")
    with pytest.raises(ValueError, match=message):
        _config("uoro", tmp_path, save_loss_traces=value)


@pytest.mark.parametrize(
    "algorithm, grid, missing, unknown",
    [
        # Used to fail with a TypeError at the first run.
        ("uoro", {"eta": (0.1,), "L": (10,), "q": (10,)}, ["sigma_init"], []),
        # Used to run identical tuples under different keys.
        ("lms", {"eta": (0.1,), "L": (10,), "q": (10, 30)}, [], ["q"]),
        ("linreg", {"eta": (0.1, 0.2), "L": (10,)}, [], ["eta"]),
        ("none", {"L": (10,)}, [], ["L"]),
        ("rtrl", {"eta": (0.1,), "sigma_init": (0.02,), "L": (10,),
                  "momentum": (0.9,)}, ["q"], ["momentum"]),
    ],
)
def test_grid_axes_must_match_algorithm(tmp_path, algorithm, grid, missing,
                                        unknown):
    message = re.escape(f"missing {missing}, unknown grid axes {unknown}")
    with pytest.raises(ValueError, match=message):
        _config(algorithm, tmp_path, grid=grid)
    with pytest.raises(ValueError, match=message):
        iter_grid(algorithm, grid)


_RTRL_GRID = {"eta": (0.1,), "sigma_init": (0.02,), "L": (10,), "q": (10,)}


@pytest.mark.parametrize(
    "algorithm, axis, value, kind",
    [
        # A negative learning rate used to train RTRL by gradient ascent.
        ("rtrl", "eta", -0.1, "finite numbers > 0"),
        ("uoro", "eta", 0.0, "finite numbers > 0"),
        ("lms", "eta", float("nan"), "finite numbers > 0"),
        ("rtrl", "sigma_init", 0.0, "finite numbers > 0"),
        ("uoro", "sigma_init", -0.02, "finite numbers > 0"),
        # An infinite value used to be accepted, and each of its runs then
        # diverged.
        ("uoro", "eta", float("inf"), "finite numbers > 0"),
        ("rtrl", "sigma_init", float("inf"), "finite numbers > 0"),
        # Used to fail with a TypeError deep in iter_windows.
        ("rtrl", "L", 2.5, "integers >= 1"),
        ("linreg", "L", 0, "integers >= 1"),
        ("lms", "L", 10.0, "integers >= 1"),
        ("uoro", "q", -3, "integers >= 1"),
        ("rtrl", "q", True, "integers >= 1"),
        ("uoro", "eta", "0.1", "finite numbers > 0"),
    ],
)
def test_grid_values_must_be_ones_the_learners_take(tmp_path, algorithm, axis,
                                                    value, kind):
    grid = {k: v for k, v in _RTRL_GRID.items() if k in DEFAULT_GRIDS[algorithm]}
    grid[axis] = (grid[axis][0], value)
    message = re.escape(f"{algorithm} grid axis {axis} (") + ".*" + re.escape(
        f") takes {kind}, got {value!r}")
    with pytest.raises(ValueError, match=message):
        _config(algorithm, tmp_path, grid=grid)
    with pytest.raises(ValueError, match=message):
        iter_grid(algorithm, grid)


def test_grid_accepts_numpy_scalars(tmp_path):
    grid = {"eta": (np.float64(0.1),), "sigma_init": (0.02,),
            "L": (np.int64(10),), "q": (10,)}
    assert _config("rtrl", tmp_path, grid=grid).grid == grid
    assert len(iter_grid("rtrl", grid)) == 1


def test_config_rejects_repeated_horizon(tmp_path):
    with pytest.raises(ValueError, match=r"horizon 0\.4s is listed more than once"):
        _config("lms", tmp_path, horizons_s=(0.4, 1.0, 0.4))


def test_config_default_grid_lookup(tmp_path):
    assert _config("rtrl", tmp_path).effective_grid() == DEFAULT_GRIDS["rtrl"]
    grid = {"eta": (0.1,), "sigma_init": (0.02,), "L": (10,), "q": (10,)}
    assert _config("rtrl", tmp_path, grid=grid).effective_grid() == grid


# ------------------------------ run_sequence_online -------------------------


def test_none_trace_equals_held_last_position():
    record = _quick_record()
    partition = make_partition(record, "online_30_30")
    h = 5
    out = run_sequence_online("none", record, partition, HyperChoice(), h, seed=0)
    assert not out.diverged
    assert out.trace.k_min == partition.test.start
    assert out.trace.n_steps == len(partition.test)
    for offset, k in enumerate([600, 640, record.n_steps - 1]):
        expected = no_prediction(record, h, k - h).reshape(3, 3)
        got = out.trace.pred[k - out.trace.k_min]
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(out.trace.true[k - out.trace.k_min],
                                      record.positions[k])


def test_same_seed_gives_bit_identical_traces():
    record = _quick_record(seed=2)
    partition = make_partition(record, "online_30_30")
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    a = run_sequence_online("uoro", record, partition, hyper, h=4, seed=99)
    b = run_sequence_online("uoro", record, partition, hyper, h=4, seed=99)
    assert np.array_equal(a.trace.pred, b.trace.pred)
    c = run_sequence_online("uoro", record, partition, hyper, h=4, seed=100)
    assert not np.array_equal(a.trace.pred, c.trace.pred)


def _reference_trace(algorithm, record, partition, hyper, h, scoring):
    """The trace of one run assembled sample by sample: each example from
    `iter_windows` (or the held position), the learner's or the fitted
    weights' prediction, mapped back to mm on its own, kept when its target
    lands in `scoring`."""
    if algorithm == "none":
        return {k: no_prediction(record, h, k - h).reshape(-1, 3)
                for k in scoring if k >= h}
    norm = fit_normalizer(record, partition.train)
    L, p = hyper.L, 3 * record.n_markers
    samples = iter_windows(record, norm, L, h,
                           range(scoring.stop - (L + h - 1)))
    if algorithm == "linreg":
        w = fit_linreg(*design_matrix(record, norm, L, h,
                                      partition.train.stop - (L + h - 1)))
        predict = lambda u, target: predict_linreg(w, u)
    else:
        step = harness._learner(algorithm, (hyper,), (1,), p * L, p)
        # An LMS learner is a batch, here of one: its y is 1 x p.
        predict = lambda u, target: step(u, target)[0].reshape(p)
    trace = {}
    for s in samples:
        y = predict(s.u, s.target)
        if s.target_index in scoring:
            trace[s.target_index] = norm.denormalize(y.reshape(-1, 3))
    return trace


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("where", ["cross-validation", "from step 0"])
def test_trace_covers_exactly_the_scoring_range(algorithm, where):
    # Row k - k_min of the trace is the prediction of step k, bit for bit
    # the per-sample one. A range that starts before the first reachable
    # target is scored from that target on: step L + h - 1 for a window of
    # L steps, step h for the hold.
    record = _quick_record(seed=4)
    partition = make_partition(record, partition_scheme(algorithm))
    hyper, h = HyperChoice(eta=0.05, sigma_init=0.02, L=10, q=10), 3
    first = h if algorithm == "none" else hyper.L + h - 1
    if where == "cross-validation":
        scoring = partition.cross_validation
        k_min = scoring.start
    else:
        scoring, k_min = range(0, 80), first
    out = run_sequence_online(algorithm, record, partition, hyper, h, seed=1,
                              scoring_range=scoring)
    assert (out.trace.k_min, out.trace.n_steps) == (k_min, scoring.stop - k_min)
    want = _reference_trace(algorithm, record, partition, hyper, h, scoring)
    assert sorted(want) == list(range(k_min, scoring.stop))
    for k, pred in want.items():
        np.testing.assert_array_equal(out.trace.pred[k - k_min], pred)
        np.testing.assert_array_equal(out.trace.true[k - k_min],
                                      record.positions[k])


def _no_step(*args, **kwargs):
    raise AssertionError("a rejected scoring range ran a step")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scoring", [range(700, 900), range(799, 801)])
def test_scoring_range_past_the_record_is_rejected_before_any_step(
    monkeypatch, algorithm, scoring
):
    # The record has 800 steps, 0-799: a range reaching step 800 or later
    # asks for targets that do not exist. It is rejected up front, naming
    # the range and the record's length, not by the windowing or the hold
    # partway through the run. A range ending at the last step is scored.
    record = _quick_record()
    assert record.n_steps == 800
    partition = make_partition(record, "online_30_30")
    hyper, h = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10), 5
    message = (f"{algorithm}: scoring range {scoring} runs past the end of "
               f"the record, which has 800 steps")
    with monkeypatch.context() as patched:
        for name in ("fit_normalizer", "_window_stream", "_learner"):
            patched.setattr(harness, name, _no_step)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sequence_online(algorithm, record, partition, hyper, h,
                                seed=0, scoring_range=scoring)
    out = run_sequence_online(algorithm, record, partition, hyper, h, seed=0,
                              scoring_range=range(790, 800))
    assert (out.trace.k_min, out.trace.n_steps) == (790, 10)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("where", ["empty", "before the first target",
                                   "step 2", "descending"])
def test_scoring_range_without_a_reachable_target_is_rejected_before_any_step(
    monkeypatch, algorithm, where
):
    # A range with no reachable target has nothing to score. The first
    # reachable target is step h for the hold and step L + h - 1 for a
    # window of L steps; a range ending there is accepted. A range whose
    # step is not 1 is rejected too: the trace covers consecutive steps.
    record = _quick_record()
    partition = make_partition(record, "online_30_30")
    hyper, h = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10), 5
    first = h if algorithm == "none" else hyper.L + h - 1
    scoring = {
        "empty": range(100, 100),
        "before the first target": range(0, first),
        "step 2": range(600, 700, 2),
        "descending": range(700, 600, -1),
    }[where]
    if scoring.step != 1:
        message = f"{algorithm}: scoring range {scoring} must have step 1"
    else:
        message = (f"{algorithm}: scoring range {scoring} unreachable with "
                   f"L=10, h=5: the first reachable target is step {first}")
    with monkeypatch.context() as patched:
        for name in ("fit_normalizer", "_window_stream", "_learner"):
            patched.setattr(harness, name, _no_step)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_sequence_online(algorithm, record, partition, hyper, h,
                                seed=0, scoring_range=scoring)
    out = run_sequence_online(algorithm, record, partition, hyper, h, seed=0,
                              scoring_range=range(0, first + 1))
    assert (out.trace.k_min, out.trace.n_steps) == (first, 1)


def test_cv_scoring_never_reads_test_data():
    base = _quick_record(seed=6)
    partition = make_partition(base, "online_30_30")
    tampered = base.positions.copy()
    tampered[partition.test.start:] += 500.0
    other = MarkerRecord(positions=tampered, sample_period=base.sample_period,
                         label=base.label, breathing_class=base.breathing_class)
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    for algo in ("uoro", "rtrl", "lms"):
        a = run_sequence_online(algo, base, partition, hyper, h=4, seed=3,
                                scoring_range=partition.cross_validation)
        b = run_sequence_online(algo, other, partition, hyper, h=4, seed=3,
                                scoring_range=partition.cross_validation)
        assert np.array_equal(a.trace.pred, b.trace.pred)


def test_linreg_cv_scoring_never_reads_test_data():
    """The fit uses the training range and cross-validation windows end
    before the test range, so tampering with test data changes nothing."""
    base = _quick_record(seed=7)
    partition = make_partition(base, "offline_54_6")
    tampered = base.positions.copy()
    tampered[partition.test.start:] += 500.0
    other = MarkerRecord(positions=tampered, sample_period=base.sample_period,
                         label=base.label, breathing_class=base.breathing_class)
    a = run_sequence_online("linreg", base, partition, HyperChoice(L=10), h=4,
                            seed=0, scoring_range=partition.cross_validation)
    b = run_sequence_online("linreg", other, partition, HyperChoice(L=10), h=4,
                            seed=0, scoring_range=partition.cross_validation)
    assert np.array_equal(a.trace.pred, b.trace.pred)


def test_linreg_fit_actually_depends_on_training_range():
    base = _quick_record(seed=7)
    partition = make_partition(base, "offline_54_6")
    tampered = base.positions.copy()
    tampered[: partition.train.stop // 2] += 5.0
    other = MarkerRecord(positions=tampered, sample_period=base.sample_period,
                         label=base.label, breathing_class=base.breathing_class)
    a = run_sequence_online("linreg", base, partition, HyperChoice(L=10), h=4,
                            seed=0, scoring_range=partition.cross_validation)
    b = run_sequence_online("linreg", other, partition, HyperChoice(L=10), h=4,
                            seed=0, scoring_range=partition.cross_validation)
    assert not np.array_equal(a.trace.pred, b.trace.pred)


def test_linreg_without_a_training_window_names_what_it_fit():
    # A grid's L that leaves no training anchor used to fail with a bare
    # "cannot fit on an empty sample collection".
    record = _quick_record()
    partition = make_partition(record, "offline_54_6")
    assert partition.train.stop <= 600 + 4 - 1
    with pytest.raises(ValueError, match=re.escape(
            "cannot fit on an empty sample collection (sequence 'seq', "
            "L=600, h=4 steps)")):
        run_sequence_online("linreg", record, partition, HyperChoice(L=600),
                            h=4, seed=0)


def test_online_methods_keep_learning_into_the_test_range():
    """Weights keep changing during scoring, so altering early test data
    must alter later test predictions."""
    base = _quick_record(seed=8)
    partition = make_partition(base, "online_30_30")
    tampered = base.positions.copy()
    tampered[620:640] += 5.0
    other = MarkerRecord(positions=tampered, sample_period=base.sample_period,
                         label=base.label, breathing_class=base.breathing_class)
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    a = run_sequence_online("lms", base, partition, hyper, h=4, seed=3)
    b = run_sequence_online("lms", other, partition, hyper, h=4, seed=3)
    k_probe = 700 - a.trace.k_min
    assert not np.array_equal(a.trace.pred[k_probe], b.trace.pred[k_probe])


def test_run_rejects_bad_arguments():
    record = _quick_record()
    partition = make_partition(record, "online_30_30")
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_sequence_online("gru", record, partition, HyperChoice(), 4, 0)
    with pytest.raises(ValueError, match="h must be"):
        run_sequence_online("none", record, partition, HyperChoice(), 0, 0)
    with pytest.raises(ValueError, match="history length"):
        run_sequence_online("lms", record, partition, HyperChoice(eta=0.1), 4, 0)


@pytest.mark.parametrize("algorithm, field", [
    (algorithm, field) for algorithm in ALGORITHMS
    for field in DEFAULT_GRIDS[algorithm]
])
def test_run_names_missing_hyper_field(algorithm, field):
    # Each field of the algorithm's shipped grid is required, and a call
    # without one must say which, not fail later inside RnnDims or
    # init_params.
    record = _quick_record()
    partition = make_partition(record, partition_scheme(algorithm))
    full = {k: values[0] for k, values in DEFAULT_GRIDS[algorithm].items()}
    hyper = HyperChoice(**{**full, field: None})
    with pytest.raises(ValueError, match=rf"^{algorithm} requires {field} \("):
        run_sequence_online(algorithm, record, partition, hyper, 4, 0)


def test_run_names_every_missing_field_and_ignores_extra_ones():
    record = _quick_record()
    partition = make_partition(record, "online_30_30")
    with pytest.raises(ValueError) as info:
        run_sequence_online("uoro", record, partition, HyperChoice(L=10), 4, 0)
    assert str(info.value) == (
        "uoro requires eta (learning rate), sigma_init (initial weight "
        "scale), q (hidden state size)"
    )
    plain = run_sequence_online("lms", record, partition,
                                HyperChoice(eta=0.05, L=10), 4, 0)
    extra = run_sequence_online("lms", record, partition,
                                HyperChoice(eta=0.05, L=10, q=7,
                                            sigma_init=0.3), 4, 0)
    np.testing.assert_array_equal(extra.trace.pred, plain.trace.pred)


@pytest.mark.parametrize("algorithm, field, value, kind", [
    # L = 2.5 used to fail with a TypeError inside range().
    ("linreg", "L", 2.5, "integers >= 1"),
    ("lms", "L", 2.5, "integers >= 1"),
    ("uoro", "L", 2.5, "integers >= 1"),
    ("uoro", "q", 0, "integers >= 1"),
    ("lms", "eta", -0.05, "finite numbers > 0"),
    ("uoro", "sigma_init", float("nan"), "finite numbers > 0"),
    ("lms", "eta", float("inf"), "finite numbers > 0"),
    ("uoro", "sigma_init", float("inf"), "finite numbers > 0"),
])
def test_run_rejects_hyper_values_its_grid_would_reject(algorithm, field,
                                                        value, kind):
    # The same per-value rule as a grid axis, naming the field.
    record = _quick_record()
    partition = make_partition(record, partition_scheme(algorithm))
    full = {k: values[0] for k, values in DEFAULT_GRIDS[algorithm].items()}
    hyper = HyperChoice(**{**full, field: value})
    message = re.escape(f"{algorithm} HyperChoice field {field} (") + ".*" + (
        re.escape(f") takes {kind}, got {value!r}"))
    with pytest.raises(ValueError, match=message):
        run_sequence_online(algorithm, record, partition, hyper, 4, 0)


def test_collect_loss_returns_aligned_trace():
    record = _quick_record(seed=9)
    partition = make_partition(record, "online_30_30")
    hyper = HyperChoice(eta=0.05, L=10)
    out = run_sequence_online("lms", record, partition, hyper, h=4, seed=0,
                              collect_loss=True)
    assert out.loss_start == 10 + 4 - 1
    last_target = record.n_steps - 1
    assert out.loss_start + len(out.losses) - 1 == last_target
    assert np.all(np.isfinite(out.losses))


# ------------------------------ window stream ------------------------------


# (L, horizons in steps, stop): 80 s at 10 Hz is 800 steps. The anchor
# counts, stop - L - min(hs) + 1, are 793, 705 and 588: each crosses many
# block edges, and none is a multiple of the block (8). The last case is
# an LMS batch across horizons whose stream ends at the cross-validation
# range's end, so the record goes on past stop.
@pytest.mark.parametrize("L, hs, stop", [
    (1, (7,), 800), (90, (6,), 800), (10, (8, 3, 20, 3), 600),
])
def test_window_stream_rows_equal_iter_windows(L, hs, stop):
    # Every (u, y_star) row of the block stream is the example iter_windows
    # makes at that anchor, byte for byte: u at the shortest horizon, and
    # with several horizons each slot's target row at its own horizon,
    # NaN past its last anchor, which is that of the example whose target
    # is step stop - 1. iter_windows reads the same blocks, so its
    # examples are held to build_io's, which assembles each one alone.
    record = _quick_record(seed=2)
    normalizer = fit_normalizer(record, range(300))
    h = min(hs)
    n_anchors = stop - L - h + 1
    assert n_anchors > 2 * signal._WINDOW_BLOCK
    assert n_anchors % signal._WINDOW_BLOCK
    rows = [(n, u.copy(), y_star.copy()) for n, u, y_star
            in harness._window_stream(record, normalizer, L, hs, stop)]
    assert [n for n, _, _ in rows] == list(range(n_anchors))
    want = list(iter_windows(record, normalizer, L, h, range(n_anchors)))
    for (n, u, y_star), sample in zip(rows, want):
        alone = build_io(record, normalizer, L, h, n)
        assert sample.u.tobytes() == alone.u.tobytes()
        assert sample.target.tobytes() == alone.target.tobytes()
        assert u.tobytes() == sample.u.tobytes()
        if len(set(hs)) == 1:
            assert y_star.tobytes() == sample.target.tobytes()
    if len(set(hs)) == 1:
        return
    for s, h_slot in enumerate(hs):
        last = stop - L - h_slot
        slot = list(iter_windows(record, normalizer, L, h_slot,
                                 range(last + 1)))
        assert slot[-1].target_index == stop - 1
        for (n, _, y_star), sample in zip(rows, slot):
            assert y_star[s].tobytes() == sample.target.tobytes()
        tail = np.array([y_star[s] for n, _, y_star in rows[last + 1 :]])
        assert len(tail) == n_anchors - 1 - last
        assert np.isnan(tail).all()


def test_linreg_underdetermined_warning_names_sequence_history_and_horizon():
    record = _quick_record(seed=7, label="breath-07")
    partition = make_partition(record, "offline_54_6")
    # 54 s of training steps hold 540 - (90 + 4 - 1) = 447 windows of
    # 3 * 3 * 90 + 1 = 811 inputs.
    with pytest.warns(UserWarning, match=(
        r"^under-determined least squares: 447 samples for 811 inputs "
        r"\(sequence 'breath-07', L=90, h=4 steps\); "
    )):
        run_sequence_online("linreg", record, partition, HyperChoice(L=90),
                            h=4, seed=0)


# ------------------------------ grid search ---------------------------------


def test_grid_search_single_tuple_is_chosen():
    record = _quick_record(seed=10)
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (0.05,), "L": (10,)}, n_cv=3, n_test=1, master_seed=0,
    )
    results = grid_search("lms", record, (0.4,), cfg)
    cv = results[0.4]
    assert cv.chosen == HyperChoice(eta=0.05, L=10)
    assert len(cv.entries) == 1
    assert cv.entries[0].n_runs == 1  # deterministic method: one run
    assert math.isfinite(cv.entries[0].mean_rmse)


def test_grid_search_planted_linear_model_selects_sufficient_window():
    record = _planted_linear_record()
    cfg = ExperimentConfig(
        algorithm="linreg", horizons_s=(0.5,), data_manifest="x", out_dir="y",
        grid={"L": (1, 2, 5)}, n_cv=1, n_test=1, master_seed=0,
    )
    cv = grid_search("linreg", record, (0.5,), cfg)[0.5]
    assert cv.chosen.L >= 2
    by_L = {e.hyper.L: e.mean_rmse for e in cv.entries}
    assert by_L[cv.chosen.L] < 1e-6
    assert by_L[1] > 1e-1
    assert by_L[2] < 1e-6 and by_L[5] < 1e-6


def test_grid_search_tie_breaks_toward_smaller_q_then_L(monkeypatch):
    record = _quick_record(seed=11)
    partition = make_partition(record, "online_30_30")
    fixed = run_sequence_online("none", record, partition, HyperChoice(), 4, 0)

    def fake_run(algorithm, rec, part, hyper, h, seed, scoring_range=None,
                 collect_loss=False, weights=None):
        return fixed

    monkeypatch.setattr("markerpred.harness.run_sequence_online", fake_run)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (0.2, 0.05), "sigma_init": (0.05, 0.02),
              "L": (30, 10), "q": (50, 20)},
        n_cv=1, n_test=1, master_seed=0,
    )
    cv = grid_search("uoro", record, (0.4,), cfg)[0.4]
    rmses = {e.mean_rmse for e in cv.entries}
    assert len(rmses) == 1  # exact tie across all 16 tuples
    assert cv.chosen == HyperChoice(eta=0.05, sigma_init=0.02, L=10, q=20)


def test_grid_search_excludes_fully_diverged_tuple_with_warning():
    record = _quick_record(seed=12, duration=70.0)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (0.1, 1e300), "sigma_init": (0.02,), "L": (5,), "q": (5,)},
        n_cv=2, n_test=1, master_seed=0,
    )
    with pytest.warns(UserWarning, match="excluded"):
        cv = grid_search("uoro", record, (0.4,), cfg)[0.4]
    assert cv.chosen.eta == 0.1
    bad = next(e for e in cv.entries if e.hyper.eta == 1e300)
    assert math.isnan(bad.mean_rmse)
    assert bad.n_diverged == bad.n_runs == 2
    good = next(e for e in cv.entries if e.hyper.eta == 0.1)
    assert good.n_diverged == 0


def test_lms_grid_search_batches_equal_per_tuple_runs():
    # The LMS tuples that share L step as one batch; every entry, in grid
    # order, must be the one its tuple's own run gives, a planted
    # diverging rate included, and the test phase must be its own run.
    record = _quick_record(seed=12)
    partition = make_partition(record, "online_30_30")
    grid = {"eta": (0.01, 1e300, 0.1), "L": (10, 30)}
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.4, 1.0), data_manifest="x",
        out_dir="y", grid=grid, n_cv=3, n_test=3, master_seed=4,
    )
    with pytest.warns(UserWarning, match="excluded"):
        results = grid_search("lms", record, (0.4, 1.0), cfg)
    for h_s, cv in results.items():
        h = whole_steps(h_s, record.sample_period, "horizon")
        assert [e.hyper for e in cv.entries] == iter_grid("lms", grid)
        for entry in cv.entries:
            alone = run_sequence_online(
                "lms", record, partition, entry.hyper, h, seed=0,
                scoring_range=partition.cross_validation)
            assert entry.n_runs == 1
            if entry.hyper.eta == 1e300:
                assert alone.diverged and math.isnan(entry.mean_rmse)
                assert entry.diverged_at == (alone.diverged_at,)
                assert entry.diverged_quantity == (alone.diverged_quantity,)
            else:
                assert entry.mean_rmse == compute_metrics(alone.trace).rmse
                assert (entry.diverged_at, entry.diverged_quantity) == ((), ())
        result = evaluate("lms", record, cv.chosen, h_s, cfg)
        alone = run_sequence_online("lms", record, partition, cv.chosen, h,
                                    seed=result.runs[0].seed)
        assert result.runs[0].metrics == compute_metrics(alone.trace)


def _shipped_tasks(algorithm, phase, hs=(4,), n_cv=3, n_test=4, master_seed=9):
    """The task list of a phase over the shipped grid ("cv") or its first
    tuple ("test"), at the horizons hs in steps on a sequence labelled
    "seq"."""
    cfg = ExperimentConfig(
        algorithm=algorithm, horizons_s=(0.4,), data_manifest="x",
        out_dir="y", n_cv=n_cv, n_test=n_test, master_seed=master_seed,
    )
    grid = iter_grid(algorithm, DEFAULT_GRIDS[algorithm])
    if phase == "test":
        grid = grid[:1]
    return grid, harness._task_list(algorithm, "seq", grid, hs, cfg, phase)


# Horizon lists in steps: one, two (listed longest first) and four.
_TASK_HORIZONS = [(4,), (10, 4), (1, 4, 10, 20)]


@pytest.mark.parametrize(
    "algorithm, phase, n_tasks, n_runs",
    [
        # At one horizon: 3 rates x 2 scales x 5 L x 5 q, n_cv = 3 runs each.
        ("uoro", "cv", 450, 450),
        ("uoro", "test", 4, 4),
        # 4 x 3 x 4 x 4 tuples.
        ("rtrl", "cv", 576, 576),
        ("rtrl", "test", 4, 4),
        # 7 rates x 5 L, one run each, one batch per L.
        ("lms", "cv", 5, 35),
        ("lms", "test", 1, 1),
        ("linreg", "cv", 9, 9),
        ("linreg", "test", 1, 1),
        ("none", "cv", 1, 1),
        ("none", "test", 1, 1),
    ],
)
def test_task_list_counts_equal_a_hand_count(algorithm, phase, n_tasks, n_runs):
    # H horizons make H times the runs. The LMS cross-validation batches
    # stay one per L, each holding 7 x H runs; every other run, the LMS
    # test runs among them, is a task of its own.
    for hs in _TASK_HORIZONS:
        _, tasks = _shipped_tasks(algorithm, phase, hs)
        H = len(hs)
        assert sum(len(task) for task in tasks) == n_runs * H
        if algorithm == "lms" and phase == "cv":
            assert len(tasks) == n_tasks
            assert [len(task) for task in tasks] == [7 * H] * n_tasks
        else:
            assert len(tasks) == n_tasks * H
            assert all(len(task) == 1 for task in tasks)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("phase", ["cv", "test"])
def test_task_list_seeds_order_and_shared_history(algorithm, phase):
    for hs in _TASK_HORIZONS:
        grid, tasks = _shipped_tasks(algorithm, phase, hs)
        runs = [run for task in tasks for run in task]
        # Every (horizon, tuple, run) once, each with its own derived seed,
        # the one a task list of its horizon alone gives it.
        assert len(runs) == len({(h, i, r) for h, i, r, _ in runs})
        for h, i, r, seed in runs:
            assert seed == derive_seed(9, "seq", h, grid[i].key(), r, phase)
        alone = {run for h in hs
                 for task in _shipped_tasks(algorithm, phase, (h,))[1]
                 for run in task}
        assert set(runs) == alone

        def order(run):
            h, i, r, _ = run
            return hs.index(h), i, r

        # A task's runs step as one learner, so they read one window stream.
        for task in tasks:
            assert len({grid[i].L for _, i, _, _ in task}) == 1
            assert list(task) == sorted(task, key=order)
        # Horizon-major in the listed order, then tuple-major, run-minor,
        # by each task's first run.
        firsts = [task[0] for task in tasks]
        assert firsts == sorted(firsts, key=order)
        if algorithm != "lms" or phase == "test":
            assert runs == sorted(runs, key=order)
            assert all(len(task) == 1 for task in tasks)


def test_task_list_batches_the_lms_rates_of_each_history():
    etas = DEFAULT_GRIDS["lms"]["eta"]
    for hs in _TASK_HORIZONS:
        grid, tasks = _shipped_tasks("lms", "cv", hs)
        assert ([grid[task[0][1]].L for task in tasks]
                == list(DEFAULT_GRIDS["lms"]["L"]))
        for task in tasks:
            # Each horizon's 7 rates, horizon by horizon in listed order.
            assert [(h, grid[i].eta) for h, i, _, _ in task] == [
                (h, eta) for h in hs for eta in etas]
            assert all(r == 0 for _, _, r, _ in task)


def test_lms_grid_search_across_horizons_equals_one_horizon_calls(monkeypatch):
    # The cross-validation batches of one L span every horizon: 3 rates x
    # 4 horizons step as one learner of 12 slots. Each horizon's surface
    # must be the one a grid search at that horizon alone gives: every
    # mean by repr, the planted rate's divergence count, steps and
    # quantities, and the chosen tuple. A slot stops at its own last
    # anchor, so moving the record from the end of the cross-validation
    # range on changes nothing.
    record = _quick_record(seed=12)
    partition = make_partition(record, "online_30_30")
    moved = record.positions.copy()
    moved[partition.cross_validation.stop:] += 500.0
    tampered = MarkerRecord(positions=moved, sample_period=record.sample_period,
                            label=record.label,
                            breathing_class=record.breathing_class)
    horizons = (0.1, 0.5, 1.0, 2.0)
    grid = {"eta": (0.01, 1e300, 0.1), "L": (10, 30)}

    def search(rec, hs):
        cfg = ExperimentConfig(
            algorithm="lms", horizons_s=hs, data_manifest="x", out_dir="y",
            grid=grid, n_cv=2, n_test=1, master_seed=4,
        )
        with pytest.warns(UserWarning, match="excluded"):
            return grid_search("lms", rec, hs, cfg)

    slots = []
    real = harness._run_online
    monkeypatch.setattr(harness, "_run_online",
                        lambda *a: slots.append(len(a[3])) or real(*a))
    together = search(record, horizons)
    assert slots == [12, 12]
    # By repr: the planted rate's mean is NaN, which equals nothing.
    assert repr(search(tampered, horizons)) == repr(together)
    for h_s in horizons:
        (alone,) = search(record, (h_s,)).values()
        cv = together[h_s]
        assert cv.chosen == alone.chosen
        assert len(cv.entries) == len(alone.entries) == 6
        for entry, want in zip(cv.entries, alone.entries):
            assert entry.hyper == want.hyper
            assert repr(entry.mean_rmse) == repr(want.mean_rmse)
            assert (entry.n_diverged, entry.n_runs) == (want.n_diverged, want.n_runs)
            assert entry.diverged_at == want.diverged_at
            assert entry.diverged_quantity == want.diverged_quantity
            assert entry.n_diverged == (entry.hyper.eta == 1e300)


def test_lms_batch_ended_by_its_last_live_slots_keeps_the_stopped_ones(
    monkeypatch,
):
    # Two rates at h = 2 steps, listed first, and at h = 1: the h = 2 slots
    # stop one anchor before the stream ends. At the last anchor the h = 1
    # slots are fed overflowing targets, so they diverge there and, as the
    # last live slots, end the stream with a NonFiniteError. The stopped
    # slots keep their runs, bit for bit their runs alone, and only the
    # h = 1 slots are recorded.
    record = _quick_record(seed=12)
    partition = make_partition(record, "online_30_30")
    scoring = partition.cross_validation
    hypers = (HyperChoice(eta=0.01, L=10), HyperChoice(eta=0.1, L=10)) * 2
    last = scoring.stop - 10 - 1
    real = harness._learner

    def learner(algorithm, hypers, seeds, m, p, diverged, lasts):
        step = real(algorithm, hypers, seeds, m, p, diverged, lasts)
        n_steps = 0

        def spiked(u, y_star):
            nonlocal n_steps
            if n_steps == last:
                y_star = y_star.copy()
                y_star[2:] = 1e300
            n_steps += 1
            return step(u, y_star)

        return spiked

    with monkeypatch.context() as patched:
        patched.setattr(harness, "_learner", learner)
        out = harness._run_online(
            "lms", record, fit_normalizer(record, partition.train), hypers,
            (2, 2, 1, 1), (0,) * 4, (scoring.start,) * 4, scoring.stop, False,
        )
    assert [run.diverged for run in out] == [False, False, True, True]
    for run in out[2:]:
        assert (run.diverged_at, run.diverged_quantity) == (last, "loss")
    for run, hyper in zip(out[:2], hypers):
        alone = run_sequence_online("lms", record, partition, hyper, 2, seed=0,
                                    scoring_range=scoring)
        assert run.trace.pred.tobytes() == alone.trace.pred.tobytes()


def test_grid_search_and_evaluate_reject_another_algorithms_config(
    monkeypatch, tmp_path
):
    # RTRL used to run on UORO's config, grid and run counts, without a word.
    record = _quick_record()
    cfg = _config("uoro", tmp_path)
    calls = []
    monkeypatch.setattr("markerpred.harness.run_sequence_online",
                        lambda *a, **k: calls.append(a))
    message = "algorithm 'rtrl' does not match the config's 'uoro'"
    with pytest.raises(ValueError, match=message):
        grid_search("rtrl", record, (0.4,), cfg)
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    with pytest.raises(ValueError, match=message):
        evaluate("rtrl", record, hyper, 0.4, cfg)
    with pytest.raises(ValueError, match="algorithm 'lms' does not match"):
        evaluate("lms", record, HyperChoice(eta=0.1, L=10), 0.4, cfg)
    assert calls == []


def test_cv_csv_lists_the_diverged_runs_steps_and_quantities(tmp_path):
    # Two seeded UORO runs at a huge rate diverge; each keeps its step
    # and quantity, in run order, and the tuple that ran clean has empty
    # cells.
    record = _quick_record(seed=12, duration=70.0)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (0.1, 1e300), "sigma_init": (0.02,), "L": (5,), "q": (5,)},
        n_cv=2, n_test=1, master_seed=0,
    )
    partition = make_partition(record, "online_30_30")
    with pytest.warns(UserWarning, match="excluded"):
        cv = grid_search("uoro", record, (0.4,), cfg)[0.4]
    bad = next(e for e in cv.entries if e.hyper.eta == 1e300)
    runs = [run_sequence_online("uoro", record, partition, bad.hyper, h=4,
                                seed=derive_seed(0, record.label, 4,
                                                 bad.hyper.key(), r, "cv"),
                                scoring_range=partition.cross_validation)
            for r in range(2)]
    assert bad.diverged_at == tuple(run.diverged_at for run in runs)
    assert bad.diverged_quantity == tuple(run.diverged_quantity
                                          for run in runs)
    harness.write_cv_csv(tmp_path / "cv.csv", cv)
    with open(tmp_path / "cv.csv", newline="") as f:
        rows = {float(row["eta"]): row for row in csv.DictReader(f)}
    assert rows[1e300]["diverged_at"] == ";".join(
        str(run.diverged_at) for run in runs)
    assert rows[1e300]["diverged_quantity"] == ";".join(
        run.diverged_quantity for run in runs)
    assert rows[0.1]["diverged_at"] == rows[0.1]["diverged_quantity"] == ""


def test_grid_search_raises_when_every_tuple_diverges():
    record = _quick_record(seed=13, duration=70.0)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (1e300,), "sigma_init": (0.02,), "L": (5,), "q": (5,)},
        n_cv=1, n_test=1, master_seed=0,
    )
    with pytest.warns(UserWarning, match="excluded"):
        with pytest.raises(RuntimeError, match="every .* tuple diverged"):
            grid_search("uoro", record, (0.4,), cfg)


@pytest.mark.parametrize("h_s", [0.25, 0.35, 0.45])
def test_horizon_between_steps_is_rejected(h_s):
    # round() used to map these to 2, 3 and 4 steps at 10 Hz without a word.
    record = _quick_record()
    cfg = ExperimentConfig(
        algorithm="none", horizons_s=(h_s,), data_manifest="x", out_dir="y",
    )
    pattern = rf"horizon {h_s}s is .* steps at 10 Hz, not a whole number"
    with pytest.raises(ValueError, match=pattern):
        grid_search("none", record, (h_s,), cfg)
    hyper = HyperChoice()
    with pytest.raises(ValueError, match=pattern):
        evaluate("none", record, hyper, h_s, cfg)


def test_run_experiment_rejects_off_grid_horizon_before_any_run(tmp_path):
    manifest = _write_dataset(tmp_path, duration=70.0)
    cfg = ExperimentConfig(
        algorithm="none", horizons_s=(0.4, 0.25), data_manifest=manifest,
        out_dir=tmp_path / "out",
    )
    with pytest.raises(ValueError, match="horizon 0.25s"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_grid_search_rejects_repeated_horizon_before_any_run(monkeypatch):
    # A repeat would run the whole grid once per copy for one result.
    record = _quick_record()
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"eta": (0.05,), "L": (10,)},
    )
    calls = []
    monkeypatch.setattr("markerpred.harness.run_sequence_online",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"horizons 0\.4s and 0\.4s both span 4"):
        grid_search("lms", record, (0.4, 0.4), cfg)
    assert calls == []


def test_run_experiment_rejects_horizons_on_one_step_before_any_run(tmp_path):
    # Distinct values, so the config accepts them, but on a 10 Hz record
    # both are 4 steps (within WHOLE_STEP_RTOL of a whole number).
    manifest = _write_dataset(tmp_path, duration=70.0)
    h_near = 0.4 * (1 + 1e-12)
    cfg = ExperimentConfig(
        algorithm="none", horizons_s=(0.4, h_near), data_manifest=manifest,
        out_dir=tmp_path / "out",
    )
    with pytest.raises(ValueError, match=rf"horizons 0\.4s and {h_near}s both span 4"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_every_tenth_of_a_second_is_a_whole_horizon():
    record = _quick_record()
    assert 0.3 / record.sample_period == 2.9999999999999996
    for k in range(1, 21):
        for h_s in (k * 0.1, k / 10):
            assert whole_steps(h_s, record.sample_period, "horizon") == k
    cfg = ExperimentConfig(
        algorithm="none", horizons_s=(0.3,), data_manifest="x", out_dir="y",
    )
    result = evaluate("none", record, HyperChoice(), 0.3, cfg)
    partition = make_partition(record, "online_30_30")
    direct = run_sequence_online("none", record, partition, HyperChoice(), 3, 0)
    assert result.runs[0].metrics == compute_metrics(direct.trace)


def test_grid_search_rejects_subsecond_step_horizon():
    record = _quick_record()
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.01,), data_manifest="x", out_dir="y",
        grid={"eta": (0.05,), "L": (10,)},
    )
    with pytest.raises(ValueError, match="below one step"):
        grid_search("lms", record, (0.01,), cfg)


# ------------------------------ evaluation ----------------------------------


def test_evaluate_deterministic_method_runs_once_without_ci():
    record = _quick_record(seed=14)
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        n_cv=5, n_test=300, master_seed=0,
    )
    result = evaluate("lms", record, HyperChoice(eta=0.05, L=10), 0.4, cfg)
    assert len(result.runs) == 1
    assert result.n_diverged == 0
    assert all(result.ci[name] is None for name in METRIC_NAMES)
    assert result.runs[0].metrics.rmse > 0


def test_evaluate_stochastic_ci_matches_direct_recomputation():
    record = _quick_record(seed=15)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        n_cv=1, n_test=4, master_seed=5,
    )
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    result = evaluate("uoro", record, hyper, 0.4, cfg)
    assert len(result.runs) == 4
    for name in METRIC_NAMES:
        values = np.array([getattr(r.metrics, name) for r in result.runs])
        expected = ci_per_condition(values)
        assert result.ci[name].mean == pytest.approx(expected.mean, rel=1e-12)
        assert result.ci[name].half_range == pytest.approx(
            expected.half_range, rel=1e-12)
        assert result.ci[name].n_runs == 4
    assert result.metric_mean("rmse") == pytest.approx(
        np.mean([r.metrics.rmse for r in result.runs]))


def test_evaluate_runs_match_run_sequence_online_directly():
    record = _quick_record(seed=16)
    cfg = ExperimentConfig(
        algorithm="rtrl", horizons_s=(0.3,), data_manifest="x", out_dir="y",
        n_cv=1, n_test=2, master_seed=21,
    )
    hyper = HyperChoice(eta=0.05, sigma_init=0.02, L=10, q=10)
    result = evaluate("rtrl", record, hyper, 0.3, cfg)
    partition = make_partition(record, "online_30_30")
    direct = run_sequence_online("rtrl", record, partition, hyper, h=3,
                                 seed=result.runs[0].seed)
    assert result.runs[0].metrics == compute_metrics(direct.trace)


def test_evaluate_counts_diverged_runs_and_uses_survivors(monkeypatch):
    record = _quick_record(seed=17)
    real = run_sequence_online
    calls = {"n": 0}

    def flaky(algorithm, rec, part, hyper, h, seed, scoring_range=None,
              collect_loss=False, weights=None):
        calls["n"] += 1
        if calls["n"] == 2:
            return RunResult(trace=None, losses=None, loss_start=None,
                             diverged=True, diverged_at=10,
                             diverged_quantity="loss")
        return real(algorithm, rec, part, hyper, h, seed,
                    scoring_range=scoring_range, collect_loss=collect_loss)

    monkeypatch.setattr("markerpred.harness.run_sequence_online", flaky)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        n_cv=1, n_test=3, master_seed=0,
    )
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    result = evaluate("uoro", record, hyper, 0.4, cfg)
    assert result.n_diverged == 1
    assert result.runs[1].diverged and result.runs[1].diverged_quantity == "loss"
    assert result.runs[1].diverged_at == 10
    assert result.runs[1].metrics is None
    for name in METRIC_NAMES:
        assert result.ci[name].n_runs == 2


def test_evaluate_collects_mean_loss_trace():
    record = _quick_record(seed=18)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        n_cv=1, n_test=2, master_seed=0, save_loss_traces=True,
    )
    hyper = HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10)
    result = evaluate("uoro", record, hyper, 0.4, cfg)
    assert result.mean_loss_trace is not None
    assert result.loss_trace_start == 10 + 4 - 1
    partition = make_partition(record, "online_30_30")
    traces = [
        run_sequence_online("uoro", record, partition, hyper, 4,
                            r.seed, collect_loss=True).losses
        for r in result.runs
    ]
    np.testing.assert_allclose(result.mean_loss_trace,
                               np.mean(traces, axis=0), rtol=1e-12)


# ------------------------------ aggregation ---------------------------------


def _fake_result(label, cls, h_s, values, half=0.1):
    """EvalResult whose two runs average to the requested metric values."""
    runs = []
    for r, sign in enumerate((-1.0, 1.0)):
        metrics = MetricSet(**{n: values[n] + sign * 0.05 for n in METRIC_NAMES})
        runs.append(RunRecord(run_index=r, seed=r, diverged=False,
                              diverged_quantity=None, metrics=metrics))
    sd = np.std([-0.05, 0.05], ddof=1)
    ci = {
        n: CiSummary(mean=values[n], half_range=1.96 * sd / np.sqrt(2), n_runs=2)
        for n in METRIC_NAMES
    }
    return EvalResult(
        algorithm="uoro", sequence=label, breathing_class=cls, horizon_s=h_s,
        hyper=HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10),
        runs=tuple(runs), ci=ci, n_diverged=0,
    )


def _values(base):
    return {n: base + i for i, n in enumerate(METRIC_NAMES)}


def test_aggregate_single_cell_reproduces_condition():
    res = {("a", 0.4): _fake_result("a", "regular", 0.4, _values(1.0))}
    report = aggregate(res, ("a",), (0.4,), {"a": "regular"})
    row = report.rows[0]
    assert row.cohort == "all" and row.n_conditions == 1
    for i, name in enumerate(METRIC_NAMES):
        assert row.means[name] == pytest.approx(1.0 + i)
        # root-sum-of-squares over one cell, divided by one cell
        assert row.half_ranges[name] == pytest.approx(
            res[("a", 0.4)].ci[name].half_range)
    assert report.rows[1].cohort == "regular"
    assert report.curve[0].means["rmse"] == pytest.approx(2.0)


def test_aggregate_matches_hand_computed_table():
    results = {
        ("a", 0.2): _fake_result("a", "regular", 0.2, _values(1.0)),
        ("a", 0.4): _fake_result("a", "regular", 0.4, _values(2.0)),
        ("b", 0.2): _fake_result("b", "irregular", 0.2, _values(3.0)),
        ("b", 0.4): _fake_result("b", "irregular", 0.4, _values(5.0)),
    }
    classes = {"a": "regular", "b": "irregular"}
    report = aggregate(results, ("a", "b"), (0.2, 0.4), classes)
    all_row, regular, irregular = report.rows
    assert all_row.means["mae"] == pytest.approx((1 + 2 + 3 + 5) / 4)
    assert regular.means["mae"] == pytest.approx((1 + 2) / 2)
    assert irregular.means["mae"] == pytest.approx((3 + 5) / 2)
    half = results[("a", 0.2)].ci["mae"].half_range
    assert all_row.half_ranges["mae"] == pytest.approx(
        np.sqrt(4 * half**2) / 4)
    assert regular.half_ranges["mae"] == pytest.approx(np.sqrt(2 * half**2) / 2)
    curve_02 = next(p for p in report.curve if p.horizon_s == 0.2)
    assert curve_02.means["mae"] == pytest.approx((1 + 3) / 2)
    assert curve_02.n_sequences == 2


def test_aggregate_cohort_exclusion_keeps_overall_row():
    results = {
        ("a", 0.4): _fake_result("a", "irregular", 0.4, _values(1.0)),
        ("b", 0.4): _fake_result("b", "irregular", 0.4, _values(9.0)),
    }
    classes = {"a": "irregular", "b": "irregular"}
    report = aggregate(results, ("a", "b"), (0.4,), classes,
                       cohort_exclude=("b",))
    all_row = report.rows[0]
    irregular = next(r for r in report.rows if r.cohort == "irregular")
    assert all_row.means["mae"] == pytest.approx(5.0)
    assert irregular.means["mae"] == pytest.approx(1.0)
    assert irregular.n_sequences == 1


def test_aggregate_refuses_missing_cells_with_report():
    results = {("a", 0.4): _fake_result("a", "regular", 0.4, _values(1.0))}
    with pytest.raises(ValueError, match=r"\(b, 0.4s\): absent"):
        aggregate(results, ("a", "b"), (0.4,), {"a": "regular", "b": "regular"})


def test_aggregate_refuses_fully_diverged_cell():
    bad = EvalResult(
        algorithm="uoro", sequence="a", breathing_class="regular",
        horizon_s=0.4, hyper=HyperChoice(),
        runs=(RunRecord(0, 0, True, "loss", None),),
        ci={n: None for n in METRIC_NAMES}, n_diverged=1,
    )
    with pytest.raises(ValueError, match="all runs diverged"):
        aggregate({("a", 0.4): bad}, ("a",), (0.4,), {"a": "regular"})


def test_aggregate_half_range_absent_when_any_cell_lacks_ci():
    good = _fake_result("a", "regular", 0.4, _values(1.0))
    no_ci = EvalResult(
        algorithm="uoro", sequence="b", breathing_class="regular",
        horizon_s=0.4, hyper=HyperChoice(),
        runs=(RunRecord(0, 0, False, None,
                        MetricSet(**_values(2.0))),),
        ci={n: None for n in METRIC_NAMES}, n_diverged=0,
    )
    report = aggregate({("a", 0.4): good, ("b", 0.4): no_ci}, ("a", "b"),
                       (0.4,), {"a": "regular", "b": "regular"})
    assert report.rows[0].half_ranges["rmse"] is None
    assert report.rows[0].means["rmse"] == pytest.approx((2.0 + 3.0) / 2)


# ------------------------------ benchmarking --------------------------------


def test_bench_step_time_returns_positive_median():
    ms = bench_step_time("uoro", q=10, L=10, n_steps=30)
    assert 0 < ms < 1e3


@pytest.mark.parametrize("n_steps", [0, -5])
def test_bench_step_time_rejects_fewer_than_one_step(n_steps):
    # Used to return nan after numpy's empty-slice warnings.
    with pytest.raises(ValueError, match=f"n_steps must be >= 1, got {n_steps}"):
        bench_step_time("uoro", q=10, L=10, n_steps=n_steps)


def test_bench_step_time_rejects_non_recurrent_methods():
    with pytest.raises(ValueError, match="uoro.*rtrl"):
        bench_step_time("lms", q=10, L=10)


def test_bench_step_time_times_the_lms_learner():
    ms = bench_step_time("lms", q=None, L=10, n_steps=30)
    assert 0 < ms < 1e3


def test_bench_step_time_lms_figure_includes_the_fold(monkeypatch):
    # A stand-in learner whose every _LMS_BLOCK-th step, the one that
    # folds, takes 20 ms and the others almost none: the figure is that
    # cost spread over its block, where a median single step would read
    # about 0. The real learner reports the same fold period.
    block = baselines._LMS_BLOCK
    assert harness._learner("lms", (HyperChoice(eta=0.1, L=10),), (0,), 90,
                            9).fold_period == block
    n_calls = 0

    def learner(algorithm, hypers, seeds, m, p, diverged=None, lasts=None):
        def step(u, y_star):
            nonlocal n_calls
            n_calls += 1
            if n_calls % block == 0:
                time.sleep(0.02)

        step.fold_period = block
        return step

    monkeypatch.setattr(harness, "_learner", learner)
    ms = bench_step_time("lms", q=None, L=10, n_steps=3 * block)
    assert 20.0 / block <= ms < 20.0
    assert n_calls == 10 + 3 * block


def test_bench_step_time_uoro_figure_includes_the_fold(monkeypatch):
    # As for LMS, with a stand-in block-delayed UORO learner whose every
    # _BLOCK_PAIRS-th step folds in 20 ms: a block-delayed shape is timed
    # over whole fold periods. A shape below the crossover keeps the exact
    # learner, timed step by step.
    block = uoro._BLOCK_PAIRS
    n_calls = 0

    def learner(dims, params, eta, tau, seed):
        def step(u, y_star):
            nonlocal n_calls
            n_calls += 1
            if n_calls % block == 0:
                time.sleep(0.02)

        step.fold_period = block
        return step

    monkeypatch.setattr(uoro, "block_learner", learner)
    ms = bench_step_time("uoro", q=90, L=90, n_steps=3 * block)
    assert 20.0 / block <= ms < 20.0
    assert n_calls == 10 + 3 * block
    exact_ms = bench_step_time("uoro", q=10, L=10, n_steps=3 * block)
    assert exact_ms < 20.0 / block
    assert n_calls == 10 + 3 * block


@pytest.mark.parametrize("algorithm, q, L, n_markers, name, value", [
    # An empty LMS learner used to be timed (about 0.02 ms), and q = 0
    # failed inside RnnDims with a message that did not name q.
    ("lms", None, 0, 3, "L", 0),
    ("lms", None, 10, 0, "n_markers", 0),
    ("uoro", 0, 10, 3, "q", 0),
    ("rtrl", 10, 0, 3, "L", 0),
    ("uoro", 10, 10, -1, "n_markers", -1),
    ("rtrl", 2.5, 10, 3, "q", 2.5),
    ("lms", None, True, 3, "L", True),
])
def test_bench_step_time_rejects_empty_or_non_integer_shapes(
    monkeypatch, algorithm, q, L, n_markers, name, value
):
    # Checked before any learner is built.
    monkeypatch.setattr(harness, "_learner", _no_step)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an integer >= 1, got {value!r}")):
        bench_step_time(algorithm, q, L, n_markers, n_steps=5)


@pytest.mark.parametrize("algorithm", ["linreg", "none"])
def test_bench_step_time_rejects_offline_methods(algorithm):
    with pytest.raises(ValueError, match=f"online learners .* got "
                       f"'{algorithm}'"):
        bench_step_time(algorithm, q=None, L=10)


@pytest.mark.parametrize("algorithm", ["uoro", "rtrl"])
def test_bench_step_time_needs_the_hidden_size(algorithm):
    with pytest.raises(ValueError, match=f"{algorithm} needs its hidden size q"):
        bench_step_time(algorithm, q=None, L=10)


# ------------------------------ dataset manifest ----------------------------


def _write_dataset(tmp_path, classes=("regular", "irregular"), duration=80.0):
    paths = []
    for i, cls in enumerate(classes):
        rec = synthetic_record(duration_s=duration, seed=40 + i, label=f"seq{i}")
        rec = MarkerRecord(positions=rec.positions,
                           sample_period=rec.sample_period,
                           label=rec.label, breathing_class=cls)
        write_record(tmp_path / f"seq{i}.csv", rec)
        paths.append(f"seq{i}.csv")
    manifest = tmp_path / "dataset.json"
    manifest.write_text(json.dumps({"sequences": paths}))
    return manifest


def test_load_dataset_reads_sequences_and_exclusions(tmp_path):
    manifest = _write_dataset(tmp_path)
    raw = json.loads(manifest.read_text())
    raw["cohort_exclude"] = ["seq1"]
    manifest.write_text(json.dumps(raw))
    records, exclude = load_dataset(manifest)
    assert [r.label for r in records] == ["seq0", "seq1"]
    assert records[1].breathing_class == "irregular"
    assert exclude == ("seq1",)


@pytest.mark.parametrize("key, value", [
    # A string was split into its characters: "s0" excluded 's' and '0'.
    ("cohort_exclude", "seq1"),
    # ... and read as the files named by its characters.
    ("sequences", "seq0.csv"),
    ("sequences", ["seq0.csv", 1]),
    ("cohort_exclude", [None]),
])
def test_load_dataset_requires_lists_of_strings(tmp_path, key, value):
    manifest = _write_dataset(tmp_path)
    raw = json.loads(manifest.read_text())
    raw[key] = value
    manifest.write_text(json.dumps(raw))
    message = re.escape(f"{manifest}: manifest '{key}' must be a list of "
                        f"strings, got {value!r}")
    with pytest.raises(ValueError, match=message):
        load_dataset(manifest)


def test_load_dataset_requires_a_json_object(tmp_path):
    # A list used to fail with AttributeError: 'list' object has no
    # attribute 'get'.
    manifest = tmp_path / "dataset.json"
    manifest.write_text(json.dumps(["seq0.csv"]))
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest}: manifest must be a JSON object, got list")):
        load_dataset(manifest)


def test_load_dataset_rejects_empty_and_duplicate(tmp_path):
    manifest = tmp_path / "dataset.json"
    manifest.write_text(json.dumps({"sequences": []}))
    with pytest.raises(ValueError, match="no sequences"):
        load_dataset(manifest)
    _write_dataset(tmp_path)
    manifest.write_text(json.dumps({"sequences": ["seq0.csv", "seq0.csv"]}))
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(manifest)


def test_load_dataset_rejects_an_unknown_cohort_label(tmp_path):
    # A typo in a label used to be ignored, leaving its sequence in the
    # cohort rows.
    manifest = _write_dataset(tmp_path)
    raw = json.loads(manifest.read_text())
    raw["cohort_exclude"] = ["seq1", "seq_1"]
    manifest.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest}: cohort_exclude label 'seq_1' names no sequence; "
            f"the sequence labels are ['seq0', 'seq1']")):
        load_dataset(manifest)


# ------------------------------ full protocol -------------------------------


def test_run_experiment_writes_all_outputs(tmp_path):
    manifest = _write_dataset(tmp_path)
    cfg = ExperimentConfig(
        algorithm="uoro", horizons_s=(0.3, 0.6), data_manifest=manifest,
        out_dir=tmp_path / "out",
        grid={"eta": (0.1,), "sigma_init": (0.02,), "L": (10,), "q": (10,)},
        n_cv=2, n_test=2, master_seed=1, save_loss_traces=True,
    )
    report = run_experiment(cfg)
    out = tmp_path / "out"
    for label in ("seq0", "seq1"):
        for h in ("0.3", "0.6"):
            assert (out / f"cv_uoro_{label}_h{h}.csv").exists()
            assert (out / f"runs_uoro_{label}_h{h}.csv").exists()
            assert (out / f"loss_uoro_{label}_h{h}.csv").exists()
    assert (out / "summary_uoro.csv").exists()
    assert (out / "curve_uoro.csv").exists()

    with open(out / "runs_uoro_seq0_h0.3.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert rows[0]["breathing_class"] == "regular"
    assert float(rows[0]["rmse"]) > 0

    with open(out / "cv_uoro_seq0_h0.3.csv", newline="") as f:
        cv_rows = list(csv.DictReader(f))
    assert sum(int(r["chosen"]) for r in cv_rows) == 1

    meta = json.loads((out / "manifest_uoro.json").read_text())
    assert meta["config"]["master_seed"] == 1
    assert meta["chosen_hyperparameters"]["seq0"]["0.3"]
    assert meta["numpy_version"] == np.__version__
    assert {r.cohort for r in report.rows} == {"all", "regular", "irregular"}


def test_run_experiment_is_reproducible_byte_for_byte(tmp_path):
    manifest = _write_dataset(tmp_path, classes=("regular",), duration=70.0)
    grid = {"eta": (0.1, 0.2), "sigma_init": (0.02,), "L": (5,), "q": (5,)}
    texts = []
    for out_name in ("out_a", "out_b"):
        cfg = ExperimentConfig(
            algorithm="uoro", horizons_s=(0.4,), data_manifest=manifest,
            out_dir=tmp_path / out_name, grid=grid, n_cv=2, n_test=2,
            master_seed=9,
        )
        run_experiment(cfg)
        texts.append((tmp_path / out_name / "summary_uoro.csv").read_text())
    assert texts[0] == texts[1]


def _counting_fit_linreg(monkeypatch):
    """Wrap harness.fit_linreg; returns the list its calls append to."""
    calls = []
    real = harness.fit_linreg

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_linreg", counting)
    return calls


def test_evaluate_with_the_grid_search_linreg_fit_equals_a_refit(monkeypatch):
    # linreg fits on the training range whatever range it scores, so the
    # fit grid_search made for the chosen tuple is the one evaluate would
    # make.
    record = _quick_record(seed=21)
    cfg = ExperimentConfig(
        algorithm="linreg", horizons_s=(0.4,), data_manifest="x", out_dir="y",
        grid={"L": (5, 10)}, n_cv=1, n_test=1, master_seed=0,
    )
    cv = grid_search("linreg", record, (0.4,), cfg)[0.4]
    refit = evaluate("linreg", record, cv.chosen, 0.4, cfg)
    fits = _counting_fit_linreg(monkeypatch)
    reused = evaluate("linreg", record, cv.chosen, 0.4, cfg,
                      weights=cv.chosen_weights)
    assert fits == []
    assert reused.runs == refit.runs


def test_run_experiment_fits_each_linreg_tuple_once(tmp_path, monkeypatch):
    manifest = _write_dataset(tmp_path, duration=70.0)
    fits = _counting_fit_linreg(monkeypatch)
    cfg = ExperimentConfig(
        algorithm="linreg", horizons_s=(0.4, 0.8), data_manifest=manifest,
        out_dir=tmp_path / "out", grid={"L": (5, 10, 20)}, n_cv=1, n_test=1,
    )
    run_experiment(cfg)
    # 2 sequences x 2 horizons x 3 tuples, none of them refit for the test.
    assert len(fits) == 12


def test_report_from_dir_round_trips_aggregation(tmp_path):
    manifest = _write_dataset(tmp_path, duration=70.0)
    cfg = ExperimentConfig(
        algorithm="lms", horizons_s=(0.4,), data_manifest=manifest,
        out_dir=tmp_path / "out", grid={"eta": (0.05,), "L": (10,)},
        n_cv=1, n_test=1, master_seed=0,
    )
    report = run_experiment(cfg)
    original = (tmp_path / "out" / "summary_lms.csv").read_text()
    rebuilt = report_from_dir(tmp_path / "out")
    assert (tmp_path / "out" / "summary_lms.csv").read_text() == original
    row = rebuilt["lms"].rows[0]
    for name in METRIC_NAMES:
        assert row.means[name] == pytest.approx(report.rows[0].means[name],
                                                rel=1e-12)


def test_runs_csv_round_trips_divergence_step(tmp_path):
    metrics = MetricSet(mae=1.0, rmse=1.5, nrmse=0.25, max_error=3.0, jitter=0.5)
    runs = (
        RunRecord(0, 11, False, None, metrics),
        RunRecord(1, 12, True, "theta_tilde", None, diverged_at=417),
        RunRecord(2, 13, False, None,
                  MetricSet(mae=2.0, rmse=2.5, nrmse=0.5, max_error=4.0,
                            jitter=1.5)),
    )
    result = EvalResult(
        algorithm="uoro", sequence="seq", breathing_class="regular",
        horizon_s=0.4, hyper=HyperChoice(eta=0.1, sigma_init=0.02, L=10, q=10),
        runs=runs, ci={}, n_diverged=1,
    )
    path = tmp_path / "runs_uoro_seq_h0.4.csv"
    write_runs_csv(path, result)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["diverged_at"] for r in rows] == ["", "417", ""]
    back = read_runs_csv(path)
    assert back.runs == runs
    assert (back.algorithm, back.sequence, back.breathing_class,
            back.horizon_s, back.n_diverged) == ("uoro", "seq", "regular", 0.4, 1)
    assert back.ci["rmse"].n_runs == 2
    report = report_from_dir(tmp_path)
    assert report["uoro"].rows[0].means["rmse"] == 2.0


def test_report_without_manifest_excludes_no_cohort_label(tmp_path):
    manifest = _write_dataset(tmp_path, classes=("regular", "regular"),
                              duration=70.0)
    raw = json.loads(manifest.read_text())
    raw["cohort_exclude"] = ["seq1"]
    manifest.write_text(json.dumps(raw))
    cfg = ExperimentConfig(algorithm="none", horizons_s=(0.4,),
                           data_manifest=manifest, out_dir=tmp_path / "out")
    ran = run_experiment(cfg)
    assert [(r.cohort, r.n_sequences) for r in ran.rows] == [
        ("all", 2), ("regular", 1)
    ]
    assert report_from_dir(tmp_path / "out")["none"] == ran
    (tmp_path / "out" / "manifest_none.json").unlink()
    rebuilt = report_from_dir(tmp_path / "out")["none"]
    assert [(r.cohort, r.n_sequences) for r in rebuilt.rows] == [
        ("all", 2), ("regular", 2)
    ]


def test_report_from_dir_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError, match="no runs_"):
        report_from_dir(tmp_path)
