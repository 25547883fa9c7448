"""Tests for record ingestion, normalization, windowing, and partitions."""

import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from markerpred.signal import (
    BREATHING_CLASSES,
    SCALE_FLOOR_MM,
    MarkerRecord,
    Normalizer,
    Partition,
    WindowedSample,
    build_io,
    design_matrix,
    fit_normalizer,
    iter_windows,
    load_record,
    make_partition,
    synthetic_record,
    whole_steps,
    write_record,
)


def _record(n_steps=730, n_markers=3, seed=0, period=0.1):
    rng = np.random.default_rng(seed)
    positions = 20.0 * rng.standard_normal((n_steps, n_markers, 3)) + 100.0
    return MarkerRecord(positions=positions, sample_period=period, label="r")


def _write_csv(path, n_steps=730, n_markers=3, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["t_seconds," + ",".join(f"m{j+1}{a}" for j in range(n_markers) for a in "xyz")]
    for k in range(n_steps):
        coords = 10.0 * rng.standard_normal(3 * n_markers) + 50.0
        lines.append(f"{k * 0.1}," + ",".join(str(v) for v in coords))
    path.write_text("\n".join(lines) + "\n")


# -------------------------- load / write ---------------------------------


def test_load_record_shape(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=730, n_markers=3)
    record = load_record(csv_path)
    assert record.n_steps == 730
    assert record.n_markers == 3
    assert record.sample_period == pytest.approx(0.1)
    assert record.label == "seq"
    assert record.breathing_class == "unlabeled"


def test_load_record_reads_manifest(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=100)
    (tmp_path / "seq.json").write_text(
        json.dumps({"label": "patient-1", "breathing_class": "irregular", "rate_hz": 10.0})
    )
    record = load_record(csv_path)
    assert record.label == "patient-1"
    assert record.breathing_class == "irregular"
    assert record.sample_period == pytest.approx(0.1)


@pytest.mark.parametrize(
    "rate_hz",
    # 0 used to raise ZeroDivisionError, -10 to warn of jitter first and
    # then fail without the file name, Infinity to report "got 0.0" and
    # "ten" to fail in float() without the file name.
    [0, 0.0, -10, float("inf"), float("-inf"), float("nan"), "ten", "10",
     True, [10]],
)
def test_load_record_rejects_bad_manifest_rate(tmp_path, rate_hz):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=100)
    manifest = tmp_path / "seq.json"
    manifest.write_text(json.dumps({"rate_hz": rate_hz}))
    message = re.escape(
        f"{manifest}: rate_hz must be a finite number > 0, got {rate_hz!r}"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            load_record(csv_path)


@pytest.mark.parametrize("rate_hz", [
    # 1 / 1e-320 overflows to inf; an integer of 400 digits is beyond the
    # float range, so float() and 1 / rate raise OverflowError.
    1e-320, 10**400,
], ids=["reciprocal-overflows", "integer-beyond-float-range"])
def test_load_record_rejects_manifest_rate_without_finite_period(tmp_path,
                                                                 rate_hz):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=100)
    manifest = tmp_path / "seq.json"
    manifest.write_text(json.dumps({"rate_hz": rate_hz}))
    message = re.escape(
        f"{manifest}: rate_hz must be a finite number > 0, got {rate_hz!r}"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            load_record(csv_path)


def test_marker_record_rejects_infinite_period():
    with pytest.raises(ValueError, match="sample_period must be finite and > 0"):
        MarkerRecord(positions=np.zeros((4, 1, 3)), sample_period=np.inf)


def test_load_record_accepts_integer_manifest_rate(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=100)
    (tmp_path / "seq.json").write_text(json.dumps({"rate_hz": 10}))
    assert load_record(csv_path).sample_period == 0.1


def test_load_record_nan_row_names_line(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=5, n_markers=1)
    lines = csv_path.read_text().splitlines()
    lines[3] = "0.2,1.0,NaN,3.0"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        load_record(csv_path)


def test_load_record_non_numeric_names_line(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=5, n_markers=1)
    lines = csv_path.read_text().splitlines()
    lines[2] = "0.1,1.0,oops,3.0"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_record(csv_path)


@pytest.mark.parametrize("first, second, message", [
    ("0.1,1.0,inf,3.0", "0.3,1.0,oops,3.0", "line 3: non-finite value"),
    ("0.1,1.0,oops,3.0", "0.3,1.0,inf,3.0", "line 3: non-numeric cell"),
    ("0.1,1.0,NaN,3.0", "0.3,1.0,2.0", "line 3: non-finite value"),
])
def test_load_record_reports_the_earliest_faulty_line(tmp_path, first,
                                                      second, message):
    # Finiteness is checked once over the parsed rows, after a later row
    # may already have failed to parse; the earlier fault is still the one
    # reported.
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=5, n_markers=1)
    lines = csv_path.read_text().splitlines()
    lines[2], lines[4] = first, second
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{csv_path}: {message}")):
        load_record(csv_path)


def test_load_record_wrong_column_count(tmp_path):
    csv_path = tmp_path / "seq.csv"
    _write_csv(csv_path, n_steps=5, n_markers=1)
    lines = csv_path.read_text().splitlines()
    lines[2] += ",7.0"
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_record(csv_path)


def test_load_record_empty_file(tmp_path):
    csv_path = tmp_path / "seq.csv"
    csv_path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_record(csv_path)


def test_load_record_bad_header(tmp_path):
    csv_path = tmp_path / "seq.csv"
    csv_path.write_text("t_seconds,m1x,m1y\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_record(csv_path)


def test_round_trip_parse_serialize_parse(tmp_path):
    # Oracle: writing a loaded record and re-loading must reproduce every
    # parsed value exactly (repr round-trips float64).
    original = _record(n_steps=50, seed=3)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_record(first, original)
    loaded = load_record(first)
    write_record(second, loaded)
    reloaded = load_record(second)
    assert np.array_equal(loaded.positions, reloaded.positions)
    assert loaded.sample_period == reloaded.sample_period
    assert loaded.label == reloaded.label
    assert loaded.breathing_class == reloaded.breathing_class
    assert np.array_equal(original.positions, loaded.positions)


@settings(max_examples=100, deadline=None)
@given(
    rate_hz=st.integers(1, 250),
    positions=st.tuples(st.integers(1, 20), st.integers(1, 4), st.just(3))
    .flatmap(lambda shape: hnp.arrays(
        np.float64, shape,
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )),
    label=st.text(max_size=12),
    breathing_class=st.sampled_from(BREATHING_CLASSES),
)
def test_write_load_round_trip_at_integer_rates(
    rate_hz, positions, label, breathing_class
):
    record = MarkerRecord(positions=positions, sample_period=1.0 / rate_hz,
                          label=label, breathing_class=breathing_class)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.csv"
        write_record(path, record)
        back = load_record(path)
    np.testing.assert_array_equal(back.positions, record.positions)
    assert back.sample_period == record.sample_period
    assert back.label == label
    assert back.breathing_class == breathing_class


def test_marker_record_rejects_nonfinite():
    positions = np.zeros((10, 2, 3))
    positions[4, 1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        MarkerRecord(positions=positions, sample_period=0.1)


# -------------------------- normalization --------------------------------


def test_fit_normalizer_midpoint_halfrange():
    positions = np.zeros((4, 1, 3))
    positions[:, 0, 0] = [10.0, 30.0, 20.0, 15.0]
    positions[:, 0, 1] = [-2.0, 2.0, 0.0, 1.0]
    positions[:, 0, 2] = [1.0, 3.0, 2.0, 2.0]
    record = MarkerRecord(positions=positions, sample_period=0.1)
    norm = fit_normalizer(record, range(0, 4))
    assert norm.offset[0, 0] == pytest.approx(20.0)
    assert norm.scale[0, 0] == pytest.approx(10.0)
    assert norm.offset[0, 1] == pytest.approx(0.0)
    assert norm.scale[0, 1] == pytest.approx(2.0)


def test_fit_normalizer_constant_coordinate_floors_scale():
    positions = np.full((10, 1, 3), 5.0)
    positions[:, 0, 1] = np.linspace(0, 1, 10)
    positions[:, 0, 2] = np.linspace(0, 1, 10)
    record = MarkerRecord(positions=positions, sample_period=0.1)
    with pytest.warns(UserWarning, match="floored"):
        norm = fit_normalizer(record, range(0, 10))
    assert norm.offset[0, 0] == pytest.approx(5.0)
    assert norm.scale[0, 0] == SCALE_FLOOR_MM


def test_fit_normalizer_window_maps_into_unit_box():
    rng = np.random.default_rng(11)
    for _ in range(20):
        record = _record(n_steps=80, seed=int(rng.integers(1 << 30)))
        start = int(rng.integers(0, 40))
        stop = int(rng.integers(start + 2, 81))
        window = range(start, stop)
        norm = fit_normalizer(record, window)
        scaled = norm.normalize(record.positions[start:stop])
        assert np.abs(scaled).max() <= 1.0 + 1e-12


def test_fit_normalizer_rejects_bad_window():
    record = _record(n_steps=20)
    with pytest.raises(ValueError):
        fit_normalizer(record, range(5, 5))
    with pytest.raises(ValueError):
        fit_normalizer(record, range(0, 21))


def test_normalize_round_trip():
    record = _record(n_steps=100, seed=2)
    norm = fit_normalizer(record, range(0, 60))
    back = norm.denormalize(norm.normalize(record.positions))
    assert np.allclose(back, record.positions, rtol=1e-12, atol=1e-12)


def test_normalizer_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        Normalizer(offset=np.zeros((1, 3)), scale=np.array([[1.0, 0.0, 1.0]]))


# -------------------------- windowing ------------------------------------


def test_build_io_smallest_window():
    record = _record(n_steps=10)
    norm = fit_normalizer(record, range(0, 10))
    sample = build_io(record, norm, L=1, h=1, n=0)
    assert sample.u.shape == (10,)
    assert sample.u[0] == 1.0
    assert np.array_equal(sample.u[1:], norm.normalize(record.positions[0]).ravel())
    assert np.array_equal(sample.target, norm.normalize(record.positions[1]).ravel())
    assert sample.time_index == 0
    assert sample.target_index == 1


def test_build_io_two_step_layout():
    # With L=2 the input is step-0 coordinates in entries 1..9 and step-1
    # coordinates in entries 10..18, markers in order and x/y/z innermost.
    record = _record(n_steps=10)
    norm = fit_normalizer(record, range(0, 10))
    sample = build_io(record, norm, L=2, h=1, n=0)
    scaled = norm.normalize(record.positions)
    assert sample.u.shape == (19,)
    assert np.array_equal(sample.u[1:10], scaled[0].ravel())
    assert np.array_equal(sample.u[10:19], scaled[1].ravel())
    assert sample.u[1] == scaled[0, 0, 0]
    assert sample.u[4] == scaled[0, 1, 0]
    assert sample.u[9] == scaled[0, 2, 2]
    assert sample.u[10] == scaled[1, 0, 0]


def test_build_io_sliding_overlap():
    # Consecutive windows share 3*n_M*(L-1) entries, shifted by one step.
    record = _record(n_steps=40, seed=5)
    norm = fit_normalizer(record, range(0, 40))
    L, h = 4, 2
    width = 3 * record.n_markers
    for n in range(0, 30):
        a = build_io(record, norm, L=L, h=h, n=n)
        b = build_io(record, norm, L=L, h=h, n=n + 1)
        assert np.array_equal(a.u[1 + width :], b.u[1 : 1 + width * (L - 1)])


def test_build_io_target_sequence_consistency():
    # Concatenated targets reproduce the normalized record shifted by
    # L + h - 1 steps.
    record = _record(n_steps=30, seed=7)
    norm = fit_normalizer(record, range(0, 30))
    L, h = 3, 2
    shift = L + h - 1
    targets = np.stack(
        [build_io(record, norm, L, h, n).target for n in range(30 - shift)]
    )
    expected = norm.normalize(record.positions[shift:]).reshape(30 - shift, -1)
    assert np.array_equal(targets, expected)


def test_build_io_out_of_range():
    record = _record(n_steps=10)
    norm = fit_normalizer(record, range(0, 10))
    with pytest.raises(IndexError):
        build_io(record, norm, L=5, h=6, n=0)
    with pytest.raises(IndexError):
        build_io(record, norm, L=2, h=1, n=8)
    with pytest.raises(ValueError):
        build_io(record, norm, L=0, h=1, n=0)
    with pytest.raises(ValueError):
        build_io(record, norm, L=1, h=0, n=0)


def _reference_build_io(record, normalizer, L, h, n):
    """The per-sample window assembly that `iter_windows` replaced: the
    window and the target are normalized on their own at every anchor."""
    if L < 1 or h < 1:
        raise ValueError(f"L and h must be >= 1, got L={L}, h={h}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    target_index = n + L + h - 1
    if target_index >= record.n_steps:
        raise IndexError(
            f"window at n={n} with L={L}, h={h} needs step {target_index}, "
            f"record has {record.n_steps}"
        )
    window = normalizer.normalize(record.positions[n : n + L])
    u = np.empty(1 + window.size)
    u[0] = 1.0
    u[1:] = window.ravel()
    target = normalizer.normalize(record.positions[target_index]).ravel()
    return WindowedSample(u=u, target=target, time_index=n, target_index=target_index)


def _assert_same_sample(got, want):
    np.testing.assert_array_equal(got.u, want.u)
    np.testing.assert_array_equal(got.target, want.target)
    assert got.u.shape == want.u.shape and got.target.shape == want.target.shape
    assert (got.time_index, got.target_index) == (want.time_index, want.target_index)


def _raised(fn):
    """The exception type and message fn raises, or None."""
    try:
        fn()
    except (IndexError, ValueError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=150, deadline=None)
@given(
    rate_hz=st.sampled_from([1.0, 7.0, 10.0, 25.0, 30.0]),
    duration_s=st.floats(0.5, 6.0),
    n_markers=st.integers(1, 4),
    L=st.integers(1, 12),
    h=st.integers(1, 12),
    start=st.integers(0, 60),
    count=st.integers(0, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_iter_windows_equals_per_sample_reference(
    rate_hz, duration_s, n_markers, L, h, start, count, seed
):
    # Every window served from the once-normalized span equals, bit for
    # bit, the window normalized on its own; the same arguments that make
    # the per-sample path raise make `iter_windows` and `build_io` raise
    # the same error.
    period = 1.0 / rate_hz
    n_steps = max(1, round(duration_s * rate_hz))
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-80.0, 80.0, size=(n_steps, n_markers, 3))
    record = MarkerRecord(positions=positions, sample_period=period)
    norm = Normalizer(
        offset=rng.uniform(-10.0, 10.0, size=(n_markers, 3)),
        scale=rng.uniform(0.5, 40.0, size=(n_markers, 3)),
    )
    anchors = range(start, start + count)
    lag = L + h - 1
    if count and start + count - 1 + lag >= n_steps:
        last = start + count - 1
        want = _raised(lambda: _reference_build_io(record, norm, L, h, last))
        assert _raised(lambda: iter_windows(record, norm, L, h, anchors)) == want
        assert _raised(lambda: build_io(record, norm, L, h, last)) == want
        anchors = range(start, max(start, n_steps - lag))
    samples = list(iter_windows(record, norm, L, h, anchors))
    assert [s.time_index for s in samples] == list(anchors)
    for n, sample in zip(anchors, samples):
        want = _reference_build_io(record, norm, L, h, n)
        _assert_same_sample(sample, want)
        _assert_same_sample(build_io(record, norm, L, h, n), want)


@pytest.mark.parametrize("anchors", [
    range(0, 40), range(3, 40, 2), range(39, 2, -1), range(39, -1, -3),
    range(5, 6), range(20, 4, -16),
])
def test_iter_windows_serves_any_range_from_its_blocks(anchors):
    # The examples are rows of blocks of consecutive anchors of the range,
    # whatever its step and direction: each equals the per-sample example
    # at its anchor, in the range's order, across the block edges.
    record = _record(n_steps=60, seed=5)
    norm = fit_normalizer(record, range(0, 60))
    samples = list(iter_windows(record, norm, 3, 2, anchors))
    assert [s.time_index for s in samples] == list(anchors)
    for n, sample in zip(anchors, samples):
        _assert_same_sample(sample, _reference_build_io(record, norm, 3, 2, n))


def test_iter_windows_rejects_bad_arguments_like_build_io():
    record = _record(n_steps=20)
    norm = fit_normalizer(record, range(0, 20))
    for L, h, n in ((0, 1, 0), (1, 0, 0), (2, 1, -1)):
        want = _raised(lambda: _reference_build_io(record, norm, L, h, n))
        assert want is not None and want[0] is ValueError
        assert _raised(lambda: iter_windows(record, norm, L, h, range(n, 5))) == want
        assert _raised(lambda: build_io(record, norm, L, h, n)) == want
    # An empty anchor range yields nothing, even past the record's end.
    assert list(iter_windows(record, norm, 2, 1, range(30, 30))) == []


def test_iter_windows_samples_own_their_arrays():
    # Writing into one example's arrays must not reach any other example,
    # though all are cut from one normalized span.
    record = _record(n_steps=30, seed=3)
    norm = fit_normalizer(record, range(0, 30))
    samples = list(iter_windows(record, norm, 3, 2, range(0, 10)))
    samples[0].u[:] = 0.0
    samples[0].target[:] = 0.0
    for n, s in enumerate(samples[1:], start=1):
        assert s.u.flags.owndata and s.target.flags.owndata
        _assert_same_sample(s, _reference_build_io(record, norm, 3, 2, n))


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(1, 40),
    n_markers=st.integers(1, 4),
    L=st.integers(0, 12),
    h=st.integers(0, 12),
    n_anchors=st.integers(0, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_design_matrix_equals_stacked_windows(n_steps, n_markers, L, h,
                                              n_anchors, seed):
    # Row n of the design is the example iter_windows makes at anchor n,
    # bit for bit; the same arguments make both raise the same error.
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-80.0, 80.0, size=(n_steps, n_markers, 3))
    record = MarkerRecord(positions=positions, sample_period=0.1)
    norm = Normalizer(
        offset=rng.uniform(-10.0, 10.0, size=(n_markers, 3)),
        scale=rng.uniform(0.5, 40.0, size=(n_markers, 3)),
    )
    anchors = range(n_anchors)
    want = _raised(lambda: iter_windows(record, norm, L, h, anchors))
    assert _raised(lambda: design_matrix(record, norm, L, h, n_anchors)) == want
    if want is not None:
        return
    U, Y = design_matrix(record, norm, L, h, n_anchors)
    samples = list(iter_windows(record, norm, L, h, anchors))
    c = 3 * n_markers
    assert U.shape == (n_anchors, 1 + L * c) and Y.shape == (n_anchors, c)
    assert U.flags.c_contiguous and Y.flags.c_contiguous
    for n, sample in enumerate(samples):
        assert U[n].tobytes() == sample.u.tobytes()
        assert Y[n].tobytes() == sample.target.tobytes()


# -------------------------- partitions -----------------------------------


def test_partition_online_73s():
    record = _record(n_steps=730)
    part = make_partition(record, "online_30_30")
    assert part.train == range(0, 300)
    assert part.cross_validation == range(300, 600)
    assert part.test == range(600, 730)


def test_partition_covers_record_without_gaps():
    record = _record(n_steps=857)
    for scheme in ("online_30_30", "offline_54_6"):
        part = make_partition(record, scheme)
        assert part.train.start == 0
        assert part.train.stop == part.cross_validation.start
        assert part.cross_validation.stop == part.test.start
        assert part.test.stop == record.n_steps
        assert len(part.train) + len(part.cross_validation) + len(part.test) == 857


def test_partition_60s_record_rejected():
    record = _record(n_steps=600)
    with pytest.raises(ValueError):
        make_partition(record, "online_30_30")


def test_partition_offline_cv_width():
    record = _record(n_steps=1000)
    part = make_partition(record, "offline_54_6")
    assert part.train == range(0, 540)
    assert len(part.cross_validation) == 60
    assert part.test == range(600, 1000)


def test_partition_unknown_scheme():
    with pytest.raises(ValueError):
        make_partition(_record(n_steps=700), "weekly")


def test_partition_requires_contiguity():
    with pytest.raises(ValueError):
        Partition(train=range(0, 10), cross_validation=range(11, 20), test=range(20, 30))


# -------------------------- synthetic records ----------------------------


@pytest.mark.parametrize("duration_s, sample_period, steps, rate", [
    # NaN used to fail in round(), infinities and overflowing step counts
    # with an OverflowError, and a zero period (an infinite rate) with a
    # ZeroDivisionError.
    (float("nan"), 0.1, "nan", "10"),
    (float("inf"), 0.1, "inf", "10"),
    (-float("inf"), 0.1, "-inf", "10"),
    (9.0, 1e-308, "inf", "1e+308"),
    (9.0, 0.0, "inf", "inf"),
    (9.0, float("nan"), "nan", "nan"),
])
def test_whole_steps_rejects_non_finite_durations_rates_and_step_counts(
    duration_s, sample_period, steps, rate
):
    message = (f"shl of {duration_s} seconds at {rate} Hz is {steps} steps; "
               f"the duration, the rate and the step count must be finite "
               f"and the rate > 0")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        whole_steps(duration_s, sample_period, "shl")


def test_synthetic_record_shape_and_class():
    record = synthetic_record(duration_s=80.0, n_markers=3, seed=4)
    assert record.n_steps == 800
    assert record.n_markers == 3
    assert record.breathing_class == "regular"
    assert np.isfinite(record.positions).all()


def test_synthetic_record_amplitude_band():
    record = synthetic_record(duration_s=200.0, seed=1)
    span = record.positions.max(axis=0) - record.positions.min(axis=0)
    assert (span >= 5.0).all()
    assert (span <= 20.0).all()


def test_synthetic_record_deterministic():
    a = synthetic_record(duration_s=30.0, seed=9)
    b = synthetic_record(duration_s=30.0, seed=9)
    assert np.array_equal(a.positions, b.positions)


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(1, 40),
    n_markers=st.integers(1, 4),
    L=st.integers(0, 12),
    h=st.integers(0, 12),
    n=st.integers(-2, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_build_io_equals_per_sample_reference(n_steps, n_markers, L, h, n, seed):
    # build_io, the one-anchor iter_windows, gives the per-sample
    # reference's bits, or raises its error and message.
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-80.0, 80.0, size=(n_steps, n_markers, 3))
    record = MarkerRecord(positions=positions, sample_period=0.1)
    norm = Normalizer(
        offset=rng.uniform(-10.0, 10.0, size=(n_markers, 3)),
        scale=rng.uniform(0.5, 40.0, size=(n_markers, 3)),
    )
    want = _raised(lambda: _reference_build_io(record, norm, L, h, n))
    assert _raised(lambda: build_io(record, norm, L, h, n)) == want
    if want is None:
        _assert_same_sample(build_io(record, norm, L, h, n),
                            _reference_build_io(record, norm, L, h, n))
