"""Marker-position records: ingestion, normalization, windowing, partitions.

A record is a uniformly sampled sequence of n_M marker positions in
millimeters. The forecasting input at step n is the flat vector

    u_n = [1, m1x(t_n), m1y(t_n), m1z(t_n), m2x(t_n), ..., m3z(t_{n+L-1})]

i.e. a bias entry followed by L consecutive time steps, markers in order
within each step and x, y, z innermost. The target paired with u_n is the
coordinate vector at step n + L + h - 1, where h is the prediction horizon
in steps.

Coordinates are normalized to roughly [-1, 1] by a per-coordinate affine
map (midpoint and half-range of a training window) that is frozen once
fitted, so predictions can always be mapped back to millimeters.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "BREATHING_CLASSES",
    "SCALE_FLOOR_MM",
    "MarkerRecord",
    "Normalizer",
    "WindowedSample",
    "Partition",
    "load_record",
    "write_record",
    "fit_normalizer",
    "iter_windows",
    "design_matrix",
    "build_io",
    "make_partition",
    "whole_steps",
    "synthetic_record",
]

BREATHING_CLASSES = ("regular", "irregular", "unlabeled")

# Half-range floor for constant coordinates, in millimeters.
SCALE_FLOOR_MM = 1e-6

# Partition boundaries in seconds, shared by both schemes.
_TRAIN_CV_END_S = 60.0
_ONLINE_TRAIN_END_S = 30.0
_OFFLINE_TRAIN_END_S = 54.0

# Anchors per block of `_design_blocks`, the block `iter_windows` and the
# harness's online loop read. The block buffer is live for a whole run: at
# L = 90, blocks of 16 (104 KB) raised uoro-protocol's peak_rss_mb by about
# 0.1 MB, and blocks of 8 kept it at the per-example stream's.
_WINDOW_BLOCK = 8

# A duration names a whole number of steps when its step count lies this
# close to an integer, relative to the count.
WHOLE_STEP_RTOL = 1e-9


@dataclass(frozen=True)
class MarkerRecord:
    """A uniformly sampled trace of marker positions.

    positions has shape (T, n_M, 3) in millimeters; sample_period is in
    seconds. label and breathing_class are metadata carried through to
    result tables.
    """

    positions: np.ndarray
    sample_period: float
    label: str = "unlabeled"
    breathing_class: str = "unlabeled"

    def __post_init__(self):
        if self.positions.ndim != 3 or self.positions.shape[2] != 3:
            raise ValueError(
                f"positions must have shape (T, n_M, 3), got {self.positions.shape}"
            )
        if not (self.sample_period > 0 and math.isfinite(self.sample_period)):
            raise ValueError(
                f"sample_period must be finite and > 0, got {self.sample_period}"
            )
        if not np.isfinite(self.positions).all():
            raise ValueError("positions contain non-finite values")
        if self.breathing_class not in BREATHING_CLASSES:
            raise ValueError(
                f"breathing_class must be one of {BREATHING_CLASSES}, "
                f"got {self.breathing_class!r}"
            )

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0]

    @property
    def n_markers(self) -> int:
        return self.positions.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_steps * self.sample_period

    def coords(self, k: int) -> np.ndarray:
        """Flat coordinate vector of length 3*n_M at step k (marker-major,
        x/y/z innermost)."""
        return self.positions[k].ravel()


@dataclass(frozen=True)
class Normalizer:
    """Frozen per-coordinate affine map: normalized = (v - offset) / scale.

    offset and scale have shape (n_M, 3) in millimeters and broadcast over
    any array shaped (..., n_M, 3).
    """

    offset: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.offset.shape != self.scale.shape:
            raise ValueError("offset and scale must have equal shapes")
        if not (self.scale > 0).all():
            raise ValueError("every scale entry must be > 0")

    def normalize(self, positions: np.ndarray) -> np.ndarray:
        return (positions - self.offset) / self.scale

    def denormalize(self, normalized: np.ndarray) -> np.ndarray:
        return normalized * self.scale + self.offset


@dataclass(frozen=True)
class WindowedSample:
    """One forecasting example: input u (length 3*n_M*L + 1, leading 1),
    normalized target (length 3*n_M) taken at step target_index =
    time_index + L + h - 1."""

    u: np.ndarray
    target: np.ndarray
    time_index: int
    target_index: int


@dataclass(frozen=True)
class Partition:
    """Disjoint, ordered step ranges: train < cross_validation < test."""

    train: range
    cross_validation: range
    test: range

    def __post_init__(self):
        if not (
            self.train.stop == self.cross_validation.start
            and self.cross_validation.stop == self.test.start
        ):
            raise ValueError("partition ranges must be contiguous and ordered")


def load_record(path: str | Path) -> MarkerRecord:
    """Read a marker CSV plus its sidecar manifest.

    The CSV holds a header row then one row per step:
    `t_seconds, m1x, m1y, m1z, m2x, ...` with coordinates in millimeters.
    The marker count is inferred from the column count. The manifest (JSON
    with keys label, breathing_class, rate_hz) is the CSV path with a
    .json suffix; when missing, the label falls back to the file stem, the
    class to "unlabeled", and the rate to the median time-column spacing.

    Raises:
        ValueError: empty file, wrong column count, non-numeric or
            non-finite cell, or non-increasing time stamps, each reported
            with its 1-based file line number (of several rows with a
            wrong column count or a non-numeric or non-finite cell, the
            earliest); or a manifest rate_hz that
            is not a finite number > 0 with a finite reciprocal, reported
            with the manifest path.
    """
    path = Path(path)
    rows: list[list[float]] = []
    line_nos: list[int] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        n_cols = len(header)
        if n_cols < 4 or (n_cols - 1) % 3 != 0:
            raise ValueError(
                f"{path}: line 1: expected 1 time column plus 3 columns per "
                f"marker, got {n_cols} columns"
            )
        # Finiteness is checked once over the parsed rows; before a row
        # that fails to parse is reported, so is any earlier non-finite row.
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_cols:
                _check_finite_rows(path, rows, line_nos)
                raise ValueError(
                    f"{path}: line {line_no}: expected {n_cols} columns, got {len(row)}"
                )
            try:
                rows.append(list(map(float, row)))
            except ValueError:
                _check_finite_rows(path, rows, line_nos)
                raise ValueError(f"{path}: line {line_no}: non-numeric cell") from None
            line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")

    data = _check_finite_rows(path, rows, line_nos)
    t = data[:, 0]
    n_markers = (n_cols - 1) // 3
    positions = data[:, 1:].reshape(len(rows), n_markers, 3)
    if len(t) > 1:
        dt = np.diff(t)
        if (dt <= 0).any():
            bad = int(np.argmax(dt <= 0))
            raise ValueError(f"{path}: line {bad + 3}: time stamps must increase")

    label = path.stem
    breathing_class = "unlabeled"
    rate_hz = None
    manifest_path = path.with_suffix(".json")
    if manifest_path.exists():
        with open(manifest_path) as f:
            manifest = json.load(f)
        label = manifest.get("label", label)
        breathing_class = manifest.get("breathing_class", breathing_class)
        rate_hz = manifest.get("rate_hz")
    if rate_hz is not None:
        # The rate must have a finite reciprocal > 0: that rules out a rate
        # <= 0, inf and NaN, a rate so small that 1 / rate overflows, and
        # an integer beyond the float range, which has no float reciprocal.
        sample_period = math.nan
        if isinstance(rate_hz, numbers.Real) and not isinstance(rate_hz, bool):
            with contextlib.suppress(ZeroDivisionError, OverflowError):
                sample_period = 1.0 / float(rate_hz)
        if not (math.isfinite(sample_period) and sample_period > 0):
            raise ValueError(
                f"{manifest_path}: rate_hz must be a finite number > 0, "
                f"got {rate_hz!r}"
            )
    elif len(t) > 1:
        sample_period = float(np.median(np.diff(t)))
    else:
        raise ValueError(f"{path}: single-row file needs a manifest with rate_hz")

    if len(t) > 1:
        jitter = np.abs(np.diff(t) - sample_period).max()
        if jitter > 0.01 * sample_period:
            warnings.warn(
                f"{path}: time stamps deviate from a uniform {sample_period}s "
                f"grid by up to {jitter:.3g}s",
                stacklevel=2,
            )
    return MarkerRecord(
        positions=positions,
        sample_period=sample_period,
        label=label,
        breathing_class=breathing_class,
    )


def _check_finite_rows(
    path: Path, rows: list[list[float]], line_nos: list[int]
) -> np.ndarray:
    """The parsed rows as one array, after one finiteness check over it.

    Raises:
        ValueError: a value is non-finite, reported with the file line
            number `line_nos` gives the first such row.
    """
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=-1)
    if not finite.all():
        line_no = line_nos[int(np.argmin(finite))]
        raise ValueError(f"{path}: line {line_no}: non-finite value")
    return data


def write_record(path: str | Path, record: MarkerRecord) -> None:
    """Inverse of `load_record`: CSV with derived time stamps plus a JSON
    manifest at the CSV path with a .json suffix.

    Positions, label and class come back exactly, and so does the period
    1/r of an integer rate r Hz (checked for r = 1 to 250). The manifest
    stores rate_hz = 1/period, so another period may come back one ulp off
    (about one random period in six does).
    """
    path = Path(path)
    header = ["t_seconds"]
    for j in range(record.n_markers):
        header += [f"m{j + 1}{axis}" for axis in "xyz"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for k in range(record.n_steps):
            writer.writerow(
                [repr(k * record.sample_period)]
                + [repr(float(v)) for v in record.positions[k].ravel()]
            )
    manifest = {
        "label": record.label,
        "breathing_class": record.breathing_class,
        "rate_hz": 1.0 / record.sample_period,
    }
    with open(path.with_suffix(".json"), "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def fit_normalizer(record: MarkerRecord, window: range) -> Normalizer:
    """Fit the frozen affine map on a window of steps.

    offset is the per-coordinate midpoint of (min, max) over the window and
    scale the half-range, so the window itself normalizes into [-1, 1].
    A constant coordinate gets its scale floored at SCALE_FLOOR_MM with a
    warning rather than failing.
    """
    if len(window) == 0:
        raise ValueError("normalization window is empty")
    if window.start < 0 or window.stop > record.n_steps:
        raise ValueError(
            f"window {window} exceeds record of {record.n_steps} steps"
        )
    chunk = record.positions[window.start : window.stop]
    lo = chunk.min(axis=0)
    hi = chunk.max(axis=0)
    offset = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)
    if (scale < SCALE_FLOOR_MM).any():
        n_flat = int((scale < SCALE_FLOOR_MM).sum())
        warnings.warn(
            f"{n_flat} coordinate(s) (near-)constant over the normalization "
            f"window; scale floored at {SCALE_FLOOR_MM} mm",
            stacklevel=2,
        )
        scale = np.maximum(scale, SCALE_FLOOR_MM)
    return Normalizer(offset=offset, scale=scale)


def _normalized_span(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int, anchors: range
) -> tuple[np.ndarray, int]:
    """Check the windows anchored at each step of `anchors`, and return the
    record span they read, from the first anchor to the last target,
    normalized and flattened, with its first step (an empty span when there
    are no anchors). Row k of the span (3 * n_M entries) is record step
    first + k. `iter_windows`, `design_matrix` and so `build_io` read every
    example out of this span.

    Raises:
        ValueError: L < 1, h < 1, or an anchor < 0.
        IndexError: the last window's target falls outside the record.
    """
    if L < 1 or h < 1:
        raise ValueError(f"L and h must be >= 1, got L={L}, h={h}")
    if not anchors:
        return np.empty(0), 0
    first, last = sorted((anchors[0], anchors[-1]))
    if first < 0:
        raise ValueError(f"n must be >= 0, got {first}")
    last_target = last + L + h - 1
    if last_target >= record.n_steps:
        raise IndexError(
            f"window at n={last} with L={L}, h={h} needs step {last_target}, "
            f"record has {record.n_steps}"
        )
    span = record.positions[first : last_target + 1]
    return normalizer.normalize(span).ravel(), first


def iter_windows(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int, anchors: range
) -> Iterator[WindowedSample]:
    """The forecasting examples anchored at each step of `anchors`, in order.

    The examples are the rows of `_design_blocks`' blocks, each input and
    target copied into arrays of its own. `build_io` is the one-anchor
    case. Arguments are checked at the call, before any example is made.

    Raises:
        ValueError: L < 1, h < 1, or an anchor < 0.
        IndexError: the last window's target falls outside the record.
    """
    blocks = _design_blocks(record, normalizer, L, h, anchors)
    lag = L + h - 1
    rows = (row for U, Y in blocks for row in zip(U, Y))
    return (
        WindowedSample(u=u.copy(), target=target.copy(), time_index=n,
                       target_index=n + lag)
        for n, (u, target) in zip(anchors, rows)
    )


def _design_blocks(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int,
    anchors: range, size: int = _WINDOW_BLOCK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The examples anchored at each step of `anchors` as designs of at
    most `size` consecutive anchors each, in order: row i of U and Y is the
    input u and the target of the block's i-th example.

    The record span the examples read, from the first anchor to the last
    target, is normalized once. The (L, n_M, 3) window at anchor n is one
    contiguous run of that span flattened, so U is the bias column of 1s
    beside the runs, copied from a strided view of the span, and Y is a
    view of the span's target rows. U is one buffer, which each block
    overwrites: a consumer must be done with a block's rows, or have
    copied them, before it asks for the next block. Arguments are checked
    at the call, before any block is made.

    Raises:
        ValueError: L < 1, h < 1, or an anchor < 0.
        IndexError: the last window's target falls outside the record.
    """
    flat, first = _normalized_span(record, normalizer, L, h, anchors)
    return _blocks(flat, first, 3 * record.n_markers, L, h, anchors, size)


def _blocks(
    flat: np.ndarray, first: int, c: int, L: int, h: int, anchors: range,
    size: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Serve `_design_blocks`' blocks out of its normalized span, `flat`,
    whose row k (c = 3 * n_M entries) is record step first + k."""
    if not anchors:
        return
    n_rows = flat.size // c
    # Row j of `windows` is the window anchored at step first + j.
    windows = np.ndarray((n_rows - L + 1, L * c), buffer=flat,
                         strides=(c * flat.itemsize, flat.itemsize))
    targets = flat.reshape(n_rows, c)[L + h - 1 :]
    U = np.empty((min(size, len(anchors)), 1 + L * c))
    U[:, 0] = 1.0
    for i in range(0, len(anchors), size):
        block = anchors[i : i + size]
        stop = block.stop - first
        # A descending range's last block runs down to row 0.
        rows = slice(block.start - first, stop if stop >= 0 else None,
                     block.step)
        k = len(block)
        U[:k, 1:] = windows[rows]
        yield U[:k], targets[rows]


def design_matrix(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int, n_anchors: int
) -> tuple[np.ndarray, np.ndarray]:
    """The examples `iter_windows` gives at anchors 0 .. n_anchors - 1, as
    one least-squares design: row n of U is the input u and row n of Y the
    target of the example anchored at step n.

    It is the one block of `_design_blocks` over those anchors.

    Raises:
        ValueError: L < 1 or h < 1.
        IndexError: the last window's target falls outside the record.
    """
    return _design(record, normalizer, L, h, range(n_anchors))


def _design(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int, anchors: range
) -> tuple[np.ndarray, np.ndarray]:
    """`design_matrix` over the anchors of `anchors`, a range of step 1:
    row i of U and Y is the example anchored at step anchors[i]."""
    blocks = _design_blocks(record, normalizer, L, h, anchors,
                            max(len(anchors), 1))
    if not anchors:
        c = 3 * record.n_markers
        return np.empty((0, 1 + L * c)), np.empty((0, c))
    return next(blocks)


def build_io(
    record: MarkerRecord, normalizer: Normalizer, L: int, h: int, n: int
) -> WindowedSample:
    """Assemble the forecasting example anchored at step n.

    The input stacks the normalized coordinates of steps n .. n+L-1 behind
    a leading bias 1; the target is the normalized coordinate vector at
    step n + L + h - 1. This is `iter_windows`' example at the single
    anchor n, with its checks and messages, read straight from the span
    without a block: the span of one anchor is the window followed by the
    rows up to the target.

    Raises:
        ValueError: L < 1, h < 1, or n < 0.
        IndexError: the window or target falls outside the record.
    """
    flat, _ = _normalized_span(record, normalizer, L, h, range(n, n + 1))
    c = 3 * record.n_markers
    u = np.empty(1 + L * c)
    u[0] = 1.0
    u[1:] = flat[: L * c]
    return WindowedSample(u=u, target=flat[-c:].copy(), time_index=n,
                          target_index=n + L + h - 1)


def whole_steps(duration_s: float, sample_period: float, name: str) -> int:
    """The number of steps, at least one, that duration_s spans.

    Raises:
        ValueError: the rate 1 / sample_period is not finite and > 0, or
            duration_s / sample_period is not finite, rounds to less than
            one, or is not within WHOLE_STEP_RTOL (relative) of a whole
            number; the message names the duration (as `name`) and the
            sampling rate.
    """
    rate_hz = 1.0 / sample_period if sample_period else math.inf
    exact = duration_s / sample_period if sample_period else math.inf
    if not (0 < rate_hz < math.inf and math.isfinite(exact)):
        raise ValueError(
            f"{name} of {duration_s} seconds at {rate_hz:g} Hz is {exact:g} "
            f"steps; the duration, the rate and the step count must be "
            f"finite and the rate > 0")
    steps = round(exact)
    if steps < 1:
        raise ValueError(f"{name} {duration_s}s is below one step at {rate_hz:g} Hz")
    if abs(exact - steps) > WHOLE_STEP_RTOL * exact:
        raise ValueError(
            f"{name} {duration_s}s is {exact:.6g} steps at {rate_hz:g} Hz, "
            f"not a whole number of steps"
        )
    return steps


def make_partition(
    record: MarkerRecord, scheme: str = "online_30_30"
) -> Partition:
    """Split a record into train / cross-validation / test step ranges.

    online_30_30 puts the first 30 s in train and the next 30 s in
    cross-validation; offline_54_6 uses 54 s and 6 s. Both test on
    everything after 60 s, so the record must be strictly longer than 60 s.
    """
    if scheme == "online_30_30":
        train_end_s = _ONLINE_TRAIN_END_S
    elif scheme == "offline_54_6":
        train_end_s = _OFFLINE_TRAIN_END_S
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")
    b1 = round(train_end_s / record.sample_period)
    b2 = round(_TRAIN_CV_END_S / record.sample_period)
    if record.n_steps <= b2:
        raise ValueError(
            f"record covers {record.duration_s:.1f}s; partitions need more "
            f"than {_TRAIN_CV_END_S:.0f}s"
        )
    return Partition(
        train=range(0, b1),
        cross_validation=range(b1, b2),
        test=range(b2, record.n_steps),
    )


def synthetic_record(
    duration_s: float = 200.0,
    n_markers: int = 3,
    sample_period: float = 0.1,
    seed: int = 0,
    label: str = "synthetic",
) -> MarkerRecord:
    """Generate a breathing-like test record.

    Each coordinate is a fundamental sinusoid plus its second harmonic,
    a slow linear drift, and white noise. Amplitudes land in the 5-20 mm
    peak-to-peak range typical of external chest markers; the fundamental
    period is drawn between 3 and 5 seconds and shared by all markers.
    Useful for demos and end-to-end tests when no recorded data is at hand.
    """
    rng = np.random.default_rng(seed)
    n_steps = round(duration_s / sample_period)
    t = np.arange(n_steps) * sample_period
    f1 = rng.uniform(0.2, 1 / 3.0)
    positions = np.empty((n_steps, n_markers, 3))
    for j in range(n_markers):
        for axis in range(3):
            a1 = rng.uniform(2.5, 7.0)
            a2 = rng.uniform(0.3, 0.15 * a1 + 0.3)
            phase1 = rng.uniform(0, 2 * np.pi)
            phase2 = rng.uniform(0, 2 * np.pi)
            baseline = rng.uniform(-50.0, 50.0)
            drift = rng.uniform(-0.01, 0.01)
            noise = 0.05 * rng.standard_normal(n_steps)
            positions[:, j, axis] = (
                baseline
                + a1 * np.sin(2 * np.pi * f1 * t + phase1)
                + a2 * np.sin(2 * np.pi * 2 * f1 * t + phase2)
                + drift * t
                + noise
            )
    return MarkerRecord(
        positions=positions,
        sample_period=sample_period,
        label=label,
        breathing_class="regular",
    )
