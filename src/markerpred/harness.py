"""Experiment orchestration: cross-validation, evaluation, aggregation.

The protocol, per sequence and per horizon:

    1. grid search: every hyperparameter tuple is scored by its mean
       cross-validation RMSE over n_cv seeded runs (one run for methods
       without random initialization), and the argmin is selected with a
       deterministic tie-break;
    2. evaluation: the chosen tuple is re-run n_test times (again one run
       for deterministic methods), scoring the test range, with Gaussian
       95% intervals per metric;
    3. aggregation: per-condition results combine into overall and
       per-breathing-class tables plus per-horizon curves.

Online methods (uoro, rtrl, lms) learn from step 0 and never stop
updating; the partition ranges only decide which predictions are scored.
Cross-validation runs stop at the end of the cross-validation range, so
test data never influences hyperparameter selection. The offline linear
regression is fit on its training range only.

Runs are flagged as diverged when a trainer raises on a non-finite
quantity; diverged runs are excluded from statistics but counted, and a
tuple whose runs all diverge is dropped from selection with a warning.

Every random draw descends from (master_seed, sequence, horizon, tuple,
run, phase) through a stable hash, so any subset of the experiment can be
reproduced bit-for-bit in isolation.

Each phase of a sequence is one task list (`_task_list`): its runs as
(horizon, tuple index, run index, seed), grouped into the tasks that
step as one learner. The cross-validation runs of the LMS tuples that
share L (one per learning rate and horizon) read one window stream and
form one batch (`_lms_learner`), each slot training on the target row of
its own horizon; every other run is a task of its own. The tasks run in
list order, horizon-major, tuple-major and run-minor by their first run
(`_run_tasks`): a one-run task through `run_sequence_online`, a batch
through `_run_online`, the one online loop that also drives every single
online run. Each run becomes its RunRecord as it finishes, and
`grid_search` and `evaluate` fold the records. A batch keeps its shape:
a slot that diverges is frozen in place, its outputs NaN from then on,
while the others step on, and a slot stops at its own horizon's last
anchor the same way, unrecorded. It keeps each run's predictions, losses
and divergence step and quantity bit for bit those of the run alone, and
entries, tie-breaks and files keep the grid's order.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import numbers
import platform
import re
import time
import warnings
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import markerpred
from markerpred.baselines import (
    _lms_rates,
    fit_linreg,
    no_prediction,
)
from markerpred.metrics import (
    CiSummary,
    MetricSet,
    PredictionTrace,
    ci_aggregate,
    ci_per_condition,
    compute_metrics,
)
from markerpred.rnn import _FINITE_BOUND, NonFiniteError, RnnDims, init_params
from markerpred.rtrl import RtrlWorkspace, init_influence, rtrl_step
from markerpred.signal import (
    MarkerRecord,
    Normalizer,
    Partition,
    _design,
    design_matrix,
    fit_normalizer,
    iter_windows,
    load_record,
    make_partition,
    whole_steps,
)
from markerpred.uoro import UoroHyper, UoroWorkspace, init_memory, uoro_step

logger = logging.getLogger(__name__)

__all__ = [
    "ALGORITHMS",
    "STOCHASTIC_ALGORITHMS",
    "DEFAULT_GRIDS",
    "METRIC_NAMES",
    "CLIP_TAU",
    "ExperimentConfig",
    "HyperChoice",
    "CvEntry",
    "CvResult",
    "RunRecord",
    "RunResult",
    "EvalResult",
    "TableRow",
    "CurvePoint",
    "AggregateReport",
    "derive_seed",
    "iter_grid",
    "partition_scheme",
    "run_sequence_online",
    "grid_search",
    "evaluate",
    "aggregate",
    "bench_step_time",
    "load_dataset",
    "run_experiment",
    "report_from_dir",
]

ALGORITHMS = ("uoro", "rtrl", "lms", "linreg", "none")
STOCHASTIC_ALGORITHMS = ("uoro", "rtrl")
METRIC_NAMES = ("mae", "rmse", "nrmse", "max_error", "jitter")

# Shared gradient-clipping threshold for every trained method.
CLIP_TAU = 2.0

# The largest prediction horizon, in seconds: the paper's largest.
MAX_HORIZON_S = 2.0

# Steps of Rademacher signs a UORO learner draws at once: enough to make the
# draw's fixed cost negligible per step; 256 raised uoro-protocol's peak
# memory by about 0.3 MB.
_SIGN_BLOCK = 64

# Steps between the LMS learner's folds of its pending updates into its
# weights. Blocks of 4 and 8 read baselines-io wall_s within 2 % of each
# other; 16 took about 4 % longer per step than 8 (mean over the shipped
# L, one slot or the shipped 7).
_LMS_BLOCK = 8

# Shipped cross-validation ranges per algorithm.
DEFAULT_GRIDS: dict[str, dict[str, tuple]] = {
    "uoro": {
        "eta": (0.05, 0.1, 0.2),
        "sigma_init": (0.02, 0.05),
        "L": (10, 30, 50, 70, 90),
        "q": (10, 30, 50, 70, 90),
    },
    "rtrl": {
        "eta": (0.02, 0.05, 0.1, 0.2),
        "sigma_init": (0.01, 0.02, 0.05),
        "L": (10, 25, 40, 55),
        "q": (10, 25, 40, 55),
    },
    "lms": {
        "eta": (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
        "L": (10, 30, 50, 70, 90),
    },
    "linreg": {"L": (10, 20, 30, 40, 50, 60, 70, 80, 90)},
    "none": {},
}

# Grid axes in canonical order, with what each one sets.
_GRID_KEYS = {
    "eta": "learning rate",
    "sigma_init": "initial weight scale",
    "L": "signal history length",
    "q": "hidden state size",
}


@dataclass(frozen=True)
class HyperChoice:
    """One grid point; fields an algorithm does not use stay None."""

    eta: float | None = None
    sigma_init: float | None = None
    L: int | None = None
    q: int | None = None

    def key(self) -> str:
        """Canonical text form, used for seeding and file output."""
        parts = [
            f"{name}={getattr(self, name)!r}"
            for name in _GRID_KEYS
            if getattr(self, name) is not None
        ]
        return ",".join(parts) if parts else "default"

    def sort_key(self) -> tuple:
        """Deterministic tie-break: smaller q, then L, then eta, then
        sigma_init."""
        return (
            self.q if self.q is not None else 0,
            self.L if self.L is not None else 0,
            self.eta if self.eta is not None else 0.0,
            self.sigma_init if self.sigma_init is not None else 0.0,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one algorithm's experiment.

    horizons_s are numbers of seconds in (0, MAX_HORIZON_S].
    grid falls back to the algorithm's shipped default when None.
    """

    algorithm: str
    horizons_s: tuple[float, ...]
    data_manifest: str | Path
    out_dir: str | Path
    grid: dict[str, tuple] | None = None
    n_cv: int = 50
    n_test: int = 300
    master_seed: int = 0
    save_loss_traces: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if not self.horizons_s:
            raise ValueError("horizons_s must be non-empty")
        for i, h in enumerate(self.horizons_s):
            # A bool would pass as a 1 s horizon, and a string would fail
            # the bound check with a bare TypeError.
            if isinstance(h, bool) or not isinstance(h, numbers.Real):
                raise ValueError(f"horizons_s takes numbers, got {h!r}")
            if not 0 < h <= MAX_HORIZON_S:
                raise ValueError(f"horizon {h}s outside (0, {MAX_HORIZON_S}]s")
            if h in self.horizons_s[:i]:
                raise ValueError(f"horizon {h}s is listed more than once")
        for name in ("n_cv", "n_test"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} takes integers >= 1, got {value!r}")
        # derive_seed hashes str(master_seed): True would seed apart from 1,
        # and "3" the same as 3.
        if (isinstance(self.master_seed, bool)
                or not isinstance(self.master_seed, numbers.Integral)):
            raise ValueError(f"master_seed takes integers, got {self.master_seed!r}")
        for name in ("n_cv", "n_test", "master_seed"):
            # The manifest's JSON cannot hold a numpy integer.
            object.__setattr__(self, name, int(getattr(self, name)))
        # A truthy string such as "no" would turn the traces on.
        if not isinstance(self.save_loss_traces, bool):
            raise ValueError(
                f"save_loss_traces takes true or false, got "
                f"{self.save_loss_traces!r}"
            )
        if self.grid is not None:
            if not all(len(v) > 0 for v in self.grid.values()):
                raise ValueError("grid axes must be non-empty")
            _check_grid_axes(self.algorithm, self.grid)

    def effective_grid(self) -> dict[str, tuple]:
        return DEFAULT_GRIDS[self.algorithm] if self.grid is None else self.grid


@dataclass(frozen=True)
class RunResult:
    """Outcome of one seeded pass over a sequence; the loss trace and its
    first target step are set only when the run collects them, the weights
    only by linreg, which fits them on the training range."""

    trace: PredictionTrace | None
    losses: np.ndarray | None = None
    loss_start: int | None = None
    diverged: bool = False
    diverged_at: int | None = None
    diverged_quantity: str | None = None
    weights: np.ndarray | None = None


@dataclass(frozen=True)
class CvEntry:
    """One grid point's cross-validation score. `diverged_at` and
    `diverged_quantity` hold each diverged run's anchor step and
    non-finite quantity, in run order."""

    hyper: HyperChoice
    mean_rmse: float
    n_diverged: int
    n_runs: int
    diverged_at: tuple[int, ...] = ()
    diverged_quantity: tuple[str, ...] = ()


@dataclass(frozen=True)
class CvResult:
    """The cross-validation surface of one (sequence, horizon). For linreg,
    `chosen_weights` is the chosen tuple's fit, which `evaluate` can reuse:
    it is fit on the training range whatever range is scored."""

    algorithm: str
    sequence: str
    horizon_s: float
    entries: tuple[CvEntry, ...]
    chosen: HyperChoice
    chosen_weights: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )


@dataclass(frozen=True)
class RunRecord:
    """One evaluation run; a diverged run keeps the quantity that went
    non-finite and the anchor step of the sample it happened on."""

    run_index: int
    seed: int
    diverged: bool
    diverged_quantity: str | None
    metrics: MetricSet | None
    diverged_at: int | None = None


@dataclass(frozen=True)
class EvalResult:
    algorithm: str
    sequence: str
    breathing_class: str
    horizon_s: float
    hyper: HyperChoice
    runs: tuple[RunRecord, ...]
    ci: dict[str, CiSummary | None]
    n_diverged: int
    mean_loss_trace: np.ndarray | None = None
    loss_trace_start: int | None = None

    def metric_mean(self, name: str) -> float:
        values = [getattr(r.metrics, name) for r in self.runs if not r.diverged]
        if not values:
            raise ValueError("all runs diverged; no metric mean available")
        return float(np.mean(values))


@dataclass(frozen=True)
class TableRow:
    cohort: str
    n_sequences: int
    n_conditions: int
    means: dict[str, float]
    half_ranges: dict[str, float | None]


@dataclass(frozen=True)
class CurvePoint:
    horizon_s: float
    n_sequences: int
    means: dict[str, float]


@dataclass(frozen=True)
class AggregateReport:
    algorithm: str
    rows: tuple[TableRow, ...]
    curve: tuple[CurvePoint, ...]


# ------------------------------ seeding ------------------------------------


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and any identifying parts."""
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ------------------------------ grids --------------------------------------


def _is_count(v) -> bool:
    """v is an integer >= 1, and not a bool (True would mean 1 silently)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def _check_axis_values(axis: str, values, where: str) -> None:
    """Every value of grid axis `axis` must be one the learners take: eta
    and sigma_init finite numbers > 0 (a negative eta would train by
    gradient ascent, an infinite one diverge at once), L and q integers
    >= 1. The error names `where` the values came from, then the axis."""
    if axis in ("L", "q"):
        kind, valid = "integers >= 1", _is_count
    else:
        kind, valid = "finite numbers > 0", lambda v: (
            isinstance(v, numbers.Real) and 0 < v < math.inf)
    bad = [v for v in values if isinstance(v, bool) or not valid(v)]
    if bad:
        raise ValueError(
            f"{where} {axis} ({_GRID_KEYS[axis]}) takes {kind}, got {bad[0]!r}"
        )


def _check_grid_axes(algorithm: str, grid: dict[str, tuple]) -> None:
    """A grid must have exactly the axes of the algorithm's shipped grid: a
    missing axis would fail at the first run, and an extra one would repeat
    the same run under keys that differ only in a value nothing reads.
    Every value must be one the learners take (`_check_axis_values`)."""
    axes = list(DEFAULT_GRIDS[algorithm])
    missing = [k for k in axes if k not in grid]
    unknown = sorted(set(grid) - set(axes))
    if missing or unknown:
        raise ValueError(
            f"{algorithm} grid must have axes {axes}: missing {missing}, "
            f"unknown grid axes {unknown}"
        )
    for axis in axes:
        _check_axis_values(axis, grid[axis], f"{algorithm} grid axis")


def iter_grid(algorithm: str, grid: dict[str, tuple]) -> list[HyperChoice]:
    """Expand a grid specification, whose axes must be the algorithm's
    (`_check_grid_axes`), into an ordered list of tuples."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _check_grid_axes(algorithm, grid)
    keys = [k for k in _GRID_KEYS if k in grid]
    choices = []
    for combo in itertools.product(*(sorted(set(grid[k])) for k in keys)):
        choices.append(HyperChoice(**dict(zip(keys, combo))))
    return choices


def partition_scheme(algorithm: str) -> str:
    """Offline regression trains on 54 s and validates on 6 s; every other
    method uses the 30 s / 30 s online split."""
    return "offline_54_6" if algorithm == "linreg" else "online_30_30"


# ------------------------------ single runs --------------------------------


def _trace_from_steps(
    record: MarkerRecord,
    pred: np.ndarray,
    k_min: int,
    normalizer: Normalizer | None = None,
) -> PredictionTrace:
    """Pair the predictions `pred` for steps k_min, k_min + 1, ... with the
    record, mapping them back to mm through `normalizer` when normalized."""
    pred = pred.reshape(len(pred), record.n_markers, 3)
    if normalizer is not None:
        pred = normalizer.denormalize(pred)
    true = record.positions[k_min : k_min + len(pred)]
    return PredictionTrace(pred=pred, true=true, k_min=k_min)


def _online_learner(
    algorithm: str, hyper: HyperChoice, m: int, p: int, seed: int
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, float]]:
    """A fresh "uoro" or "rtrl" learner (the callers check the name):
    step(u, y_star) -> (y, loss) trains on one sample, u of length m + 1
    and y_star of length p, keeps the learner state in its closure, and
    raises NonFiniteError when the learner goes non-finite. Weights are
    drawn from `seed`, UORO's signs from [seed, 1].

    Each learner owns one workspace and steps in place (see the uoro and
    rtrl module docstrings); every y it returns is a fresh array. The UORO
    learner draws its signs _SIGN_BLOCK steps ahead, which gives the signs
    of one draw per step (see the uoro module docstring). LMS learners are
    `_lms_learner`'s.
    """
    dims = RnnDims(q=hyper.q, m=m, p=p)
    params = init_params(dims, hyper.sigma_init, seed)
    x = np.zeros(dims.q)
    if algorithm == "uoro":
        memory = init_memory(dims)
        uoro_hyper = UoroHyper(
            eta=hyper.eta, tau=CLIP_TAU, sigma_init=hyper.sigma_init,
            L=hyper.L, q=hyper.q,
        )
        nu_rng = np.random.default_rng([seed, 1])
        workspace = UoroWorkspace(dims)
        signs, n_used = None, _SIGN_BLOCK

        def step(u, y_star):
            nonlocal params, x, memory, signs, n_used
            if n_used == _SIGN_BLOCK:
                signs = 2.0 * nu_rng.integers(0, 2, size=(_SIGN_BLOCK, dims.q)) - 1.0
                n_used = 0
            result = uoro_step(params, x, memory, u, y_star, uoro_hyper, nu_rng,
                               nu=signs[n_used], workspace=workspace)
            n_used += 1
            params, x, memory = result.params, result.x, result.memory
            return result.y, result.loss

        return step

    influence = init_influence(dims)
    workspace = RtrlWorkspace(dims)

    def step(u, y_star):
        nonlocal params, x, influence
        result = rtrl_step(
            params, x, influence, u, y_star, eta=hyper.eta, tau=CLIP_TAU,
            workspace=workspace,
        )
        params, x, influence = result.params, result.x, result.influence
        return result.y, result.loss

    return step


def _lms_learner(
    etas: list[float], m: int, p: int,
    diverged: dict[int, tuple[int, str]] | None = None,
    last: list[int] | None = None,
) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, list[float]]]:
    """B = len(etas) LMS learners from zero weights, one per rate, that
    step as one block-delayed batch on one stream: step(u, y_star) ->
    (y, losses), y a B x p array and losses a list of B floats, slot by
    slot. y_star is one target for every slot, or a B x p array of one
    target per slot.

    Exact LMS need not form each rank-one update (Benesty & Duhamel, "A
    fast exact least mean square adaptive algorithm", IEEE Trans. SP
    40(12), 1992). Let W0 be a slot's weights as of the last fold, u_s the
    inputs since, and c_s e_s its scaled errors (the clipped rate of
    `baselines._lms_rates` times the error). Its weights are then
    W = W0 + sum_s c_s e_s u_s^T, so

        W u = W0 u + P (U u),

    with U the j pending inputs as rows, shared by all slots, and P the
    p x j block of the slot's c_s e_s as columns. A step makes that
    prediction with stacked products and appends its u to U and its c e
    to P. Every _LMS_BLOCK steps, counted from the start of the stream,
    it folds W0 += P U: one BLAS product per slot into a spare buffer,
    then one add. So a step reads the weights once, for W0 u, and writes
    them only at a fold. At L = 90, B = 7 a step that folds takes about
    70 us against about 30 us for one that does not (2-vCPU Xeon, one
    BLAS thread). The learner rounds differently from the `lms_step`
    chain, which forms W at every step.

    Every slot's products are its own gemv or gemm and its scalars are its
    own Python floats, and the fold schedule never moves, so each slot's
    bits are those of its one-slot learner whatever slots share its batch.

    Finiteness: after n steps a slot's weight norm is at most n * eta *
    tau, by the clip rule, and the inputs carry the bias 1, so ||u|| >= 1
    and each c e has norm at most eta * tau. While n * eta * tau is at most
    half the largest double the slot's weights are finite; from then on
    each step checks its W0 + P U in a temporary, which never folds early.
    A slot whose loss or weights go non-finite is recorded in `diverged`
    as slot: (step index from 0, quantity) and frozen in place: its rows
    of W0 and P are zeroed without a fold and its rate and growth set to
    0, so it predicts 0 and never steps again, and its row of y and its
    loss are NaN from then on. The batch keeps its shape, and a frozen
    slot's products stay its own, so no live slot's bits change.

    `last`, when given, holds each slot's last step index. At the step
    after it the slot is frozen the same way but never recorded, whatever
    its target (the harness feeds NaN there), and its row of y and its
    loss are NaN from then on. Up to its last step a slot's bits are
    those of a learner whose stream ends there.

    The step at which the last live slot diverges, every other slot
    diverged or stopped, raises its NonFiniteError, as a one-learner step
    does.
    """
    n_slots = len(etas)
    etas = list(etas)
    diverged = {} if diverged is None else diverged
    # Slots that step no more: diverged, or past their last step.
    frozen: set[int] = set()
    # Step index: the slots that stop there.
    stops: dict[int, list[int]] = {}
    for k, n in enumerate(last or ()):
        stops.setdefault(n + 1, []).append(k)
    w0, spare = np.zeros((n_slots, p, m + 1)), np.empty((n_slots, p, m + 1))
    pending_u = np.empty((_LMS_BLOCK, m + 1))
    pending_ce = np.empty((n_slots, p, _LMS_BLOCK))
    # By the clip rule a step adds at most eta * tau to a slot's weight norm.
    growth = [eta * CLIP_TAU for eta in etas]
    n_steps = 0

    def freeze(k):
        frozen.add(k)
        w0[k], pending_ce[k], etas[k], growth[k] = 0.0, 0.0, 0.0, 0.0

    def step(u, y_star):
        nonlocal n_steps
        for k in stops.get(n_steps, ()):
            freeze(k)
        j = n_steps % _LMS_BLOCK
        y = np.matmul(w0, u)
        if j:
            y += np.matmul(pending_ce[:, :, :j], pending_u[:j] @ u)
        e = y_star - y
        losses, rates, gone = _lms_rates(e, u, etas, CLIP_TAU)
        np.multiply(e, np.array(rates)[:, None], out=pending_ce[:, :, j])
        pending_u[j] = u
        n_steps += 1
        lost = [(k, "loss") for k in gone if k not in frozen]
        if n_steps * max(growth) > _FINITE_BOUND:
            for k, slot_growth in enumerate(growth):
                if (n_steps * slot_growth > _FINITE_BOUND and k not in gone
                        and not np.isfinite(
                            w0[k] + pending_ce[k, :, :j + 1] @ pending_u[:j + 1]
                        ).all()):
                    lost.append((k, "weights"))
        for k, quantity in lost:
            diverged[k] = (n_steps - 1, quantity)
            freeze(k)
        if lost and len(frozen) == n_slots:
            raise NonFiniteError(max(lost)[1])
        if n_steps % _LMS_BLOCK == 0:
            np.add(w0, np.matmul(pending_ce, pending_u, out=spare), out=w0)
        for k in frozen:
            y[k], losses[k] = math.nan, math.nan
        return y, losses

    return step


def _first_scored_step(
    algorithm: str, record: MarkerRecord, hyper: HyperChoice, h: int,
    scoring: range,
) -> int:
    """Check a run's inputs (see `run_sequence_online`) and return k_min,
    the first step whose prediction it scores."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    missing = [k for k in DEFAULT_GRIDS[algorithm] if getattr(hyper, k) is None]
    if missing:
        raise ValueError(f"{algorithm} requires " + ", ".join(
            f"{k} ({_GRID_KEYS[k]})" for k in missing
        ))
    for k in DEFAULT_GRIDS[algorithm]:
        _check_axis_values(k, (getattr(hyper, k),),
                           f"{algorithm} HyperChoice field")
    if scoring.step != 1:
        raise ValueError(f"{algorithm}: scoring range {scoring} must have step 1")
    if scoring.stop > record.n_steps:
        raise ValueError(
            f"{algorithm}: scoring range {scoring} runs past the end of the "
            f"record, which has {record.n_steps} steps"
        )
    # The first reachable target: step h for the hold, L + h - 1 for windows.
    first = h if algorithm == "none" else hyper.L + h - 1
    if not scoring or scoring[-1] < first:
        raise ValueError(
            f"{algorithm}: scoring range {scoring} unreachable with "
            f"L={hyper.L}, h={h}: the first reachable target is step {first}"
        )
    return max(scoring.start, first)


def run_sequence_online(
    algorithm: str,
    record: MarkerRecord,
    partition: Partition,
    hyper: HyperChoice,
    h: int,
    seed: int,
    scoring_range: range | None = None,
    collect_loss: bool = False,
    weights: np.ndarray | None = None,
) -> RunResult:
    """One seeded pass over a sequence, scoring one step range.

    Online methods start at step 0 and update their weights on every
    windowed sample whose target precedes the end of the scoring range;
    predictions whose target lands inside the scoring range are collected,
    denormalized to mm, and paired with the true positions. The offline
    regression fits once on the training range; `none` holds the last
    observed position. An online run is `_run_online` over one slot.
    The protocol's one-run tasks (`_task_list`) run through here.

    Args:
        algorithm: one of ALGORITHMS.
        record: the sequence, in mm.
        partition: step ranges from `make_partition`.
        hyper: grid point; must set the algorithm's grid axes to values
            its grid takes (`_check_axis_values`), others ignored.
        h: horizon in steps (>= 1).
        seed: seed for weight initialization and sign draws.
        scoring_range: defaults to the partition's test range.
        collect_loss: also return the per-sample training loss trace.
        weights: linreg only, the weights an earlier run of this record,
            partition, L and h fit (`RunResult.weights`), used instead of
            fitting them again.

    Returns:
        RunResult; on divergence the trace is None and the failing step
        and quantity are recorded instead.

    Raises:
        ValueError: also for a scoring range whose step is not 1, that
            runs past the end of the record, or that has no reachable
            target.
    """
    scoring = partition.test if scoring_range is None else scoring_range
    # Row k - k_min of the prediction array holds the prediction of step k.
    k_min = _first_scored_step(algorithm, record, hyper, h, scoring)

    if algorithm == "none":
        pred = np.stack([no_prediction(record, h, k - h)
                         for k in range(k_min, scoring.stop)])
        return RunResult(trace=_trace_from_steps(record, pred, k_min))

    normalizer = fit_normalizer(record, partition.train)
    L = hyper.L
    lag = L + h - 1

    if algorithm == "linreg":
        w = weights
        if w is None:
            w = fit_linreg(
                *design_matrix(record, normalizer, L, h,
                               max(0, partition.train.stop - lag)),
                context=f"sequence {record.label!r}, L={L}, h={h} steps",
            )
        # One stacked product over the scored windows, each slice the gemv
        # w @ u bit for bit.
        U, _ = _design(record, normalizer, L, h,
                       range(k_min - lag, scoring.stop - lag))
        pred = np.matmul(w, U[:, :, None])[:, :, 0]
        # The weights go back as a copy made now: fit_linreg's array was
        # allocated while the QR's design-sized copies were live, and kept
        # by the caller it would split the heap they freed (baselines-io,
        # 40 s runs on a 2-vCPU host: peak_rss_mb 54.6 MB without the copy,
        # 53.0 MB with it). The copy keeps the layout, on which W u's
        # rounding depends.
        return RunResult(
            trace=_trace_from_steps(record, pred, k_min, normalizer),
            weights=w.copy(order="K"),
        )

    return _run_online(algorithm, record, normalizer, (hyper,), (h,), (seed,),
                       (k_min,), scoring.stop, collect_loss)[0]


def _run_online(
    algorithm: str,
    record: MarkerRecord,
    normalizer: Normalizer,
    hypers: tuple[HyperChoice, ...],
    hs: tuple[int, ...],
    seeds: tuple[int, ...],
    k_mins: tuple[int, ...],
    stop: int,
    collect_loss: bool,
) -> list[RunResult]:
    """The online loop: the runs of one task (`_task_list`), one slot
    each with the horizon hs[s] in steps, the seed seeds[s] and the first
    scored step k_mins[s] of that slot, over one window stream of the
    record, each scoring the predictions of its steps k_mins[s] to
    stop - 1, as `run_sequence_online` states. The hypers share L. LMS
    runs any number of slots as one batch (`_lms_learner`); a UORO or
    RTRL run is one slot.

    A slot's last anchor is stop - L - h, whose target is step stop - 1.
    The stream runs from anchor 0 to the latest last anchor, the one of
    the shortest horizon, and each slot trains on the target row of its
    own horizon. A slot with a longer horizon stops at its own last
    anchor, and past it is fed NaN targets, so no slot reads a step at or
    past stop. Predictions are kept by anchor, and each slot's trace is
    sliced from its own k_min. Returns each slot's RunResult; a slot that
    diverges is recorded at its step with its quantity, and the other
    slots run on untouched."""
    L, p = hypers[0].L, 3 * record.n_markers
    h = min(hs)
    lasts = [stop - L - h_slot for h_slot in hs]
    first = min(k_min - (L + h_slot - 1) for k_min, h_slot in zip(k_mins, hs))
    last_n = stop - L - h
    # Slot: (anchor step, quantity). The learners count their steps from
    # anchor 0, where the stream starts, so a step index is an anchor.
    diverged: dict[int, tuple[int, str]] = {}
    if algorithm == "lms":
        step = _lms_learner([hyper.eta for hyper in hypers], p * L, p,
                            diverged, lasts)
    else:
        (hyper,), (seed,) = hypers, seeds
        step = _online_learner(algorithm, hyper, p * L, p, seed)
    targets = offsets = None
    if max(hs) > h:
        # Row k is step k normalized, as the stream's targets are; the
        # rows past stop - 1 are NaN.
        targets = np.full((stop + max(hs) - h, p), math.nan)
        targets[:stop] = normalizer.normalize(record.positions[:stop]).reshape(stop, p)
        offsets = np.array(hs) + (L - 1)
    # Row n - first of pred holds each slot's prediction at anchor n.
    pred = np.empty((last_n + 1 - first, len(hypers), p))
    losses = np.empty((last_n + 1, len(hypers))) if collect_loss else None
    with np.errstate(over="ignore", invalid="ignore"):
        for sample in iter_windows(record, normalizer, L, h, range(last_n + 1)):
            n = sample.time_index
            y_star = sample.target if targets is None else targets[n + offsets]
            try:
                y, loss = step(sample.u, y_star)
            except NonFiniteError as err:
                # Every slot has gone. An LMS batch has recorded its slots;
                # a one-slot UORO or RTRL learner has not.
                if not diverged:
                    diverged[0] = (n, err.quantity)
                break
            if collect_loss:
                losses[n] = loss
            if n >= first:
                pred[n - first] = y

    results = []
    for slot, (h_slot, k_min, last) in enumerate(zip(hs, k_mins, lasts)):
        if slot in diverged:
            at, quantity = diverged[slot]
            results.append(RunResult(trace=None, diverged=True, diverged_at=at,
                                     diverged_quantity=quantity))
        else:
            lag = L + h_slot - 1
            results.append(RunResult(
                trace=_trace_from_steps(
                    record, pred[k_min - lag - first : last + 1 - first, slot],
                    k_min, normalizer),
                losses=None if losses is None else losses[: last + 1, slot],
                loss_start=lag if collect_loss else None,
            ))
    return results


# ------------------------------ the task list ------------------------------


def _task_list(
    algorithm: str, label: str, grid: list[HyperChoice], hs: tuple[int, ...],
    config: ExperimentConfig, phase: str,
) -> list[tuple[tuple[int, int, int, int], ...]]:
    """The runs of one phase over `grid` at each horizon of `hs` (in
    steps), as (horizon, tuple index, run index, seed), grouped into the
    tasks that step as one learner.

    Phase "cv" makes n_cv runs per tuple and phase "test" n_test; methods
    without random initialization run once. In phase "cv" the LMS tuples
    that share L read one window stream at every horizon and differ only
    in their rate and target row, so they form one batch across the
    horizons. Every other run is a task of its own, among them every test
    run: `evaluate` scores one tuple at one horizon. Tasks keep the
    horizon-major, tuple-major, run-minor order of their first run. A
    seed descends from (master_seed, sequence, h in steps, tuple, run,
    phase), whatever task holds its run.
    """
    n_runs = config.n_cv if phase == "cv" else config.n_test
    if algorithm not in STOCHASTIC_ALGORITHMS:
        n_runs = 1
    batch = algorithm == "lms" and phase == "cv"
    tasks: dict[object, list[tuple[int, int, int, int]]] = {}
    for h in hs:
        for i, hyper in enumerate(grid):
            for r in range(n_runs):
                seed = derive_seed(config.master_seed, label, h, hyper.key(),
                                   r, phase)
                key = hyper.L if batch else (h, i, r)
                tasks.setdefault(key, []).append((h, i, r, seed))
    return [tuple(runs) for runs in tasks.values()]


def _run_tasks(
    algorithm: str, record: MarkerRecord, partition: Partition,
    grid: list[HyperChoice], horizons_s: tuple[float, ...],
    config: ExperimentConfig, phase: str, weights: np.ndarray | None = None,
) -> Iterator[tuple[float, int, RunRecord, RunResult]]:
    """Run the tasks of `_task_list` in list order. Phase "cv" scores the
    cross-validation range; phase "test" scores the test range, with loss
    traces when the config saves them. A one-run task goes through
    `run_sequence_online`, and `weights` goes to it; a batch goes through
    `_run_online` on one normalizer, with the first scored step of each
    slot's horizon. Yields each run's horizon in seconds, tuple index,
    RunRecord and RunResult as its task finishes."""
    seconds = {whole_steps(h_s, record.sample_period, "horizon"): h_s
               for h_s in horizons_s}
    cv = phase == "cv"
    scoring = partition.cross_validation if cv else partition.test
    collect_loss = config.save_loss_traces and not cv
    for task in _task_list(algorithm, record.label, grid, tuple(seconds),
                           config, phase):
        if len(task) == 1:
            ((h, i, _, seed),) = task
            outcomes = [run_sequence_online(
                algorithm, record, partition, grid[i], h, seed,
                scoring_range=scoring, collect_loss=collect_loss,
                weights=weights,
            )]
        else:
            hypers = tuple(grid[i] for _, i, _, _ in task)
            hs = tuple(h for h, _, _, _ in task)
            # The hypers share L, so a slot's k_min depends on its h alone.
            k_min = {h: _first_scored_step(algorithm, record, hypers[0], h,
                                           scoring) for h in set(hs)}
            outcomes = _run_online(
                algorithm, record, fit_normalizer(record, partition.train),
                hypers, hs, tuple(seed for *_, seed in task),
                tuple(k_min[h] for h in hs), scoring.stop, collect_loss,
            )
        for (h, i, r, seed), outcome in zip(task, outcomes):
            yield seconds[h], i, RunRecord(
                run_index=r, seed=seed, diverged=outcome.diverged,
                diverged_quantity=outcome.diverged_quantity,
                metrics=None if outcome.diverged else compute_metrics(outcome.trace),
                diverged_at=outcome.diverged_at,
            ), outcome


# ------------------------------ grid search --------------------------------


def _check_horizons(horizons_s: tuple[float, ...], record: MarkerRecord) -> None:
    """Reject a horizon off the record's step grid, and two horizons that
    span the same number of steps, which would run the whole protocol
    twice for one result."""
    seen: dict[int, float] = {}
    for h_s in horizons_s:
        h = whole_steps(h_s, record.sample_period, "horizon")
        if h in seen:
            raise ValueError(
                f"horizons {seen[h]}s and {h_s}s both span {h} steps on "
                f"{record.label!r}; list each horizon once"
            )
        seen[h] = h_s


def _check_algorithm(algorithm: str, config: ExperimentConfig) -> None:
    """A config's grid, run counts and seeds belong to its own algorithm;
    another algorithm must not run on them."""
    if algorithm != config.algorithm:
        raise ValueError(
            f"algorithm {algorithm!r} does not match the config's "
            f"{config.algorithm!r}"
        )


def _cv_rank(entry: CvEntry) -> tuple:
    """Selection order of grid points: mean cross-validation RMSE, then
    the deterministic tie-break."""
    return (entry.mean_rmse,) + entry.hyper.sort_key()


def grid_search(
    algorithm: str,
    record: MarkerRecord,
    horizons_s: tuple[float, ...],
    config: ExperimentConfig,
) -> dict[float, CvResult]:
    """Mean cross-validation RMSE per grid point, per horizon.

    Each tuple runs n_cv times (once for deterministic methods) scoring
    the cross-validation range; diverged runs are dropped from the mean,
    fully diverged tuples are excluded with a warning, and the argmin of
    the surviving means is chosen with the deterministic tie-break. The
    runs of every horizon are one task list (`_task_list`), so an LMS
    batch of one L steps once for all of them.

    Raises:
        ValueError: `algorithm` is not the config's, a horizon is off the
            record's step grid, or two span the same number of steps.
        RuntimeError: every tuple diverged for some horizon.
    """
    _check_algorithm(algorithm, config)
    _check_horizons(horizons_s, record)
    partition = make_partition(record, partition_scheme(algorithm))
    grid = iter_grid(algorithm, config.effective_grid())
    runs_of = {h_s: [[] for _ in grid] for h_s in horizons_s}
    weights_of = {h_s: [None] * len(grid) for h_s in horizons_s}
    for h_s, i, run, outcome in _run_tasks(
        algorithm, record, partition, grid, horizons_s, config, "cv"
    ):
        runs_of[h_s][i].append(run)
        weights_of[h_s][i] = outcome.weights
    results: dict[float, CvResult] = {}
    for h_s in horizons_s:
        entries, chosen, chosen_weights = [], None, None
        for hyper, runs, weights in zip(grid, runs_of[h_s], weights_of[h_s]):
            rmses = [run.metrics.rmse for run in runs if not run.diverged]
            if rmses:
                mean_rmse = float(np.mean(rmses))
            else:
                mean_rmse = float("nan")
                warnings.warn(
                    f"{algorithm} tuple ({hyper.key()}) diverged in all "
                    f"{len(runs)} cross-validation runs on {record.label!r} "
                    f"at h={h_s}s; excluded",
                    stacklevel=2,
                )
            gone = [run for run in runs if run.diverged]
            entry = CvEntry(
                hyper=hyper, mean_rmse=mean_rmse,
                n_diverged=len(gone), n_runs=len(runs),
                diverged_at=tuple(run.diverged_at for run in gone),
                diverged_quantity=tuple(run.diverged_quantity for run in gone),
            )
            entries.append(entry)
            # The argmin so far; only its linreg fit is kept.
            if not np.isnan(mean_rmse) and (
                chosen is None or _cv_rank(entry) < _cv_rank(chosen)
            ):
                chosen, chosen_weights = entry, weights
        if chosen is None:
            raise RuntimeError(
                f"every {algorithm} tuple diverged on {record.label!r} at "
                f"h={h_s}s; nothing to select"
            )
        logger.info(
            "%s cv %s h=%.3gs: chose (%s) rmse=%.4f mm",
            algorithm, record.label, h_s, chosen.hyper.key(), chosen.mean_rmse,
        )
        results[h_s] = CvResult(
            algorithm=algorithm,
            sequence=record.label,
            horizon_s=h_s,
            entries=tuple(entries),
            chosen=chosen.hyper,
            chosen_weights=chosen_weights,
        )
    return results


# ------------------------------ evaluation ---------------------------------


def evaluate(
    algorithm: str,
    record: MarkerRecord,
    hyper: HyperChoice,
    h_s: float,
    config: ExperimentConfig,
    weights: np.ndarray | None = None,
) -> EvalResult:
    """Score the chosen tuple on the test range over n_test seeded runs.

    Deterministic methods run once and report no confidence intervals;
    otherwise each metric gets a Gaussian 95% interval over the
    non-diverged runs (absent when fewer than two survive). For linreg,
    `weights` may be the tuple's fit from `grid_search`
    (`CvResult.chosen_weights`), which is then not refit.

    Raises:
        ValueError: `algorithm` is not the config's.
    """
    _check_algorithm(algorithm, config)
    partition = make_partition(record, partition_scheme(algorithm))
    runs: list[RunRecord] = []
    loss_sum, loss_count, loss_start = None, 0, None
    for _, _, run, outcome in _run_tasks(
        algorithm, record, partition, [hyper], (h_s,), config, "test", weights
    ):
        runs.append(run)
        if outcome.losses is not None:
            loss_sum = outcome.losses if loss_sum is None else loss_sum + outcome.losses
            loss_start = outcome.loss_start
            loss_count += 1

    return EvalResult(
        algorithm=algorithm,
        sequence=record.label,
        breathing_class=record.breathing_class,
        horizon_s=h_s,
        hyper=hyper,
        runs=tuple(runs),
        ci=_run_cis(runs),
        n_diverged=sum(r.diverged for r in runs),
        mean_loss_trace=None if loss_sum is None else loss_sum / loss_count,
        loss_trace_start=loss_start,
    )


def _run_cis(runs: list[RunRecord]) -> dict[str, CiSummary | None]:
    """Per-metric 95% interval over the runs that did not diverge, absent
    when fewer than two survive."""
    alive = [r.metrics for r in runs if not r.diverged]
    ci: dict[str, CiSummary | None] = {}
    for name in METRIC_NAMES:
        values = np.array([getattr(m, name) for m in alive])
        ci[name] = ci_per_condition(values) if values.size >= 2 else None
    return ci


# ------------------------------ aggregation --------------------------------


def aggregate(
    results: dict[tuple[str, float], EvalResult],
    sequences: tuple[str, ...],
    horizons_s: tuple[float, ...],
    classes: dict[str, str],
    cohort_exclude: tuple[str, ...] = (),
) -> AggregateReport:
    """Combine per-(sequence, horizon) results into report tables.

    The overall row averages each metric's per-condition means over the
    full sequence x horizon grid and aggregates the per-condition interval
    half-ranges by the root-sum-of-squares rule. Breathing-class cohort
    rows do the same over the matching sequences, skipping labels in
    cohort_exclude (which stay in the overall row). Curves average over
    sequences per horizon.

    Raises:
        ValueError: the result grid is incomplete; the message lists every
            missing or fully diverged cell.
    """
    missing = []
    for label in sequences:
        for h_s in horizons_s:
            cell = results.get((label, h_s))
            if cell is None:
                missing.append(f"({label}, {h_s}s): absent")
            elif all(r.diverged for r in cell.runs):
                missing.append(f"({label}, {h_s}s): all runs diverged")
    if missing:
        raise ValueError(
            "incomplete result grid; cannot aggregate:\n  " + "\n  ".join(missing)
        )
    if not sequences or not horizons_s:
        raise ValueError("empty sequence or horizon list")

    algorithm = next(iter(results.values())).algorithm

    def row_for(cohort: str, labels: tuple[str, ...]) -> TableRow:
        cells = [results[(lab, h)] for lab in labels for h in horizons_s]
        means, halves = {}, {}
        for name in METRIC_NAMES:
            means[name] = float(np.mean([c.metric_mean(name) for c in cells]))
            cis = [c.ci[name] for c in cells]
            if all(s is not None for s in cis):
                halves[name] = ci_aggregate(np.array([s.half_range for s in cis]))
            else:
                halves[name] = None
        return TableRow(
            cohort=cohort, n_sequences=len(labels),
            n_conditions=len(cells), means=means, half_ranges=halves,
        )

    rows = [row_for("all", tuple(sequences))]
    for cohort in ("regular", "irregular"):
        labels = tuple(
            lab for lab in sequences
            if classes.get(lab) == cohort and lab not in cohort_exclude
        )
        if labels:
            rows.append(row_for(cohort, labels))

    curve = []
    for h_s in horizons_s:
        cells = [results[(lab, h_s)] for lab in sequences]
        curve.append(CurvePoint(
            horizon_s=h_s,
            n_sequences=len(sequences),
            means={
                name: float(np.mean([c.metric_mean(name) for c in cells]))
                for name in METRIC_NAMES
            },
        ))
    return AggregateReport(algorithm=algorithm, rows=tuple(rows), curve=tuple(curve))


# ------------------------------ benchmarking -------------------------------


def bench_step_time(
    algorithm: str,
    q: int | None,
    L: int,
    n_markers: int = 3,
    n_steps: int = 1000,
) -> float:
    """Median wall-clock milliseconds per training step of an online
    learner: "uoro" or "rtrl" with hidden size q, or "lms" (q None).

    Chains real steps of `run_sequence_online`'s learner (for LMS, the
    batch learner over one slot) on synthetic bounded inputs (10
    unmeasured warm-up steps, then n_steps measured ones) so caches and
    allocator are warm; weights and inputs are drawn from seed 0. The LMS
    learner folds its pending updates once every _LMS_BLOCK steps, so it
    is timed over blocks of that many consecutive steps (n_steps rounded
    up to whole blocks), each block holding one fold, and the median
    block time is divided by the block length; the UORO and RTRL learners
    are timed step by step. The offline methods have no step to time.
    """
    if algorithm not in ("uoro", "rtrl", "lms"):
        raise ValueError(
            "step-time benchmark supports the online learners 'uoro', "
            f"'rtrl' and 'lms' only, got {algorithm!r}"
        )
    if algorithm == "lms" and q is not None:
        raise ValueError(
            f"lms has no hidden state: q applies to uoro and rtrl only, "
            f"got q={q}"
        )
    if algorithm != "lms" and q is None:
        raise ValueError(f"{algorithm} needs its hidden size q")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    m, p = 3 * n_markers * L, 3 * n_markers
    hyper = HyperChoice(eta=0.05, sigma_init=0.02, L=L, q=q)
    if algorithm == "lms":
        step = _lms_learner([hyper.eta], m, p)
        block = _LMS_BLOCK
    else:
        step = _online_learner(algorithm, hyper, m, p, 0)
        block = 1
    n_blocks = -(-n_steps // block)
    rng = np.random.default_rng([0, 2])
    warmup = 10
    inputs = rng.uniform(-1.0, 1.0, size=(warmup + n_blocks * block, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(warmup + n_blocks * block, p))

    for i in range(warmup):
        step(inputs[i], targets[i])
    elapsed = np.empty(n_blocks)
    for b in range(n_blocks):
        first = warmup + b * block
        t0 = time.perf_counter()
        for i in range(first, first + block):
            step(inputs[i], targets[i])
        elapsed[b] = time.perf_counter() - t0
    return float(np.median(elapsed) / block * 1e3)


# ------------------------------ dataset loading ----------------------------


def load_dataset(
    manifest_path: str | Path,
) -> tuple[list[MarkerRecord], tuple[str, ...]]:
    """Read a dataset manifest: a JSON object with a "sequences" list of
    CSV paths (relative to the manifest) and an optional "cohort_exclude"
    label list, both lists of strings, each label that of a listed
    sequence (ValueError otherwise).
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path) as f:
        manifest = json.load(f)
    if not isinstance(manifest, dict):
        raise ValueError(
            f"{manifest_path}: manifest must be a JSON object, got "
            f"{type(manifest).__name__}"
        )
    paths = manifest.get("sequences")
    if not paths:
        raise ValueError(f"{manifest_path}: manifest lists no sequences")
    exclude = manifest.get("cohort_exclude", [])
    for key, value in (("sequences", paths), ("cohort_exclude", exclude)):
        # A bare string would be read as one path or label per character.
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise ValueError(
                f"{manifest_path}: manifest {key!r} must be a list of "
                f"strings, got {value!r}"
            )
    records = [
        load_record(manifest_path.parent / p) for p in paths
    ]
    labels = [r.label for r in records]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{manifest_path}: duplicate sequence labels {labels}")
    unknown = [x for x in exclude if x not in labels]
    if unknown:
        raise ValueError(
            f"{manifest_path}: cohort_exclude label {unknown[0]!r} names no "
            f"sequence; the sequence labels are {labels}"
        )
    return records, tuple(exclude)


# ------------------------------ output files -------------------------------


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)


def _condition_stem(algorithm: str, label: str, h_s: float) -> str:
    return f"{algorithm}_{_safe(label)}_h{h_s:g}"


def write_cv_csv(path: Path, result: CvResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["algorithm", "sequence", "horizon_s", "eta", "sigma_init", "L",
             "q", "mean_cv_rmse_mm", "n_diverged", "n_runs", "chosen",
             "diverged_at", "diverged_quantity"]
        )
        for e in result.entries:
            writer.writerow([
                result.algorithm, result.sequence, repr(result.horizon_s),
                _opt(e.hyper.eta), _opt(e.hyper.sigma_init),
                _opt(e.hyper.L), _opt(e.hyper.q),
                repr(e.mean_rmse), e.n_diverged, e.n_runs,
                int(e.hyper == result.chosen),
                ";".join(map(str, e.diverged_at)),
                ";".join(e.diverged_quantity),
            ])


def write_runs_csv(path: Path, result: EvalResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["algorithm", "sequence", "breathing_class", "horizon_s", "hyper",
             "run_index", "seed", "diverged", "diverged_quantity",
             "diverged_at", *METRIC_NAMES]
        )
        for r in result.runs:
            base = [
                result.algorithm, result.sequence, result.breathing_class,
                repr(result.horizon_s), result.hyper.key(),
                r.run_index, r.seed, int(r.diverged),
                r.diverged_quantity or "", _opt(r.diverged_at),
            ]
            if r.diverged:
                writer.writerow(base + [""] * len(METRIC_NAMES))
            else:
                writer.writerow(
                    base + [repr(getattr(r.metrics, n)) for n in METRIC_NAMES]
                )


def read_runs_csv(path: Path) -> EvalResult | None:
    """Inverse of `write_runs_csv` for what aggregation needs: the runs,
    their intervals and the condition; the tuple is not kept (its hyper is
    the default HyperChoice). None when the file holds no runs."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        return None
    runs = []
    for row in rows:
        diverged = row["diverged"] == "1"
        metrics = None
        if not diverged:
            metrics = MetricSet(**{n: float(row[n]) for n in METRIC_NAMES})
        runs.append(RunRecord(
            run_index=int(row["run_index"]), seed=int(row["seed"]),
            diverged=diverged,
            diverged_quantity=row["diverged_quantity"] or None,
            metrics=metrics,
            # Files written before the column existed lack it.
            diverged_at=(int(row["diverged_at"])
                         if row.get("diverged_at") else None),
        ))
    first = rows[0]
    return EvalResult(
        algorithm=first["algorithm"], sequence=first["sequence"],
        breathing_class=first["breathing_class"],
        horizon_s=float(first["horizon_s"]),
        hyper=HyperChoice(), runs=tuple(runs), ci=_run_cis(runs),
        n_diverged=sum(r.diverged for r in runs),
    )


def write_loss_csv(path: Path, result: EvalResult) -> None:
    if result.mean_loss_trace is None:
        return
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["target_step", "mean_loss"])
        for i, value in enumerate(result.mean_loss_trace):
            writer.writerow([result.loss_trace_start + i, repr(float(value))])


def write_summary_csv(path: Path, report: AggregateReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = ["algorithm", "cohort", "n_sequences", "n_conditions"]
        for name in METRIC_NAMES:
            header += [name, f"{name}_ci_half_range"]
        writer.writerow(header)
        for row in report.rows:
            line = [report.algorithm, row.cohort, row.n_sequences, row.n_conditions]
            for name in METRIC_NAMES:
                line.append(repr(row.means[name]))
                hr = row.half_ranges[name]
                line.append("" if hr is None else repr(hr))
            writer.writerow(line)


def write_curve_csv(path: Path, report: AggregateReport) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["algorithm", "horizon_s", "n_sequences", *METRIC_NAMES])
        for point in report.curve:
            writer.writerow(
                [report.algorithm, repr(point.horizon_s), point.n_sequences]
                + [repr(point.means[n]) for n in METRIC_NAMES]
            )


def _opt(value) -> str:
    return "" if value is None else repr(value)


# ------------------------------ full protocol ------------------------------


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Execute the whole protocol for one algorithm and write all outputs.

    Produces, under config.out_dir: one cross-validation surface CSV and
    one per-run metrics CSV per (sequence, horizon); optional loss-trace
    CSVs; a manifest_<algo>.json recording the configuration, seeds,
    versions, cohort exclusions and chosen tuples; and, from the results and
    that manifest, a Table-3-style summary CSV and a per-horizon curve CSV
    (`_write_tables`, which `report_from_dir` shares).
    """
    return _run_on_dataset(config, *load_dataset(config.data_manifest))


def _run_on_dataset(
    config: ExperimentConfig, records: list[MarkerRecord],
    cohort_exclude: tuple[str, ...],
) -> AggregateReport:
    """`run_experiment` on the records and cohort exclusions that
    `load_dataset` read from config.data_manifest, so that the algorithms
    of one config file read their sequences once."""
    # Reject bad horizons on every sequence before hours of runs.
    for record in records:
        _check_horizons(config.horizons_s, record)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[tuple[str, float], EvalResult] = {}
    chosen_map: dict[str, dict[str, str]] = {}
    for record in records:
        cv_results = grid_search(
            config.algorithm, record, config.horizons_s, config
        )
        chosen_map[record.label] = {}
        for h_s, cv in cv_results.items():
            stem = _condition_stem(config.algorithm, record.label, h_s)
            write_cv_csv(out_dir / f"cv_{stem}.csv", cv)
            result = evaluate(config.algorithm, record, cv.chosen, h_s, config,
                              weights=cv.chosen_weights)
            write_runs_csv(out_dir / f"runs_{stem}.csv", result)
            if config.save_loss_traces:
                write_loss_csv(out_dir / f"loss_{stem}.csv", result)
            results[(record.label, h_s)] = result
            chosen_map[record.label][f"{h_s:g}"] = cv.chosen.key()

    manifest = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "package_version": markerpred.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "config": {
            **{k: v for k, v in asdict(config).items()
               if k not in ("data_manifest", "out_dir")},
            "data_manifest": str(config.data_manifest),
            "out_dir": str(config.out_dir),
        },
        "seed_scheme": "sha256(master_seed|sequence|h_steps|tuple|run|phase)",
        "sequences": [
            {"label": r.label, "breathing_class": r.breathing_class,
             "n_steps": r.n_steps, "sample_period_s": r.sample_period}
            for r in records
        ],
        "cohort_exclude": list(cohort_exclude),
        "chosen_hyperparameters": chosen_map,
        "n_diverged_total": sum(r.n_diverged for r in results.values()),
    }
    manifest_file = out_dir / f"manifest_{config.algorithm}.json"
    with open(manifest_file, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return _write_tables(out_dir, results)


# ------------------------------ reporting ----------------------------------


def report_from_dir(in_dir: str | Path) -> dict[str, AggregateReport]:
    """Rebuild summary and curve CSVs from stored per-run CSVs.

    Scans in_dir for runs_*.csv files (self-contained rows), reconstructs
    the per-condition statistics, and rewrites the tables through
    `run_experiment`'s own writer, byte for byte as the run wrote them.
    Returns the reports keyed by algorithm.
    """
    in_dir = Path(in_dir)
    per_algo: dict[str, dict[tuple[str, float], EvalResult]] = {}
    for path in sorted(in_dir.glob("runs_*.csv")):
        result = read_runs_csv(path)
        if result is not None:
            per_algo.setdefault(result.algorithm, {})[
                (result.sequence, result.horizon_s)
            ] = result
    if not per_algo:
        raise ValueError(f"no runs_*.csv files under {in_dir}")
    return {
        algo: _write_tables(in_dir, results) for algo, results in per_algo.items()
    }


def _write_tables(
    out_dir: Path, results: dict[tuple[str, float], EvalResult]
) -> AggregateReport:
    """Aggregate one algorithm's results into summary_<algo>.csv and
    curve_<algo>.csv under out_dir, sequences ordered by label and horizons
    by value. Cohort rows skip the labels that out_dir's
    manifest_<algo>.json lists in "cohort_exclude"; with no manifest,
    nothing is excluded."""
    algorithm = next(iter(results.values())).algorithm
    manifest_file = out_dir / f"manifest_{algorithm}.json"
    cohort_exclude = ()
    if manifest_file.exists():
        cohort_exclude = json.loads(manifest_file.read_text())["cohort_exclude"]
    report = aggregate(
        results,
        sequences=tuple(sorted({label for label, _ in results})),
        horizons_s=tuple(sorted({h_s for _, h_s in results})),
        classes={r.sequence: r.breathing_class for r in results.values()},
        cohort_exclude=tuple(cohort_exclude),
    )
    write_summary_csv(out_dir / f"summary_{algorithm}.csv", report)
    write_curve_csv(out_dir / f"curve_{algorithm}.csv", report)
    return report
