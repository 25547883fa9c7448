"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, then runs
`run_pass` as often as the time budget allows. A pass is one closed-loop
unit of work with a single client; it returns its wall time, the number
of operations it attempted, and a fingerprint of its outputs that run.py
compares with the stored reference.

The package is driven only through its public functions: the protocol
through harness.grid_search and harness.evaluate, the stream through
signal.build_io, uoro.uoro_step and rtrl.rtrl_step (looked up through
their modules at call time, so a traced run sees them), and the baselines
through cli.main. Records come from signal.synthetic_record; the real
marker dataset is not in the repository.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from markerpred import cli, harness, rnn, rtrl, signal, uoro
from markerpred.metrics import PredictionTrace, compute_metrics

import stats

# Every workload forecasts 1 s ahead on 10 Hz records of 3 markers.
HORIZON_S = 1.0
RECORD_S = 200.0
ETA = 0.1
SIGMA_INIT = 0.02

# uoro-protocol: the 25 shipped (q, L) shapes at one (eta, sigma_init),
# one cross-validation run per tuple, then one test run at q = L = 50.
SHAPES = (10, 30, 50, 70, 90)
N_CV = 1
N_TEST = 1
EVAL_SHAPE = 50

# realtime-stream: the criterion-8 UORO size and an RTRL size that keeps
# its step in the millisecond range.
STREAM_UORO_SIZE = 90
STREAM_RTRL_SIZE = 25

# baselines-io: a manifest of several sequences at several horizons.
BASELINE_SEQUENCES = 2
BASELINE_RECORD_S = 120.0
BASELINE_HORIZONS_S = (0.5, 2.0)
BASELINE_ALGORITHMS = ("lms", "linreg", "none")

# Relative tolerance of float outputs against the stored reference.
# Online RNN training amplifies rounding: running the same code on another
# OpenBLAS kernel (OPENBLAS_CORETYPE Haswell or Sandybridge in place of the
# detected one) moved single UORO and RTRL run RMSEs by up to 16 % and
# changed a chosen tuple, so those workloads are held to a band of 25 % of
# the reference value, and to exact repetition within a run. The baselines
# were bit-identical across kernels and are held close.
EXACT_RTOL = 1e-7
TRAINED_RTOL = 0.25


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    ops: int
    fingerprint: dict
    problems: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    latencies: dict[str, np.ndarray] = field(default_factory=dict)
    # Reference seconds per measured second (see hostspeed.py); 1 until
    # scaled.
    host_speed: float = 1.0

    def scaled(self, factor: float) -> "PassResult":
        """This pass with every duration in reference seconds."""
        return dataclasses.replace(
            self, wall_s=self.wall_s * factor,
            timings={k: v * factor for k, v in self.timings.items()},
            latencies={k: v * factor for k, v in self.latencies.items()},
            host_speed=factor,
        )


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


# ------------------------------ stream replay ------------------------------


def _replay(record, normalizer, L: int, h: int, p: int, step, clock):
    """Feed a record one sample at a time through build_io and step, which
    takes the sample and returns the prediction. Returns the predictions
    (one row per sample), the target step of each, and each sample's
    latency from the start of window assembly to the returned prediction."""
    n_samples = record.n_steps - (L + h - 1)
    preds = np.empty((n_samples, p))
    targets = np.arange(n_samples) + (L + h - 1)
    latencies = np.empty(n_samples)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_samples):
            t0 = clock()
            y = step(signal.build_io(record, normalizer, L, h, n))
            latencies[n] = clock() - t0
            preds[n] = y
    return preds, targets, latencies


def stream_uoro(record, normalizer, q: int, L: int, h: int, eta: float,
                sigma_init: float, seed: int, clock=time.perf_counter):
    """Replay a record through uoro_step (see `_replay`).

    Initialization and step order follow harness.run_sequence_online, so
    for the same seed the predictions equal its predictions.
    """
    dims = rnn.RnnDims(q=q, m=3 * record.n_markers * L, p=3 * record.n_markers)
    params = rnn.init_params(dims, sigma_init, seed)
    x = np.zeros(q)
    memory = uoro.init_memory(dims)
    hyper = uoro.UoroHyper(eta=eta, tau=harness.CLIP_TAU,
                           sigma_init=sigma_init, L=L, q=q)
    nu_rng = np.random.default_rng([seed, 1])

    def step(sample):
        nonlocal params, x, memory
        out = uoro.uoro_step(params, x, memory, sample.u, sample.target,
                             hyper, nu_rng)
        params, x, memory = out.params, out.x, out.memory
        return out.y

    return _replay(record, normalizer, L, h, dims.p, step, clock)


def stream_rtrl(record, normalizer, q: int, L: int, h: int, eta: float,
                sigma_init: float, seed: int, clock=time.perf_counter):
    """RTRL counterpart of `stream_uoro`, through rtrl_step."""
    dims = rnn.RnnDims(q=q, m=3 * record.n_markers * L, p=3 * record.n_markers)
    params = rnn.init_params(dims, sigma_init, seed)
    x = np.zeros(q)
    influence = rtrl.init_influence(dims)

    def step(sample):
        nonlocal params, x, influence
        out = rtrl.rtrl_step(params, x, influence, sample.u, sample.target,
                             eta=eta, tau=harness.CLIP_TAU)
        params, x, influence = out.params, out.x, out.influence
        return out.y

    return _replay(record, normalizer, L, h, dims.p, step, clock)


def stream_rmse(record, normalizer, preds, targets, scoring: range) -> float:
    """RMSE in mm of the stream's predictions whose target is scored."""
    keep = (targets >= scoring.start) & (targets < scoring.stop)
    ks = targets[keep]
    n_m = record.n_markers
    pred_mm = normalizer.denormalize(preds[keep].reshape(-1, n_m, 3))
    trace = PredictionTrace(
        pred=pred_mm, true=record.positions[ks[0]: ks[-1] + 1], k_min=int(ks[0])
    )
    return compute_metrics(trace).rmse


# ------------------------------ workloads ----------------------------------


class Workload:
    """What run.py needs of a workload: setup(), run_pass(), metrics() over
    the passes, and matches() against the stored reference. Passes time
    themselves with `clock`, which run.py may replace."""

    name: str
    rtol: float
    runs_per_pass: int

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.clock = time.perf_counter

    def matches(self, reference: dict, fingerprint: dict) -> list[str]:
        return compare(reference, fingerprint, self.rtol)


class UoroProtocol(Workload):
    """grid_search over the 25 shipped shapes, then evaluate at q = L = 50."""

    name = "uoro-protocol"
    runs_per_pass = len(SHAPES) ** 2 * N_CV + N_TEST
    rtol = TRAINED_RTOL

    def setup(self) -> None:
        self.record = signal.synthetic_record(RECORD_S, seed=self.seed)
        self.config = harness.ExperimentConfig(
            algorithm="uoro", horizons_s=(HORIZON_S,), data_manifest="unused",
            out_dir="unused", n_cv=N_CV, n_test=N_TEST, master_seed=self.seed,
            grid={"eta": (ETA,), "sigma_init": (SIGMA_INIT,), "L": SHAPES,
                  "q": SHAPES},
        )
        self.eval_hyper = harness.HyperChoice(
            eta=ETA, sigma_init=SIGMA_INIT, L=EVAL_SHAPE, q=EVAL_SHAPE
        )

    def run_pass(self) -> PassResult:
        c0, t0 = time.process_time(), self.clock()
        cv = harness.grid_search("uoro", self.record, (HORIZON_S,), self.config)
        t1 = self.clock()
        ev = harness.evaluate("uoro", self.record, self.eval_hyper, HORIZON_S,
                              self.config)
        c2, t2 = time.process_time(), self.clock()
        result = cv[HORIZON_S]
        fingerprint = {
            "chosen": result.chosen.key(),
            "cv": {e.hyper.key(): [_finite_or_none(e.mean_rmse), e.n_diverged,
                                   e.n_runs]
                   for e in result.entries},
            "test_rmse": [None if r.diverged else r.metrics.rmse
                          for r in ev.runs],
            "test_diverged": ev.n_diverged,
        }
        alive = [e for e in result.entries if math.isfinite(e.mean_rmse)]
        best = min(alive, key=lambda e: (e.mean_rmse,) + e.hyper.sort_key())
        problems = []
        if len(result.entries) != len(SHAPES) ** 2:
            problems.append(f"{len(result.entries)} grid tuples")
        if best.hyper != result.chosen:
            problems.append("chosen tuple is not the cross-validation argmin")
        if len(ev.runs) != N_TEST or ev.hyper != self.eval_hyper:
            problems.append("evaluation did not run the requested tuple")
        return PassResult(
            wall_s=t2 - t0, cpu_s=c2 - c0, ops=self.runs_per_pass,
            fingerprint=fingerprint, problems=problems,
            timings={"grid_search_s": t1 - t0, "evaluate_s": t2 - t1},
        )

    def matches(self, reference: dict, fingerprint: dict) -> list[str]:
        """compare(), except that another chosen tuple passes when the
        reference scored it within the tolerance of its own choice."""
        problems = compare(dict(reference, chosen=None),
                           dict(fingerprint, chosen=None), self.rtol)
        ref_cv = {key: entry[0] for key, entry in reference["cv"].items()}
        want, got = ref_cv[reference["chosen"]], ref_cv.get(fingerprint["chosen"])
        if got is None or not got <= want * (1 + self.rtol):
            problems.append(f"/chosen: {fingerprint['chosen']} is not within "
                            f"{self.rtol:g} of the reference {reference['chosen']}")
        return problems

    def metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        projected = [
            stats.full_grid_h(p.timings["grid_search_s"],
                              len(SHAPES) ** 2 * N_CV,
                              p.timings["evaluate_s"], N_TEST)
            for p in passes
        ]
        return {"full_grid_h": (float(np.median(projected)), "h")}


class RealtimeStream(Workload):
    """Per-sample replay of a record through UORO (q = L = 90) and RTRL
    (q = L = 25), each sample timed from window assembly to prediction."""

    name = "realtime-stream"
    runs_per_pass = 2
    rtol = TRAINED_RTOL

    def setup(self) -> None:
        self.record = signal.synthetic_record(RECORD_S, seed=self.seed)
        self.partition = signal.make_partition(self.record)
        self.normalizer = signal.fit_normalizer(self.record, self.partition.train)
        self.h = round(HORIZON_S / self.record.sample_period)

    def run_pass(self) -> PassResult:
        fingerprint, latencies, n_ops = {}, {}, 0
        problems = []
        wall = cpu = 0.0
        for label, replay, size in (("uoro", stream_uoro, STREAM_UORO_SIZE),
                                    ("rtrl", stream_rtrl, STREAM_RTRL_SIZE)):
            c0, t0 = time.process_time(), self.clock()
            preds, targets, lat = replay(
                self.record, self.normalizer, size, size, self.h, ETA,
                SIGMA_INIT, self.seed, self.clock,
            )
            wall += self.clock() - t0
            cpu += time.process_time() - c0
            latencies[label] = lat
            n_ops += lat.size
            if not np.isfinite(preds).all():
                problems.append(f"{label} stream produced non-finite predictions")
                fingerprint[f"{label}_rmse"] = None
            else:
                fingerprint[f"{label}_rmse"] = stream_rmse(
                    self.record, self.normalizer, preds, targets,
                    self.partition.test,
                )
        return PassResult(wall_s=wall, cpu_s=cpu, ops=n_ops,
                          fingerprint=fingerprint, problems=problems,
                          latencies=latencies)

    def metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        """Latency percentiles of each pass, as medians over the passes, so
        that one slow pass (the first warms the allocator) does not move
        them."""
        out = {}
        for label, prefix in (("uoro", "step"), ("rtrl", "rtrl_step")):
            lat = [p.latencies[label] for p in passes]
            tail = stats.tail_percentile(min(x.size for x in lat))
            if tail is None or tail < 99.0:
                raise RuntimeError(f"a {label} pass is too short for a p99")
            for pct in (50, 99):
                out[f"{prefix}_p{pct}_ms"] = (float(np.median(
                    [stats.percentile_ms(x, pct) for x in lat])), "ms")
            out[f"{prefix}_samples"] = (float(sum(x.size for x in lat)), "count")
        return out


class BaselinesIo(Workload):
    """`forecast run` on lms, linreg and none with their shipped grids over
    a manifest of CSV sequences, then `forecast report` on its output."""

    name = "baselines-io"
    rtol = EXACT_RTOL

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "out"
        per_condition = sum(
            len(harness.iter_grid(a, harness.DEFAULT_GRIDS[a])) + 1
            for a in BASELINE_ALGORITHMS
        )
        self.runs_per_pass = (
            per_condition * BASELINE_SEQUENCES * len(BASELINE_HORIZONS_S)
        )

    def setup(self) -> None:
        names = []
        for i in range(BASELINE_SEQUENCES):
            record = signal.synthetic_record(
                BASELINE_RECORD_S, seed=self.seed * BASELINE_SEQUENCES + i,
                label=f"seq{i}",
            )
            signal.write_record(self.dir / f"seq{i}.csv", record)
            names.append(f"seq{i}.csv")
        (self.dir / "dataset.json").write_text(json.dumps({"sequences": names}))
        config = {
            "algorithms": list(BASELINE_ALGORITHMS),
            "horizons_s": list(BASELINE_HORIZONS_S),
            "data_manifest": "dataset.json",
            "out_dir": self.out.name,
            "master_seed": self.seed,
        }
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(config))

    def run_pass(self) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            # linreg at long histories is under-determined on 54 s of
            # training data; the package warns and takes the minimal-norm fit.
            warnings.filterwarnings(
                "ignore", message="under-determined least squares"
            )
            c0, t0 = time.process_time(), self.clock()
            rc_run = cli.main(["run", "--config", str(self.config)])
            c1, t1 = time.process_time(), self.clock()
            written = {p.name: p.read_bytes()
                       for p in sorted(self.out.glob("summary_*.csv"))}
            c2, t2 = time.process_time(), self.clock()
            rc_report = cli.main(["report", "--in", str(self.out)])
            c3, t3 = time.process_time(), self.clock()
        problems = []
        if rc_run != 0 or rc_report != 0:
            problems.append(f"exit codes run={rc_run} report={rc_report}")
        expected = [f"summary_{a}.csv" for a in sorted(BASELINE_ALGORITHMS)]
        if sorted(written) != expected:
            problems.append(f"summary files {sorted(written)}")
        for name, content in written.items():
            if (self.out / name).read_bytes() != content:
                problems.append(f"report rebuilt {name} differently")
        fingerprint = {"chosen": {}, "rmse": {}}
        for algo in BASELINE_ALGORITHMS:
            manifest = json.loads((self.out / f"manifest_{algo}.json").read_text())
            fingerprint["chosen"][algo] = manifest["chosen_hyperparameters"]
            summary = written.get(f"summary_{algo}.csv", b"").decode()
            fingerprint["rmse"][algo] = {
                row["cohort"]: float(row["rmse"])
                for row in csv.DictReader(io.StringIO(summary))
            }
        return PassResult(
            wall_s=(t1 - t0) + (t3 - t2), cpu_s=(c1 - c0) + (c3 - c2),
            ops=self.runs_per_pass,
            fingerprint=fingerprint, problems=problems,
            timings={"run_s": t1 - t0, "report_s": t3 - t2},
        )

    def metrics(self, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
        return {
            "report_s": (float(np.median([p.timings["report_s"] for p in passes])),
                         "s"),
        }


WORKLOADS = {w.name: w for w in (UoroProtocol, RealtimeStream, BaselinesIo)}


# ------------------------------ output checks ------------------------------


def compare(expected, actual, rtol: float, path: str = "") -> list[str]:
    """Mismatches between two fingerprints: strings, integers and None
    exactly, floats within rtol times the expected value."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out += compare(expected[key], actual[key], rtol, f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, rtol, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(actual - expected) <= rtol * abs(expected):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]
