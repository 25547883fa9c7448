"""Span tracing of markerpred functions, for the per-layer metrics.

A Tracer wraps each function in TRACED in every markerpred module
namespace that binds it: harness, uoro, rtrl and baselines import their
callees by name, so wrapping the defining module alone would miss those
calls. Each call records one span (function, start, end, parent span) in
memory. A name that no longer exists is skipped and reports zero calls,
so the benchmark survives refactors that drop a function.

Spans are turned into per-layer metrics by `layer_metrics` and written to
a file by `Tracer.save` once the run ends. End-to-end figures never come
from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

TRACED = (
    "uoro.uoro_step",
    "uoro.tangent_propagate",
    "uoro.delta_theta_g",
    "uoro.delta_theta",
    "uoro.grad_x_loss",
    "rnn.forward",
    "rnn.clip_gradient",
    "rnn.flatten_params",
    "rnn.unflatten_params",
    "rnn.init_params",
    "rtrl.rtrl_step",
    "rtrl.jac_state_x",
    "rtrl.jac_state_theta",
    "signal.build_io",
    "signal.fit_normalizer",
    "signal.make_partition",
    "signal.load_record",
    "baselines.lms_step",
    "baselines.fit_linreg",
    "baselines.predict_linreg",
    "baselines.no_prediction",
    "harness.run_sequence_online",
    "harness.grid_search",
    "harness.evaluate",
    "harness.report_from_dir",
    "harness.write_cv_csv",
    "harness.write_runs_csv",
    "harness.write_loss_csv",
    "harness.write_summary_csv",
    "harness.write_curve_csv",
    "metrics.compute_metrics",
    "metrics.ci_per_condition",
    "cli.main",
)

# UORO shapes whose step time is reported on its own: the overhead-bound,
# middle and memory-bound ends of the shipped grid.
UORO_SHAPES = ((10, 10), (30, 30), (90, 90))

WRITERS = tuple(name for name in TRACED if name.startswith("harness.write_"))


# Every per-layer metric, in report order: (name, unit, better).
METRICS = (
    ("uoro.uoro_step.calls", "count", "lower"),
    ("uoro.uoro_step.self_s", "s", "lower"),
    ("uoro.uoro_step.p50_us", "us", "lower"),
    ("uoro.uoro_step.ns_per_param", "ns", "lower"),
    *((f"uoro.uoro_step.q{q}L{L}.p50_us", "us", "lower")
      for q, L in UORO_SHAPES),
    *((f"uoro.{fn}.total_s", "s", "lower")
      for fn in ("tangent_propagate", "delta_theta_g", "delta_theta",
                 "grad_x_loss")),
    *((f"rnn.{fn}.total_s", "s", "lower")
      for fn in ("forward", "clip_gradient", "flatten_params",
                 "unflatten_params", "init_params")),
    ("rtrl.rtrl_step.calls", "count", "lower"),
    ("rtrl.rtrl_step.self_s", "s", "lower"),
    ("rtrl.rtrl_step.p50_us", "us", "lower"),
    ("rtrl.jac_state_x.total_s", "s", "lower"),
    ("rtrl.jac_state_theta.total_s", "s", "lower"),
    ("signal.build_io.calls", "count", "lower"),
    ("signal.build_io.total_s", "s", "lower"),
    ("signal.fit_normalizer.calls", "count", "lower"),
    ("signal.make_partition.calls", "count", "lower"),
    ("baselines.lms_step.calls", "count", "lower"),
    ("baselines.lms_step.total_s", "s", "lower"),
    ("baselines.fit_linreg.total_s", "s", "lower"),
    ("baselines.predict_linreg.total_s", "s", "lower"),
    ("baselines.no_prediction.calls", "count", "lower"),
    ("harness.run_sequence_online.calls", "count", "lower"),
    ("harness.run_sequence_online.self_s", "s", "lower"),
    ("harness.grid_search.self_s", "s", "lower"),
    ("harness.evaluate.self_s", "s", "lower"),
    ("harness.runs.diverged", "count", "lower"),
    ("harness.runs.useful_frac", "fraction", "higher"),
    ("harness.cpu_per_wall", "ratio", "higher"),
    ("metrics.compute_metrics.calls", "count", "lower"),
    ("metrics.compute_metrics.total_s", "s", "lower"),
    ("metrics.ci_per_condition.total_s", "s", "lower"),
    ("signal.load_record.calls", "count", "lower"),
    ("signal.load_record.total_s", "s", "lower"),
    ("signal.load_record.rows_per_s", "1/s", "higher"),
    ("harness.write.total_s", "s", "lower"),
    ("harness.report_from_dir.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _uoro_shape(args) -> tuple[int, int, int]:
    """(q, L, |W|) of the network passed to uoro_step, or zeros when its
    first argument no longer carries the weight matrices."""
    try:
        params = args[0]
        q = params.w_a.shape[0]
        n_in = params.w_b.shape[1]
        p = params.w_c.shape[0]
    except (AttributeError, IndexError):
        return (0, 0, 0)
    return (q, (n_in - 1) // p, q * (q + n_in + p))


def _diverged(result) -> int:
    return int(bool(getattr(result, "diverged", False)))


def _rows(result) -> int:
    return int(getattr(result, "n_steps", 0))


# Per-call facts recorded next to the span: the first from the arguments,
# the others from the returned value.
_ARG_FACTS = {"uoro.uoro_step": _uoro_shape}
_RESULT_FACTS = {
    "harness.run_sequence_online": _diverged,
    "signal.load_record": _rows,
}


class Tracer:
    """Records one span per call of every traced markerpred function.

    Use as a context manager: wrappers are installed on entry and the
    original functions are put back on exit.
    """

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.facts: dict[str, dict[int, object]] = {
            name: {} for name in (*_ARG_FACTS, *_RESULT_FACTS)
        }
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "markerpred" or name.startswith("markerpred."))
        ]
        for qualified in TRACED:
            module_name, fn_name = qualified.rsplit(".", 1)
            try:
                home = importlib.import_module(f"markerpred.{module_name}")
            except ImportError:
                continue
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, qualified: str, fn):
        name_id = len(self.names)
        self.names.append(qualified)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self._stack
        arg_fact = _ARG_FACTS.get(qualified)
        result_fact = _RESULT_FACTS.get(qualified)
        facts = self.facts.get(qualified)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if arg_fact is not None:
                facts[i] = arg_fact(args)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if result_fact is not None:
                facts[i] = result_fact(result)
            return result

        return traced

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(function index, duration in seconds, parent span) per span."""
        names = np.asarray(self.span_name, dtype=np.int64)
        durations = (np.asarray(self.span_end, dtype=float)
                     - np.asarray(self.span_start, dtype=float))
        parents = np.asarray(self.span_parent, dtype=np.int64)
        return names, durations, parents

    def save(self, path) -> None:
        """Write every span and the function-name table to an .npz file."""
        np.savez(
            path,
            functions=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent, dtype=np.int64),
        )


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest (a child starts and ends inside its parent), so the direct
    children's durations are exactly the part of the parent they cover.
    """
    child = parents >= 0
    covered = np.bincount(
        parents[child], weights=durations[child], minlength=durations.size
    )
    return durations - covered


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    cpu_s: float,
) -> dict[str, float]:
    """Every metric in METRICS from one traced pass.

    traced_wall_s and cpu_s are the wall and process CPU time of the traced
    pass; untraced_wall_s is the same pass's wall time without tracing.
    """
    names, durations, parents = tracer.spans()
    selfs = self_times(durations, parents)
    index = {name: i for i, name in enumerate(tracer.names)}

    def mask(fn: str) -> np.ndarray:
        return names == index.get(fn, -1)

    def calls(fn: str) -> float:
        return float(np.count_nonzero(mask(fn)))

    def total(fn: str) -> float:
        return float(durations[mask(fn)].sum())

    def self_s(fn: str) -> float:
        return float(selfs[mask(fn)].sum())

    def p50_us(selected: np.ndarray) -> float:
        return float(np.median(selected)) * 1e6 if selected.size else 0.0

    out: dict[str, float] = {}
    for fn in ("uoro.uoro_step", "rtrl.rtrl_step"):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.self_s"] = self_s(fn)
        out[f"{fn}.p50_us"] = p50_us(durations[mask(fn)])

    shapes = tracer.facts["uoro.uoro_step"]
    ids = np.fromiter(shapes.keys(), dtype=np.int64, count=len(shapes))
    q_l_w = np.array(list(shapes.values()), dtype=np.int64).reshape(-1, 3)
    n_params = int(q_l_w[:, 2].sum())
    out["uoro.uoro_step.ns_per_param"] = (
        total("uoro.uoro_step") / n_params * 1e9 if n_params else 0.0
    )
    for q, L in UORO_SHAPES:
        chosen = ids[(q_l_w[:, 0] == q) & (q_l_w[:, 1] == L)]
        out[f"uoro.uoro_step.q{q}L{L}.p50_us"] = p50_us(durations[chosen])

    for fn in ("uoro.tangent_propagate", "uoro.delta_theta_g",
               "uoro.delta_theta", "uoro.grad_x_loss", "rnn.forward",
               "rnn.clip_gradient", "rnn.flatten_params",
               "rnn.unflatten_params", "rnn.init_params",
               "rtrl.jac_state_x", "rtrl.jac_state_theta",
               "signal.build_io", "baselines.lms_step",
               "baselines.fit_linreg", "baselines.predict_linreg",
               "metrics.compute_metrics", "metrics.ci_per_condition",
               "signal.load_record", "harness.report_from_dir"):
        out[f"{fn}.total_s"] = total(fn)
    for fn in ("signal.build_io", "signal.fit_normalizer",
               "signal.make_partition", "baselines.lms_step",
               "baselines.no_prediction", "harness.run_sequence_online",
               "metrics.compute_metrics", "signal.load_record"):
        out[f"{fn}.calls"] = calls(fn)
    for fn in ("harness.run_sequence_online", "harness.grid_search",
               "harness.evaluate", "cli.main"):
        out[f"{fn}.self_s"] = self_s(fn)

    runs = out["harness.run_sequence_online.calls"]
    diverged = float(sum(tracer.facts["harness.run_sequence_online"].values()))
    out["harness.runs.diverged"] = diverged
    out["harness.runs.useful_frac"] = (runs - diverged) / runs if runs else 0.0
    out["harness.cpu_per_wall"] = cpu_s / traced_wall_s
    rows = float(sum(tracer.facts["signal.load_record"].values()))
    load_s = out["signal.load_record.total_s"]
    out["signal.load_record.rows_per_s"] = rows / load_s if load_s else 0.0
    out["harness.write.total_s"] = sum(total(fn) for fn in WRITERS)
    out["trace.overhead_frac"] = (
        (traced_wall_s - untraced_wall_s) / untraced_wall_s
    )
    return {name: out[name] for name, _, _ in METRICS}
