"""Benchmark of markerpred: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload uoro-protocol --seed 0 --seconds 30 --trace 0

--workload is uoro-protocol, realtime-stream, baselines-io, or all (the
default), which runs the three in turn, each in a child process of its
own so that each reports its own peak memory. Inputs are made
from --seed. Passes of the workload repeat while the next one fits in
--seconds. --trace 0 prints the end-to-end metrics; --trace 1 runs a
warm-up pass, an untraced pass and a traced pass, and prints the
per-layer metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The package is imported from src/ next to this directory, with BLAS pinned
to one thread before numpy loads. The exit code is 0 when every output
check passed, 1 when one failed, 2 when the package cannot be found.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Set-up is repeated this many times before every pass; the median over
# the run is reported.
SETUP_REPEATS = 10

WORKLOAD_NAMES = ("uoro-protocol", "realtime-stream", "baselines-io")

# End-to-end metrics printed by every workload, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "runs/s"),
    ("peak_rss_mb", "MB"),
)


# glibc malloc's options (malloc.h) and the values the benchmark fixes.
# By default glibc raises its mmap threshold to the largest block freed so
# far and trims the heap top past twice that, so whether the package's
# fresh |W|-sized arrays page-fault on every step depends on what the
# process allocated before: the same stream pass alternated between 0.6
# and 1.2 million page faults, 5.7 and 8.0 s. Fixed thresholds serve
# every array from a heap that is never trimmed, as in a long-running
# process: a few thousand faults in the first pass, almost none after.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's largest on 64-bit
TRIM_THRESHOLD = 1 << 30


def fix_allocator() -> bool:
    """Fix glibc malloc's mmap and trim thresholds; False when the C
    library is not glibc."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def prepare() -> str | None:
    """Pin BLAS to one thread and import markerpred from SRC; the reason
    when that is impossible."""
    if not (SRC / "markerpred" / "__init__.py").is_file():
        return f"markerpred sources not found under {SRC}"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import markerpred

    if Path(markerpred.__file__).resolve().parent != SRC / "markerpred":
        return f"imported markerpred from {markerpred.__file__}, not {SRC}"
    return None


def git_revision(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, allocator_fixed: bool) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "malloc_thresholds_fixed": allocator_fixed,
        "git_revision": git_revision(ROOT),
        "seed": seed,
    }


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def one_pass(workload, setups: list[float], sampler=None, tracer=None):
    """Set the inputs up SETUP_REPEATS times afresh, timing each into
    setups, then run one pass, traced when a tracer is given. Set-up time
    is thus sampled across the whole run rather than at one moment. With a
    hostspeed.Sampler, the set-ups and the pass are timed on its clock and
    reported in reference seconds."""
    clock = sampler.clock if sampler else time.perf_counter
    mark = sampler.mark() if sampler else 0
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)
    with tracer or contextlib.nullcontext():
        result = workload.run_pass()
    factor = sampler.factor(mark) if sampler else 1.0
    setups += [t * factor for t in times]
    return result.scaled(factor)


def measure(workload, budget_s: float, setups: list[float]) -> list:
    """Run passes under a hostspeed.Sampler while the next one, at the
    median pass time so far, still ends within budget_s; at least one."""
    import hostspeed

    passes = []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        workload.clock = sampler.clock
        while True:
            passes.append(one_pass(workload, setups, sampler))
            elapsed = time.perf_counter() - start
            pass_s = statistics.median(p.wall_s / p.host_speed for p in passes)
            if elapsed + pass_s > budget_s:
                return passes


def check(workload, seed: int, passes: list) -> list[int]:
    """Indices of the passes that fail: their own checks, the stored
    reference for this seed when there is one, or an exact repeat of the
    first pass's outputs."""
    import workloads

    reference = load_reference(workload.name, seed)
    failed = []
    for i, p in enumerate(passes):
        problems = p.problems + workloads.compare(
            passes[0].fingerprint, p.fingerprint, rtol=0.0
        )
        if reference is not None:
            problems += workload.matches(reference, p.fingerprint)
        if problems:
            failed.append(i)
            for problem in problems:
                print(f"check failed: {workload.name} pass {i}: {problem}",
                      file=sys.stderr)
    return failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    workload = workloads.WORKLOADS[name](seed, workdir)
    passes: list = []
    attempted = 0
    failed = 0
    setups: list[float] = []
    try:
        if not trace:
            passes = measure(workload, seconds, setups)
        else:
            # A warm-up pass, an untraced pass, then the traced pass: the
            # same work each time, so the counts repeat exactly.
            passes = [one_pass(workload, setups), one_pass(workload, setups)]
            tracer = spans.Tracer()
            passes.append(one_pass(workload, setups, tracer=tracer))
            tracer.save(WORK / f"trace-{name}.npz")
        attempted = sum(p.ops for p in passes)
        failed = sum(passes[i].ops for i in check(workload, seed, passes))
    except Exception:
        # The run is void: every operation it attempted counts as failed.
        traceback.print_exc()
        attempted = sum(p.ops for p in passes) + 1
        failed = attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, dict] = {}
    extra: dict[str, tuple[float, str]] = {}
    if failed == 0 and not trace:
        walls = [p.wall_s for p in passes]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "runs_per_s": workload.runs_per_pass * len(passes) / sum(walls),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        extra = workload.metrics(passes)
        extra["host_speed"] = (
            statistics.median(p.host_speed for p in passes), "ratio")
        extra["passes"] = (float(len(passes)), "count")
    elif failed == 0:
        values = spans.layer_metrics(tracer, passes[-1].wall_s,
                                     passes[-2].wall_s, passes[-1].cpu_s)
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u, _ in spans.METRICS}
    extra["failed_frac"] = (failed / max(attempted, 1), "fraction")

    for metric, entry in metrics.items():
        print(f"{name:16s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    for metric, (value, unit) in extra.items():
        print(f"{name:16s} {metric:40s} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", default="all",
        choices=WORKLOAD_NAMES + ("all",),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOAD_NAMES
        ]
        # The first that failed, a signal's negative code included.
        return next((code for code in codes if code != 0), 0)
    allocator_fixed = fix_allocator()
    error = prepare()
    if error:
        print(error, file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(args.seed, allocator_fixed)))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
