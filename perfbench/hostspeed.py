"""Host speed, sampled by a fixed reference kernel while the benchmark runs.

The benchmark runs on a few virtual CPUs of a shared host. Unchanged code
on an idle guest ran 30 % faster or slower from one ten-second stretch to
the next, with CPU time tracking wall time: the host's speed changes, and
a run of tens of seconds cannot average that out. So a Sampler runs a
fixed kernel, which belongs to the benchmark and never changes with the
package, every TICK_S of wall time in the measuring thread itself (from a
SIGALRM handler). Its `clock` leaves out the time spent in those ticks,
and `factor` turns a span of that clock into seconds at the reference
speed:

    reference seconds = measured seconds * REFERENCE_TICK_S / median tick

where the median runs over the ticks taken during the span.
REFERENCE_TICK_S is the kernel's median time on the reference machine
(a 2-vCPU Xeon under KVM), so figures read close to wall seconds there,
and a change in the package moves them while a change in the host's speed
largely does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# How often the reference kernel runs, in wall seconds.
TICK_S = 0.1

# Median time of one reference_kernel() call on the reference machine.
REFERENCE_TICK_S = 0.0055

_rng = np.random.default_rng(0)
# Shapes of the package's steps on 3 markers: the q x (q + m + 1) weight
# matrix at q = L = 30, the |W| of q = L = 90, and an RTRL influence
# matrix (q x |W| at q = L = 25) with its state Jacobian.
_W = _rng.standard_normal((30, 301))
_v = _rng.standard_normal(301)
_x = _rng.standard_normal(30)
_theta = _rng.standard_normal(81_900)
_jac = _rng.standard_normal((25, 25))
_influence = _rng.standard_normal((25, 6275))


def reference_kernel() -> float:
    """A fixed mix of what the package spends its time on: small numpy
    calls with their interpreter overhead, matrix-vector products and
    rank-one updates, element-wise work on fresh |W|-sized arrays, and a
    product over an RTRL-sized influence matrix. Of the kernels tried, it
    tracked the slowdown of uoro-protocol and realtime-stream passes
    best."""
    acc = 0.0
    W = _W.copy()
    for _ in range(40):
        y = np.tanh(W @ _v)
        W += 1e-6 * np.outer(y - _x, _v)
        acc += float(np.linalg.norm(W)) + float(y.sum())
    for _ in range(6):
        t = _theta * 0.5 + _theta
        acc += float(np.linalg.norm(t)) + float(np.isfinite(t).all())
        acc += float((_jac @ _influence)[0, 0])
    return acc


class Sampler:
    """While entered, runs reference_kernel every TICK_S seconds in this
    thread and records each tick's start and duration."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(elapsed)
        self._spent += elapsed

    def clock(self) -> float:
        """perf_counter minus the time spent in ticks so far, so that a
        span of this clock covers the program alone."""
        while True:
            spent = self._spent
            now = time.perf_counter()
            if spent == self._spent:
                return now - spent

    def mark(self) -> int:
        """A position in the tick record, to bound a span for `factor`."""
        return len(self.durations)

    def factor(self, since: int) -> float:
        """Reference seconds per measured second over the ticks since the
        mark `since`."""
        ticks = self.durations[since:]
        if not ticks:
            raise RuntimeError("no reference tick fell in the span")
        return REFERENCE_TICK_S / statistics.median(ticks)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
