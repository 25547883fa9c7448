"""Arithmetic of the benchmark: tail percentiles and the protocol projection.

Kept free of markerpred imports so the unit tests can check it by hand.
"""

from __future__ import annotations

import numpy as np

# The shipped UORO protocol per sequence (README "Protocol", harness
# DEFAULT_GRIDS and the ExperimentConfig defaults): 150 grid tuples scored
# by 50 cross-validation runs each, then 300 test runs of the chosen tuple,
# at each of the paper's 20 horizons. Fixed here, not read from the
# package, so that shrinking the shipped grid cannot pass for a speed-up.
SHIPPED_TUPLES = 150
SHIPPED_N_CV = 50
SHIPPED_N_TEST = 300
SHIPPED_HORIZONS = 20

# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n_samples: int) -> float | None:
    """Highest percentile of the ladder 50, 90, 99, 99.9, ... that has at
    least TAIL_SAMPLES of n_samples beyond it; None when even the median
    has fewer.

    The count beyond percentile 100 * (1 - 10**-k) is n_samples / 10**k,
    so the test is done in integers to avoid rounding at the boundary.
    """
    if 2 * TAIL_SAMPLES > n_samples:
        return None
    best = 50.0
    k = 1
    while n_samples >= TAIL_SAMPLES * 10**k:
        best = round(100.0 - 100.0 / 10**k, k)
        k += 1
    return best


def percentile_ms(samples_s: np.ndarray, pct: float) -> float:
    """The pct-th percentile of durations in seconds, in milliseconds."""
    return float(np.percentile(samples_s, pct)) * 1e3


def full_grid_h(
    t_grid_search_s: float, n_cv_runs: int, t_evaluate_s: float, n_test_runs: int
) -> float:
    """Projected wall hours of the shipped UORO protocol per sequence.

    t_grid_search_s is the time of a grid search that made n_cv_runs
    cross-validation runs spread evenly over the 25 shipped (q, L)
    shapes; t_evaluate_s that of an evaluation that made n_test_runs test
    runs. Each measured run stands for the shipped runs of its kind, which
    assumes a run's cost does not depend on eta or sigma_init (true unless
    a run diverges).
    """
    if n_cv_runs < 1 or n_test_runs < 1:
        raise ValueError("need at least one cross-validation and one test run")
    cv_runs = SHIPPED_TUPLES * SHIPPED_N_CV * SHIPPED_HORIZONS
    test_runs = SHIPPED_N_TEST * SHIPPED_HORIZONS
    seconds = (
        cv_runs * t_grid_search_s / n_cv_runs
        + test_runs * t_evaluate_s / n_test_runs
    )
    return seconds / 3600.0
