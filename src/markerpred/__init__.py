"""Online forecasting of 3D marker trajectories.

Recurrent networks trained online with UORO or RTRL, plus LMS and offline
linear-regression baselines, a metric suite, and a cross-validation harness
with a `forecast` command-line front end.
"""

from markerpred.harness import (
    ExperimentConfig,
    HyperChoice,
    aggregate,
    bench_step_time,
    evaluate,
    grid_search,
    load_dataset,
    run_experiment,
    run_sequence_online,
)
from markerpred.metrics import (
    CiSummary,
    MetricSet,
    PredictionTrace,
    compute_metrics,
)
from markerpred.rnn import (
    NonFiniteError,
    RnnDims,
    RnnParams,
    clip_gradient,
    flatten_params,
    forward,
    init_params,
    loss,
    unflatten_params,
)
from markerpred.signal import (
    MarkerRecord,
    Normalizer,
    Partition,
    build_io,
    design_matrix,
    fit_normalizer,
    iter_windows,
    load_record,
    make_partition,
    synthetic_record,
    write_record,
)

__version__ = "0.1.0"

__all__ = [
    # networks
    "NonFiniteError",
    "RnnDims",
    "RnnParams",
    "init_params",
    "forward",
    "loss",
    "clip_gradient",
    "flatten_params",
    "unflatten_params",
    # signals
    "MarkerRecord",
    "Normalizer",
    "Partition",
    "load_record",
    "write_record",
    "synthetic_record",
    "fit_normalizer",
    "iter_windows",
    "build_io",
    "design_matrix",
    "make_partition",
    # metrics
    "PredictionTrace",
    "MetricSet",
    "CiSummary",
    "compute_metrics",
    # harness
    "ExperimentConfig",
    "HyperChoice",
    "run_sequence_online",
    "grid_search",
    "evaluate",
    "aggregate",
    "bench_step_time",
    "load_dataset",
    "run_experiment",
    "__version__",
]
