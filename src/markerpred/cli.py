"""Command-line entry points for the forecasting benchmark.

Subcommands:

    forecast run    --config experiment.json
    forecast cv     --algo uoro --seq record.csv --horizon 0.6
    forecast bench  --algo uoro --q 90 --shl 9.0
    forecast bench  --algo lms --shl 9.0
    forecast report --in results/

Horizons and signal history lengths are given in seconds on the command
line and converted to steps against the sequence's sampling period (or
--rate for the benchmark, which has no sequence); a value that is not a
whole number of steps is rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from markerpred.harness import (
    ALGORITHMS,
    METRIC_NAMES,
    AggregateReport,
    ExperimentConfig,
    _run_on_dataset,
    bench_step_time,
    grid_search,
    load_dataset,
    report_from_dir,
    write_cv_csv,
)
from markerpred.signal import load_record, whole_steps

logger = logging.getLogger(__name__)


def _config_from_file(path: Path) -> list[ExperimentConfig]:
    """Expand a JSON experiment file into one config per algorithm.

    The file is a JSON object that carries either "algorithm" (a string)
    or "algorithms" (a list); "grids" optionally maps names of those
    algorithms to grid overrides. Every other key must be an
    `ExperimentConfig` field, and "horizons_s", "data_manifest" and
    "out_dir" are required (ValueError otherwise, for a "grids" key that
    names no algorithm the file runs, for a "grids" value or grid that is
    not an object, or for an "algorithms", "horizons_s" or grid axis value
    that is not a list).
    Relative paths are resolved against the config file's directory.
    """
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(
            f"{path}: config must be a JSON object, got {type(raw).__name__}"
        )
    if ("algorithm" in raw) == ("algorithms" in raw):
        raise ValueError(f"{path}: config needs one of 'algorithm' and 'algorithms'")
    if "algorithm" in raw:
        raw["algorithms"] = [raw.pop("algorithm")]
    algorithms = _list_value(path, "algorithms", raw.pop("algorithms"))
    if not algorithms:
        # `run` would write nothing and report success.
        raise ValueError(f"{path}: 'algorithms' lists no algorithm")
    grids = {
        algo: {k: tuple(_list_value(path, f"grids.{algo}.{k}", v))
               for k, v in _object_value(path, f"grids.{algo}", grid).items()}
        for algo, grid
        in _object_value(path, "grids", raw.pop("grids", {})).items()
    }
    unused = sorted(set(grids) - set(algorithms))
    if unused:
        # A misspelt key would otherwise run the shipped grid unnoticed.
        raise ValueError(
            f"{path}: 'grids' keys {unused} name no algorithm the config "
            f"runs; it runs {list(algorithms)}"
        )
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"grid"}
    unknown = sorted(set(raw) - fields)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    missing = [key for key in ("horizons_s", "data_manifest", "out_dir")
               if key not in raw]
    if missing:
        raise ValueError(f"{path}: config needs the keys {missing}")
    raw["horizons_s"] = tuple(
        _list_value(path, "horizons_s", raw["horizons_s"])
    )
    raw["data_manifest"] = path.parent / raw["data_manifest"]
    raw["out_dir"] = path.parent / raw["out_dir"]
    return [
        ExperimentConfig(algorithm=algo, grid=grids.get(algo), **raw)
        for algo in algorithms
    ]


def _object_value(path: Path, key: str, value) -> dict:
    """`value` itself when it is a JSON object, which `key` of the config
    at `path` needs."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {key!r} needs an object, got {value!r}")
    return value


def _list_value(path: Path, key: str, value):
    """`value` itself when it is a list, which `key` of the config at
    `path` needs: a string would be read one character at a time."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: {key!r} needs a list, got {value!r}")
    return value


def _print_report(report: AggregateReport) -> None:
    for row in report.rows:
        cells = []
        for name in METRIC_NAMES:
            hr = row.half_ranges[name]
            if hr is None:
                cells.append(f"{name}={row.means[name]:.3f}")
            else:
                cells.append(f"{name}={row.means[name]:.3f}±{hr:.3f}")
        print(f"{report.algorithm:7s} {row.cohort:10s} "
              f"({row.n_conditions} conditions)  " + "  ".join(cells))


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _config_from_file(Path(args.config))
    # The algorithms of one config file share its dataset: read it once.
    records, cohort_exclude = load_dataset(configs[0].data_manifest)
    for config in configs:
        report = _run_on_dataset(config, records, cohort_exclude)
        _print_report(report)
        print(f"outputs written to {config.out_dir}")
    return 0


def _cmd_cv(args: argparse.Namespace) -> int:
    record = load_record(Path(args.seq))
    config = ExperimentConfig(
        algorithm=args.algo,
        horizons_s=(args.horizon,),
        data_manifest="unused",
        out_dir=args.out or ".",
        n_cv=args.n_cv,
        n_test=1,
        master_seed=args.master_seed,
    )
    results = grid_search(args.algo, record, (args.horizon,), config)
    cv = results[args.horizon]
    chosen = next(e for e in cv.entries if e.hyper == cv.chosen)
    print(f"{args.algo} on {record.label!r} at h={args.horizon:g}s: "
          f"chose ({cv.chosen.key()}) with mean cv RMSE "
          f"{chosen.mean_rmse:.4f} mm over {chosen.n_runs} run(s)")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"cv_{args.algo}_h{args.horizon:g}.csv"
        write_cv_csv(path, cv)
        print(f"surface written to {path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if not args.rate > 0:
        raise ValueError(f"--rate must be > 0 Hz, got {args.rate:g}")
    L = whole_steps(args.shl, 1.0 / args.rate, "--shl")
    ms = bench_step_time(
        args.algo, q=args.q, L=L, n_markers=args.markers, n_steps=args.steps,
    )
    shape = f"L={L}" if args.q is None else f"q={args.q}, L={L}"
    print(f"{args.algo} step ({shape}, {args.markers} markers): "
          f"median {ms:.3f} ms over {args.steps} steps")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    reports = report_from_dir(Path(args.in_dir))
    for report in reports.values():
        _print_report(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forecast",
        description="Online forecasting benchmark for 3D marker trajectories.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log per-condition progress"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full protocol from a config file")
    p_run.add_argument("--config", required=True, help="experiment JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_cv = sub.add_parser("cv", help="grid-search one sequence and horizon")
    p_cv.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_cv.add_argument("--seq", required=True, help="sequence CSV file")
    p_cv.add_argument("--horizon", required=True, type=float,
                      help="forecast horizon in seconds")
    p_cv.add_argument("--n-cv", type=int, default=50,
                      help="runs per tuple (default 50)")
    p_cv.add_argument("--master-seed", type=int, default=0)
    p_cv.add_argument("--out", help="directory for the surface CSV")
    p_cv.set_defaults(func=_cmd_cv)

    p_bench = sub.add_parser("bench", help="time one training step")
    p_bench.add_argument("--algo", required=True, choices=("uoro", "rtrl", "lms"))
    p_bench.add_argument("--q", type=int,
                         help="hidden state size (uoro and rtrl only)")
    p_bench.add_argument("--shl", required=True, type=float,
                         help="signal history length in seconds")
    p_bench.add_argument("--rate", type=float, default=10.0,
                         help="sampling rate in Hz (default 10)")
    p_bench.add_argument("--markers", type=int, default=3)
    p_bench.add_argument("--steps", type=int, default=1000,
                         help="measured steps (default 1000)")
    p_bench.set_defaults(func=_cmd_bench)

    p_report = sub.add_parser("report", help="recompute tables from stored runs")
    p_report.add_argument("--in", dest="in_dir", required=True,
                          help="directory holding runs_*.csv files")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
