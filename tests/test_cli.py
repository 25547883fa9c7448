"""Tests for the forecast command-line interface."""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from markerpred import harness
from markerpred.cli import _config_from_file, build_parser, main
from markerpred.harness import ExperimentConfig, run_experiment
from markerpred.signal import MarkerRecord, synthetic_record, write_record


@pytest.fixture()
def dataset(tmp_path):
    paths = []
    for i, cls in enumerate(("regular", "irregular")):
        rec = synthetic_record(duration_s=70.0, seed=60 + i, label=f"seq{i}")
        rec = MarkerRecord(positions=rec.positions,
                           sample_period=rec.sample_period,
                           label=rec.label, breathing_class=cls)
        write_record(tmp_path / f"seq{i}.csv", rec)
        paths.append(f"seq{i}.csv")
    (tmp_path / "dataset.json").write_text(json.dumps({"sequences": paths}))
    return tmp_path


def _write_config(tmp_path, **overrides):
    raw = {
        "algorithms": ["lms", "none"],
        "horizons_s": [0.4],
        "data_manifest": "dataset.json",
        "out_dir": "out",
        "grids": {"lms": {"eta": [0.02, 0.05], "L": [10]}},
        "n_cv": 1,
        "n_test": 1,
        "master_seed": 3,
    }
    raw.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw))
    return path


def test_parser_wires_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "--config", "x.json"])
    assert args.command == "run" and args.config == "x.json"
    args = parser.parse_args(
        ["cv", "--algo", "uoro", "--seq", "a.csv", "--horizon", "0.6"]
    )
    assert args.algo == "uoro" and args.horizon == 0.6
    args = parser.parse_args(["bench", "--algo", "rtrl", "--q", "55",
                              "--shl", "5.5"])
    assert args.q == 55 and args.shl == 5.5
    args = parser.parse_args(["report", "--in", "results"])
    assert args.in_dir == "results"


def test_parser_rejects_unknown_algorithm():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["cv", "--algo", "lstm", "--seq", "a.csv",
                           "--horizon", "0.6"])


def test_run_command_executes_config(dataset, capsys):
    config = _write_config(dataset)
    assert main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "lms" in out and "none" in out and "all" in out
    out_dir = dataset / "out"
    assert (out_dir / "summary_lms.csv").exists()
    assert (out_dir / "summary_none.csv").exists()
    assert (out_dir / "runs_lms_seq0_h0.4.csv").exists()
    assert (out_dir / "manifest_none.json").exists()


def test_run_command_reads_each_sequence_once(dataset, monkeypatch):
    # Each algorithm's run used to read the dataset again: two algorithms
    # over two sequences read four files. The files it writes are those
    # of one run_experiment per algorithm, byte for byte.
    config = _write_config(dataset)
    read = []
    real = harness.load_record
    monkeypatch.setattr(harness, "load_record",
                        lambda path: read.append(path.name) or real(path))
    assert main(["run", "--config", str(config)]) == 0
    assert sorted(read) == ["seq0.csv", "seq1.csv"]
    for each in _config_from_file(config):
        run_experiment(dataclasses.replace(each, out_dir=dataset / "apart"))
    written = sorted(p.name for p in (dataset / "out").glob("*.csv"))
    assert written == sorted(p.name for p in (dataset / "apart").glob("*.csv"))
    assert len(written) == 2 * (2 * 2 + 2)
    for name in written:
        assert ((dataset / "out" / name).read_bytes()
                == (dataset / "apart" / name).read_bytes()), name


def test_config_rejects_an_empty_algorithm_list(dataset):
    # `run` used to write nothing and exit 0.
    config = _write_config(dataset, algorithms=[], grids={})
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: 'algorithms' lists no algorithm")):
        _config_from_file(config)


def test_config_rejects_grids_key_of_an_algorithm_not_run(dataset):
    # A misspelt key used to run the shipped grid silently.
    config = _write_config(
        dataset, algorithms=["lms"],
        grids={"LMS": {"eta": [0.02], "L": [10]},
               "lms": {"eta": [0.02], "L": [10]}},
    )
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: 'grids' keys ['LMS'] name no algorithm the config "
            f"runs; it runs ['lms']")):
        _config_from_file(config)


@pytest.mark.parametrize("key, value", [
    # A string was read one character at a time: "got 'l'".
    ("algorithms", "lms"),
    # A number raised TypeError: 'float' object is not iterable.
    ("horizons_s", 0.5),
    ("grids", {"lms": {"eta": 0.02, "L": [10]}}),
])
def test_config_values_that_must_be_lists(dataset, key, value):
    config = _write_config(dataset, **{key: value})
    name = "grids.lms.eta" if key == "grids" else key
    shown = 0.02 if key == "grids" else value
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: {name!r} needs a list, got {shown!r}")):
        _config_from_file(config)


@pytest.mark.parametrize("key", ["horizons_s", "data_manifest", "out_dir"])
def test_config_requires_horizons_manifest_and_out_dir(dataset, key):
    # A missing key used to raise a bare KeyError.
    config = _write_config(dataset)
    raw = json.loads(config.read_text())
    del raw[key]
    config.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: config needs the keys [{key!r}]")):
        _config_from_file(config)


@pytest.mark.parametrize("grids, name, shown", [
    # Both used to raise AttributeError: ... has no attribute 'items'.
    (["lms"], "grids", ["lms"]),
    ({"lms": ["eta", 0.02]}, "grids.lms", ["eta", 0.02]),
    ({"lms": 0.02}, "grids.lms", 0.02),
])
def test_config_grids_must_be_objects(dataset, grids, name, shown):
    config = _write_config(dataset, grids=grids)
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: {name!r} needs an object, got {shown!r}")):
        _config_from_file(config)


def test_config_must_be_a_json_object(dataset):
    config = dataset / "config.json"
    config.write_text(json.dumps(["lms"]))
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: config must be a JSON object, got list")):
        _config_from_file(config)


def test_run_command_single_algorithm_key(dataset):
    config = _write_config(dataset)
    raw = json.loads(config.read_text())
    del raw["algorithms"], raw["grids"]
    raw["algorithm"] = "none"
    config.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config)]) == 0
    assert (dataset / "out" / "summary_none.csv").exists()


def test_run_command_requires_algorithm_key(dataset):
    config = _write_config(dataset)
    raw = json.loads(config.read_text())
    del raw["algorithms"]
    config.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="algorithm"):
        main(["run", "--config", str(config)])


def test_run_command_rejects_both_algorithm_keys(dataset):
    config = _write_config(dataset, algorithm="none")
    with pytest.raises(ValueError, match="one of 'algorithm' and 'algorithms'"):
        main(["run", "--config", str(config)])


def test_run_command_rejects_unknown_config_key(dataset):
    # A misspelt key must not leave n_test at its default of 300 runs.
    config = _write_config(dataset, n_tests=1)
    with pytest.raises(ValueError, match=r"exp\.json: unknown config keys \['n_tests'\]"):
        main(["run", "--config", str(config)])
    assert not (dataset / "out").exists()


@pytest.mark.parametrize("field", ["n_cv", "n_test"])
@pytest.mark.parametrize("value", [2.5, True, "3"])
def test_run_command_rejects_non_integer_run_counts(dataset, field, value):
    config = _write_config(dataset, **{field: value})
    with pytest.raises(ValueError, match=f"{field} takes integers >= 1"):
        main(["run", "--config", str(config)])
    assert not (dataset / "out").exists()


def test_config_file_keys_pass_through_to_experiment_config(dataset):
    config = _write_config(dataset, horizons_s=[2.0], save_loss_traces=True)
    raw = json.loads(config.read_text())
    del raw["n_test"]
    config.write_text(json.dumps(raw))
    lms, none = _config_from_file(config)
    defaults = ExperimentConfig(algorithm="none", horizons_s=(0.4,),
                                data_manifest="d", out_dir="o")
    assert (lms.algorithm, none.algorithm) == ("lms", "none")
    assert lms.grid == {"eta": (0.02, 0.05), "L": (10,)} and none.grid is None
    assert lms.horizons_s == (2.0,)
    assert lms.save_loss_traces and lms.n_cv == 1 and lms.master_seed == 3
    assert lms.n_test == defaults.n_test
    assert lms.data_manifest == dataset / "dataset.json"
    assert lms.out_dir == dataset / "out"

    # The horizon bound is 2.0 s, the paper's largest, and no config key.
    config = _write_config(dataset, horizons_s=[2.5])
    with pytest.raises(ValueError, match=re.escape("outside (0, 2.0]s")):
        _config_from_file(config)
    config = _write_config(dataset, max_horizon_s=3.0)
    with pytest.raises(ValueError, match=re.escape(
            f"{config}: unknown config keys ['max_horizon_s']")):
        _config_from_file(config)


@pytest.mark.parametrize("h", [True, "0.5"])
def test_run_command_rejects_horizons_that_are_not_numbers(dataset, h):
    # "horizons_s": [true] used to run a 1 s horizon written as True in
    # the CSVs, and ["0.5"] to raise a bare TypeError.
    config = _write_config(dataset, horizons_s=[0.4, h])
    with pytest.raises(ValueError,
                       match=re.escape(f"horizons_s takes numbers, got {h!r}")):
        main(["run", "--config", str(config)])
    assert not (dataset / "out").exists()


def test_report_rebuilds_run_tables_byte_for_byte(tmp_path, capsys):
    # Three sequences listed out of label order, one left out of the cohort
    # rows, and horizons out of order: report must rewrite exactly the
    # tables run wrote.
    paths = []
    for i, cls in enumerate(("regular", "regular", "irregular")):
        rec = synthetic_record(duration_s=70.0, seed=70 + i, label=f"s{i}")
        rec = MarkerRecord(positions=rec.positions,
                           sample_period=rec.sample_period,
                           label=rec.label, breathing_class=cls)
        write_record(tmp_path / f"s{i}.csv", rec)
        paths.append(f"s{i}.csv")
    (tmp_path / "dataset.json").write_text(
        json.dumps({"sequences": paths[::-1], "cohort_exclude": ["s1"]})
    )
    config = _write_config(tmp_path, horizons_s=[2.0, 0.5])
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    tables = [out / f"{kind}_{algo}.csv"
              for kind in ("summary", "curve") for algo in ("lms", "none")]
    written = [path.read_bytes() for path in tables]
    assert main(["report", "--in", str(out)]) == 0
    assert [path.read_bytes() for path in tables] == written

    summary = written[0].decode().splitlines()
    assert [line.split(",")[1:4] for line in summary[1:]] == [
        ["all", "3", "6"], ["regular", "1", "2"], ["irregular", "1", "2"]
    ]
    curve = written[2].decode().splitlines()
    assert [line.split(",")[1] for line in curve[1:]] == ["0.5", "2.0"]


def test_cv_command_prints_choice_and_writes_surface(dataset, capsys):
    assert main([
        "cv", "--algo", "linreg", "--seq", str(dataset / "seq0.csv"),
        "--horizon", "0.4", "--out", str(dataset / "cvout"),
    ]) == 0
    out = capsys.readouterr().out
    assert "chose (L=" in out and "mean cv RMSE" in out
    assert (dataset / "cvout" / "cv_linreg_h0.4.csv").exists()


def test_bench_command_converts_seconds_to_steps(capsys):
    assert main(["bench", "--algo", "uoro", "--q", "10", "--shl", "1.0",
                 "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert "q=10, L=10" in out and "median" in out


def test_bench_command_times_lms_without_q(capsys):
    assert main(["bench", "--algo", "lms", "--shl", "1.0",
                 "--steps", "20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lms step (L=10, 3 markers): median ")
    assert "q=" not in out


def test_bench_command_rejects_q_for_lms():
    with pytest.raises(ValueError, match="lms has no hidden state: q applies "
                       "to uoro and rtrl only, got q=10"):
        main(["bench", "--algo", "lms", "--q", "10", "--shl", "1.0",
              "--steps", "5"])


@pytest.mark.parametrize("algo", ["uoro", "rtrl"])
def test_bench_command_requires_q_for_recurrent_learners(algo):
    with pytest.raises(ValueError, match=f"{algo} needs its hidden size q"):
        main(["bench", "--algo", algo, "--shl", "1.0", "--steps", "5"])


def test_bench_command_rejects_subsecond_step_history():
    with pytest.raises(ValueError, match="below one step"):
        main(["bench", "--algo", "uoro", "--q", "10", "--shl", "0.01",
              "--steps", "5"])


@pytest.mark.parametrize("shl", ["0.25", "0.35", "0.45"])
def test_bench_command_rejects_history_between_steps(shl):
    with pytest.raises(ValueError, match=rf"--shl {shl}s is .* at 10 Hz"):
        main(["bench", "--algo", "uoro", "--q", "10", "--shl", shl,
              "--steps", "5"])


def test_bench_command_rejects_zero_steps(capsys):
    with pytest.raises(ValueError, match="n_steps must be >= 1, got 0"):
        main(["bench", "--algo", "rtrl", "--q", "10", "--shl", "1.0",
              "--steps", "0"])
    assert "nan" not in capsys.readouterr().out


@pytest.mark.parametrize("rate", ["0", "-10"])
def test_bench_command_rejects_non_positive_rate(rate):
    # --rate 0 used to raise ZeroDivisionError in whole_steps.
    with pytest.raises(ValueError, match=f"--rate must be > 0 Hz, got {rate}"):
        main(["bench", "--algo", "uoro", "--q", "10", "--shl", "1.0",
              "--rate", rate, "--steps", "5"])


def test_bench_command_accepts_float_rounded_history(capsys):
    # 0.3 s at 10 Hz is 2.9999999999999996 steps in floating point.
    assert main(["bench", "--algo", "uoro", "--q", "10", "--shl", "0.3",
                 "--steps", "5"]) == 0
    assert "L=3" in capsys.readouterr().out


def test_report_command_rebuilds_tables(dataset, capsys):
    config = _write_config(dataset, algorithms=["none"], grids={})
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--in", str(dataset / "out")]) == 0
    out = capsys.readouterr().out
    assert "none" in out and "all" in out
