import dataclasses
import json

import pytest

import gmreslab.experiment as experiment
from gmreslab import (
    ExperimentConfig,
    InvalidSpec,
    ParseError,
    SolverOptions,
    load_config,
    run_experiment,
)
from gmreslab.bounds import Verdict


def small_config(tmp_path, **extra):
    raw = {
        "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
        "depths": [1, 2],
        "trials": 3,
        "out_dir": str(tmp_path / "out"),
        "plot": False,
    }
    raw.update(extra)
    return ExperimentConfig.from_dict(raw)


def test_from_dict_defaults():
    cfg = ExperimentConfig.from_dict(
        {"matrix": {"family": "identity", "n": 2}}
    )
    assert cfg.depths == (1, 2, 3)
    assert cfg.trials == 20
    assert cfg.seed == 0
    assert cfg.solver == SolverOptions()
    assert cfg.plot and not cfg.strict


def test_from_dict_reads_solver_options():
    cfg = ExperimentConfig.from_dict(
        {
            "matrix": {"family": "identity", "n": 2},
            "solver": {"starts": 4, "tolerance": 1e-3},
        }
    )
    assert cfg.solver.starts == 4
    assert cfg.solver.tolerance == 1e-3


@pytest.mark.parametrize(
    "raw",
    [
        [],
        {},
        {"matrix": {"family": "identity", "n": 2}, "mystery": 1},
        {"matrix": {"family": "identity", "n": 2}, "depths": []},
        {"matrix": {"family": "identity", "n": 2}, "depths": [0]},
        {"matrix": {"family": "identity", "n": 2}, "depths": [1.5]},
        {"matrix": {"family": "identity", "n": 2}, "trials": 0},
        {"matrix": {"family": "identity", "n": 2}, "threads": 0},
        {"matrix": {"family": "identity", "n": 2}, "solver": {"warp": 9}},
        {"matrix": {"family": "identity", "n": 2}, "solver": 3},
        {"matrix": {"family": "identity", "n": 10}, "depths": [9]},
        {"matrix": {"family": "identity", "n": 2}, "seed": -1},
        {"matrix": {"family": "identity", "n": 2}, "solver": {"starts": 0}},
        {"matrix": {"family": "identity", "n": True}},
        {"matrix": {"family": "random_pd_part", "n": 3, "seed": 1.5}},
        {"matrix": {"family": "identity", "n": 2}, "seed": 1.5},
        {"matrix": {"family": "identity", "n": 2}, "trials": "3"},
        {"matrix": {"family": "identity", "n": 2}, "threads": True},
        {"matrix": {"family": "identity", "n": 2}, "solver": {"starts": 2.5}},
        {"matrix": {"family": "identity", "n": 2}, "depths": [True]},
        {"matrix": {"family": "identity", "n": 2}, "depths": 2},
    ],
)
def test_from_dict_rejects_malformed(raw):
    with pytest.raises(InvalidSpec):
        ExperimentConfig.from_dict(raw)


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"matrix": {"family": "identity", "n": 3}, "seed": 1, "trials": 9}
        )
    )
    cfg = load_config(str(path), overrides={"trials": 2, "seed": None})
    assert cfg.trials == 2
    assert cfg.seed == 1  # None overrides are skipped


def test_load_config_bad_json_carries_line(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "matrix": oops\n}\n')
    with pytest.raises(ParseError) as excinfo:
        load_config(str(path))
    assert excinfo.value.lineno == 2


def test_resolve_workers_env_cap(monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    assert experiment.resolve_workers(4, tasks=2) == 2
    assert experiment.resolve_workers(1, tasks=8) == 1
    monkeypatch.setenv("LAB_THREADS", "2")
    assert experiment.resolve_workers(8, tasks=8) == 2
    assert experiment.resolve_workers(None, tasks=8) <= 2
    monkeypatch.setenv("LAB_THREADS", "zero")
    with pytest.raises(InvalidSpec):
        experiment.resolve_workers(2, tasks=2)
    monkeypatch.setenv("LAB_THREADS", "0")
    with pytest.raises(InvalidSpec):
        experiment.resolve_workers(2, tasks=2)


def test_run_experiment_writes_outputs(tmp_path):
    cfg = small_config(tmp_path, plot=True)
    assert run_experiment(cfg) == experiment.EXIT_OK
    out = tmp_path / "out"
    assert (out / "report.json").is_file()
    assert (out / "curves.csv").is_file()
    assert (out / "plot.svg").is_file()
    doc = json.loads((out / "report.json").read_text())
    assert doc["matrix"] == {"family": "diagonal", "entries": [1.0, 2.0]}
    assert [r["k"] for r in doc["reports"]] == [1, 2]


def test_run_experiment_skips_plot_when_disabled(tmp_path):
    cfg = small_config(tmp_path)
    assert run_experiment(cfg) == experiment.EXIT_OK
    assert not (tmp_path / "out" / "plot.svg").exists()


def test_depth_beyond_dimension_is_config_error(tmp_path, capsys):
    cfg = small_config(tmp_path, depths=[5])
    assert run_experiment(cfg) == experiment.EXIT_IO
    assert "depth 5" in capsys.readouterr().err


def test_singular_matrix_is_io_error(tmp_path, capsys):
    cfg = small_config(tmp_path, matrix={"family": "diagonal", "entries": [0.0, 1.0]})
    assert run_experiment(cfg) == experiment.EXIT_IO
    assert "error" in capsys.readouterr().err


def test_failed_verdict_yields_exit_one(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    real_verify = experiment.bounds.verify_chain

    def sabotaged(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        report.verdicts["ideal_le_starke"] = Verdict(False, -0.5)
        return report

    monkeypatch.setattr(experiment.bounds, "verify_chain", sabotaged)
    assert run_experiment(cfg) == experiment.EXIT_BOUND_FAILED


def test_strict_mode_flags_uncertified_results(tmp_path, monkeypatch):
    real_verify = experiment.bounds.verify_chain

    def uncertified(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        report.ideal_certified = False
        return report

    monkeypatch.setattr(experiment.bounds, "verify_chain", uncertified)
    relaxed = small_config(tmp_path, out_dir=str(tmp_path / "a"))
    assert run_experiment(relaxed) == experiment.EXIT_OK
    strict = small_config(tmp_path, out_dir=str(tmp_path / "b"), strict=True)
    assert run_experiment(strict) == experiment.EXIT_NOT_CERTIFIED


def test_reports_sorted_by_depth_regardless_of_order(tmp_path):
    cfg = small_config(tmp_path, depths=[2, 1])
    run_experiment(cfg)
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["k"] for r in doc["reports"]] == [1, 2]


def test_thread_count_does_not_change_bytes(tmp_path):
    configs = {}
    for name, threads in (("a", 1), ("b", 3)):
        cfg = small_config(tmp_path, out_dir=str(tmp_path / name), threads=threads)
        assert run_experiment(cfg) == experiment.EXIT_OK
        configs[name] = (tmp_path / name / "report.json").read_bytes()
    assert configs["a"] == configs["b"]


def test_solver_seed_follows_config_seed(tmp_path):
    docs = []
    for seed_value in (0, 1):
        out = tmp_path / f"s{seed_value}"
        cfg = small_config(
            tmp_path,
            out_dir=str(out),
            seed=seed_value,
            matrix={"family": "random_pd_part", "n": 4, "seed": 3},
        )
        assert run_experiment(cfg) == experiment.EXIT_OK
        docs.append(json.loads((out / "report.json").read_text()))
    ratios0 = docs[0]["reports"][0]["gmres"]["ratios"]
    ratios1 = docs[1]["reports"][0]["gmres"]["ratios"]
    assert ratios0 != ratios1
