import json

import numpy as np
import pytest

import gmreslab.experiment as experiment
from gmreslab import (
    ExperimentConfig,
    InvalidSpec,
    MatrixSpec,
    ParseError,
    bounds,
    errors,
    generate_matrix,
    load_config,
    minimax,
    run_experiment,
)
from gmreslab.bounds import Verdict
import oracles


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
    assert cfg.plot and not cfg.strict


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
        {"matrix": {"family": "identity", "n": 20}, "depths": [17]},
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
        {"matrix": {"family": "identity", "n": 2}, "solver": {"fd_step": 1e-6}},
        {"matrix": {"family": "identity", "n": 2}, "out_dir": 5},
        {"matrix": {"family": "identity", "n": 2}, "plot": "no"},
        {"matrix": {"family": "identity", "n": 2}, "strict": "no"},
        {"matrix": {"family": "identity", "n": 2}, "seed": 0, "solver": {"seed": 5}},
        {"matrix": {"family": "identity", "n": 2}, "solver": {"ascent_step": 0.5}},
        {"matrix": {"family": "identity", "n": 2}, "solver": {"max_halvings": 25}},
        {"matrix": {"family": "identity", "n": 2}, "solver": {}},
        {"matrix": {"family": "identity", "n": 2}, "seed": True},
        {"matrix": {"family": "identity", "n": 2}, "depths": [2, 1, 2]},
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


def test_singular_matrix_runs(tmp_path):
    # 0 in F(A): the Starke bound is 1, and e_1 with A e_1 = 0 keeps both
    # the worst-case and the ideal value at 1
    cfg = small_config(tmp_path, matrix={"family": "diagonal", "entries": [0.0, 1.0]})
    assert run_experiment(cfg) == experiment.EXIT_OK
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    for report in doc["reports"]:
        assert report["nu_a"] == report["nu_ainv"] == 0.0
        assert report["starke_rhs"] == 1.0
        assert abs(report["ideal"] - 1.0) <= 1e-8
        assert abs(report["worst_case"] - 1.0) <= 1e-8
        assert report["ideal_certified"]


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


# The exit code of each error that ``guarded`` catches: 2 for a fault in the
# input (the config, a file, an argument, a size that does not fit in memory),
# 4 for a fault in a solver or kernel.  Every LabError in errors.py needs a
# row, so no error class ships with an exit code nobody decided.
EXIT_CODES = {
    "FileError": 2,
    "InvalidSpec": 2,
    "LabError": 4,
    "LinAlgError": 4,
    "MemoryError": 2,
    "NoConvergence": 4,
    "ParseError": 2,
    "UnsupportedFormat": 2,
}
CAUGHT = [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, errors.LabError)
] + [MemoryError, np.linalg.LinAlgError]


@pytest.mark.parametrize("error", CAUGHT, ids=lambda error: error.__name__)
def test_guarded_exit_code_table(error, capsys):
    def fail():
        raise error("bad")

    assert error.__name__ in EXIT_CODES, "decide the exit code of a new error class"
    assert experiment.guarded(fail) == EXIT_CODES[error.__name__]
    assert capsys.readouterr().err == "error: bad\n"


# The gallery's bidiagonal matrix: nu > 0 and M positive definite, so both
# bounds are defined and no field of its report is trivial.
BIDIAGONAL = {"family": "bidiagonal", "diag": [1.0, 1.5, 2.0, 2.5], "superdiag": 0.6}
REFEREE_TOL = 1e-14
LOWER_ALLOWANCE = 1e-13


def test_report_refereed_in_forty_digits(tmp_path, monkeypatch):
    """Every numeric field of the bidiagonal report (depths 1..3, 3 trials,
    seed 0) against :func:`oracles.referee_report_entry`, which recomputes
    it in 40 digits from A and the by-products captured here: the sampled
    block, the worst-case witness, the ideal roots and the dual block of the
    ideal lower bound.

    Tolerances: each ratio and its min, median and max, ``worst_case``,
    ``ideal``, ``nu_a``, ``nu_ainv``, ``lambda_min_m``, ``starke_rhs``,
    ``elman_rhs`` and every verdict margin lie within 1e-14 of the referee
    (``lambda_max_aha`` within 1e-14 relative); ``ideal_lower``, reported
    less a rounding allowance, is at most its block's 40-digit ratio and
    within 1e-13 below it.  Each ``passed`` is the slacked verdict of the
    40-digit margin, and ``ideal_certified`` says that the 40-digit bracket
    ``[ideal_lower, ideal]`` is closed to 1e-10.
    """
    captured = {}
    blocks = []
    sample, ideal_solve = bounds.gmres_residuals, bounds.ideal_gmres
    worst_solve, ratio = bounds.worst_case_gmres, minimax._gmres_ratio

    def sampling(a, r0s, kmax):
        captured[kmax] = {"r0": np.array(r0s)}
        return sample(a, r0s, kmax)

    def ideal(a, k):
        blocks.clear()
        captured[k]["ideal"] = ideal_solve(a, k)
        captured[k]["blocks"] = list(blocks)
        return captured[k]["ideal"]

    def worst(a, k, starts, ceiling):
        captured[k]["worst"] = worst_solve(a, k, starts, ceiling)
        return captured[k]["worst"]

    def recording(basis, block):
        blocks.append((block.copy(), ratio(basis, block)))
        return blocks[-1][1]

    monkeypatch.setattr(bounds, "gmres_residuals", sampling)
    monkeypatch.setattr(bounds, "ideal_gmres", ideal)
    monkeypatch.setattr(bounds, "worst_case_gmres", worst)
    monkeypatch.setattr(minimax, "_gmres_ratio", recording)
    cfg = ExperimentConfig.from_dict({"matrix": BIDIAGONAL, "depths": [1, 2, 3], "trials": 3,
                                      "out_dir": str(tmp_path), "plot": False})
    assert run_experiment(cfg) == experiment.EXIT_OK
    a = generate_matrix(MatrixSpec.from_dict(BIDIAGONAL))
    solver_links = ("gmres_le_worst_case", "worst_case_le_ideal")
    entries = json.loads((tmp_path / "report.json").read_text())["reports"]
    assert [entry["k"] for entry in entries] == [1, 2, 3]
    for entry in entries:
        got = captured[entry["k"]]
        dual = next(block for block, value in got["blocks"] if value == entry["ideal_lower"])
        ref = oracles.referee_report_entry(a, entry, got["r0"], got["worst"].witness_vector,
                                           got["ideal"].roots, dual)
        for stat in ("ratios", "min", "median", "max"):
            assert entry["gmres"][stat] == pytest.approx(ref["gmres"][stat], abs=REFEREE_TOL)
        for name in ("worst_case", "ideal", "nu_a", "nu_ainv", "lambda_min_m",
                     "starke_rhs", "elman_rhs"):
            assert entry[name] == pytest.approx(ref[name], abs=REFEREE_TOL), name
        assert entry["lambda_max_aha"] == pytest.approx(ref["lambda_max_aha"], rel=REFEREE_TOL)
        lower = ref["ideal_lower"]
        assert lower - LOWER_ALLOWANCE <= entry["ideal_lower"] <= lower
        assert set(entry["verdicts"]) == set(ref["margins"])
        for name, verdict in entry["verdicts"].items():
            margin = ref["margins"][name]
            assert verdict["margin"] == pytest.approx(margin, abs=REFEREE_TOL), name
            slack = bounds._SOLVER_SLACK if name in solver_links else bounds._BOUND_SLACK
            assert verdict["passed"] == (margin >= -slack)
        assert entry["ideal_certified"] == (ref["ideal"] - ref["ideal_lower"] <= 1e-10)
