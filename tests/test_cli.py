import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.linalg import lapack

import gmreslab
from gmreslab import write_matrix_market
from gmreslab.cli import main, parse_depths
from gmreslab.errors import InvalidSpec, NoConvergence


@pytest.fixture
def diag_mtx(tmp_path):
    path = tmp_path / "diag.mtx"
    write_matrix_market(str(path), np.diag([1.0, 2.0]))
    return str(path)


def test_parse_depths_forms():
    assert parse_depths("3") == [3]
    assert parse_depths("1,2,4") == [1, 2, 4]
    assert parse_depths("1..5") == [1, 2, 3, 4, 5]
    assert parse_depths("2..3,1,2") == [1, 2, 3]


@pytest.mark.parametrize("text", ["", "x", "3..1", "1..", "1,,2", "1..10000000000"])
def test_parse_depths_rejects_garbage(text):
    with pytest.raises(InvalidSpec):
        parse_depths(text)


def test_run_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
                "depths": [1],
                "trials": 3,
                "out_dir": str(out),
            }
        )
    )
    assert main(["run", str(cfg)]) == 0
    assert (out / "report.json").is_file()
    assert (out / "curves.csv").is_file()
    assert (out / "plot.svg").is_file()
    assert "all checks passed" in capsys.readouterr().out


def test_run_flag_overrides_beat_config(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
                "depths": [1, 2],
                "trials": 3,
                "out_dir": str(out),
                "plot": False,
            }
        )
    )
    assert main(["run", str(cfg), "--depths", "1", "--trials", "2"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert [r["k"] for r in doc["reports"]] == [1]
    assert len(doc["reports"][0]["gmres"]["ratios"]) == 2


def test_bounds_subcommand(tmp_path, diag_mtx, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "bounds",
            "--matrix",
            diag_mtx,
            "--depths",
            "1..2",
            "--trials",
            "3",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert [r["k"] for r in doc["reports"]] == [1, 2]
    assert doc["matrix"]["family"] == "file"
    assert "all checks passed" in capsys.readouterr().out


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_range_depth_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": {"family": "identity", "n": 20}, "depths": [17]}))
    assert main(["run", str(cfg)]) == 2
    assert "error: invalid depth 17" in capsys.readouterr().err


def test_undeclared_matrix_parameter_exits_two(tmp_path, capsys):
    """A misspelt parameter is refused, not dropped: ``lamda`` would run the
    nilpotent block and pass."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    matrix = {"family": "jordan", "n": 4, "lamda": 2.0}
    cfg.write_text(json.dumps({"matrix": matrix, "out_dir": str(out)}))
    assert main(["run", str(cfg)]) == 2
    assert "unknown jordan parameters: ['lamda']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ideal", "run"])
def test_order_too_large_for_memory_exits_two(tmp_path, command):
    """An order of 3e6 asks numpy for 131 TiB, which it refuses at once;
    the process exits 2 with an error line, not a traceback."""
    if command == "ideal":
        path = tmp_path / "huge.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3000000 3000000 1\n"
            "1 1 1.0\n"
        )
        argv = ["ideal", "--matrix", str(path), "-k", "1"]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"matrix": {"family": "identity", "n": 3000000}}))
        argv = ["run", str(path)]
    package_root = str(Path(gmreslab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "gmreslab", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_solver_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": {"family": "identity", "n": 2}, "solver": {}}))
    assert main(["run", str(cfg)]) == 2
    assert "unknown config keys: ['solver']" in capsys.readouterr().err


def test_corrupt_matrix_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nbogus\n")
    code = main(["bounds", "--matrix", str(bad), "--depths", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 4" in err


def test_bad_depth_flag_exits_two(diag_mtx, capsys):
    assert main(["bounds", "--matrix", diag_mtx, "--depths", "nope"]) == 2
    assert "depth" in capsys.readouterr().err


def test_fov_to_stdout(diag_mtx, capsys):
    assert main(["fov", "--matrix", diag_mtx, "--samples", "16"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "theta,point_re,point_im,support_min,support_max"
    assert len(lines) == 17
    assert "nu(F(A)) = 1" in captured.err
    assert "nu(F(inv(A))) = 0.5" in captured.err


def test_fov_odd_sample_count(diag_mtx, capsys):
    assert main(["fov", "--matrix", diag_mtx, "--samples", "9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 9


def test_fov_to_file(tmp_path, diag_mtx, capsys):
    out = tmp_path / "fov.csv"
    assert main(["fov", "--matrix", diag_mtx, "--samples", "32", "--out", str(out)]) == 0
    assert out.read_text().startswith("theta,")
    stdout = capsys.readouterr().out
    assert "nu(F(A))" in stdout
    assert "32 boundary samples" in stdout


def test_fov_singular_matrix_summary(tmp_path, capsys):
    path = tmp_path / "singular.mtx"
    write_matrix_market(str(path), np.diag([0.0, 1.0]))
    assert main(["fov", "--matrix", str(path), "--samples", "16"]) == 0
    err = capsys.readouterr().err
    assert "nu(F(A)) = 0\n" in err
    assert "nu(F(inv(A))) = 0\n" in err


def test_fov_requires_enough_samples(diag_mtx, capsys):
    assert main(["fov", "--matrix", diag_mtx, "--samples", "4"]) == 2


def _printed_roots(out: str) -> np.ndarray:
    """The roots ``t1 = re + imj`` that ``lab ideal`` prints, in order."""
    rows = [line.split("=")[1] for line in out.splitlines() if line.startswith("  t")]
    return np.array([complex(row.replace(" ", "").replace("+-", "-")) for row in rows])


def test_ideal_subcommand(diag_mtx, capsys):
    assert main(["ideal", "--matrix", diag_mtx, "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "ideal(k=1) = 0.333333" in out
    assert "certified = yes" in out
    assert "p(z) = (1 - z/t1)\n" in out
    assert _printed_roots(out) == pytest.approx([1.5], abs=1e-8)


def test_ideal_without_roots_prints_p_equal_one(tmp_path, capsys):
    """No polynomial beats p = 1 for the nilpotent [[0, 1], [0, 0]] at k = 1."""
    path = tmp_path / "nilpotent.mtx"
    write_matrix_market(str(path), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert main(["ideal", "--matrix", str(path), "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "ideal(k=1) = 1\n" in out
    assert "residual polynomial p(z) = 1\n" in out
    assert _printed_roots(out).size == 0


def test_ideal_depth_out_of_range(tmp_path, diag_mtx, capsys):
    assert main(["ideal", "--matrix", diag_mtx, "-k", "5"]) == 2
    assert main(["ideal", "--matrix", diag_mtx, "-k", "0"]) == 2
    # k <= n, but above MAX_DEPTH = 16
    path = tmp_path / "diag20.mtx"
    write_matrix_market(str(path), np.diag(np.arange(1.0, 21.0)))
    assert main(["ideal", "--matrix", str(path), "-k", "17"]) == 2
    assert "error: invalid depth 17" in capsys.readouterr().err


def test_strict_flag_propagates_exit_three(tmp_path, monkeypatch, capsys):
    import gmreslab.experiment as experiment

    real_verify = experiment.bounds.verify_chain

    def uncertified(*args, **kwargs):
        report = real_verify(*args, **kwargs)
        report.ideal_certified = False
        return report

    monkeypatch.setattr(experiment.bounds, "verify_chain", uncertified)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
                "depths": [1],
                "trials": 2,
                "out_dir": str(tmp_path / "out"),
                "plot": False,
            }
        )
    )
    assert main(["run", str(cfg), "--strict"]) == 3
    assert "non-certified" in capsys.readouterr().out



def test_solver_failure_exits_four(tmp_path, monkeypatch, capsys):
    """A solver failure has its own exit code, not that of a failed bound,
    and no report or summary is written."""
    import gmreslab.experiment as experiment

    def failing(*args, **kwargs):
        raise NoConvergence("eigensolver did not converge")

    monkeypatch.setattr(experiment.bounds, "verify_chain", failing)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "diagonal", "entries": [1.0, 2.0]},
                "depths": [1],
                "out_dir": str(out),
            }
        )
    )
    assert main(["run", str(cfg)]) == experiment.EXIT_SOLVER_FAILED == 4
    captured = capsys.readouterr()
    assert "error: eigensolver did not converge" in captured.err
    assert "wrote" not in captured.out
    assert not (out / "report.json").exists()


ZHEEVD = lapack.zheevd


def _failing_zheevd(*args, **kwargs):
    """The ideal solver's direct eigensolve, returning info = 3."""
    return ZHEEVD(*args, **kwargs)[:2] + (3,)


# (module, routine, error line): the NumPy routines raise, the direct LAPACK
# call returns its info, on which the solver raises NoConvergence.
LAPACK_FAILURES = {
    "eigh": (np.linalg, "eigh", "Eigenvalues did not converge"),
    "lstsq": (np.linalg, "lstsq", "SVD did not converge in Linear Least Squares"),
    "zheevd": (lapack, "zheevd", "Hermitian eigensolve failed (zheevd info 3)"),
}


@pytest.mark.parametrize(
    "routine,command",
    [("eigh", "run"), ("lstsq", "ideal"), ("lstsq", "run"), ("zheevd", "ideal"),
     ("zheevd", "run")],
    ids=["eigh-run", "lstsq-ideal", "lstsq-run", "zheevd-ideal", "zheevd-run"],
)
def test_lapack_failure_exits_four(tmp_path, monkeypatch, capsys, diag_mtx, routine, command):
    """A LAPACK failure is a solver failure: exit 4 with an error line, not
    a traceback, and no report.  ``lab ideal`` makes no ``np.linalg.eigh``
    call: the ideal solver's eigensolves are direct ``zheevd`` calls."""
    module, name, message = LAPACK_FAILURES[routine]

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(message)

    monkeypatch.setattr(module, name, _failing_zheevd if module is lapack else failing)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "jordan", "n": 2, "lam": 1.0},
                "depths": [1],
                "out_dir": str(out),
            }
        )
    )
    argv = {
        "run": ["run", str(cfg)],
        "ideal": ["ideal", "--matrix", diag_mtx, "-k", "1"],
    }[command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "wrote" not in captured.out
    assert not (out / "report.json").exists()


NON_FINITE_MTX = {
    "array_nan": "%%MatrixMarket matrix array real general\n2 2\n1.0\nnan\n0.0\n2.0\n",
    "coordinate_inf": (
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 inf\n2 2 2.0\n"
    ),
    "complex_minus_inf": (
        "%%MatrixMarket matrix coordinate complex general\n"
        "2 2 2\n1 1 1.0 -inf\n2 2 2.0 0.0\n"
    ),
}


@pytest.mark.parametrize("command", ["run", "bounds", "ideal", "fov"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_MTX))
def test_non_finite_matrix_entry_exits_two(tmp_path, capsys, command, name):
    path = tmp_path / "bad.mtx"
    path.write_text(NON_FINITE_MTX[name])
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "file", "path": str(path)},
                "depths": [1],
                "out_dir": str(out),
            }
        )
    )
    argv = {
        "run": ["run", str(cfg)],
        "bounds": ["bounds", "--matrix", str(path), "--depths", "1", "--out-dir", str(out)],
        "ideal": ["ideal", "--matrix", str(path), "-k", "1"],
        "fov": ["fov", "--matrix", str(path), "--out", str(out / "fov.csv")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: line" in err and "finite" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "matrix",
    [
        '{"family": "jordan", "n": 2, "lam": 1e400}',
        '{"family": "random_pd_part", "n": 2, "shift": 1e400}',
        '{"family": "diagonal", "entries": [1e400]}',
        '{"family": "diagonal", "entries": [true]}',
        '{"family": "random_pd_part", "n": 4, "shift": 1.7e308, "spread": 1e308}',
    ],
    ids=["lam", "shift", "entries", "entries_true", "overflowing_draw"],
)
def test_non_finite_config_scalar_exits_two(tmp_path, capsys, matrix):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        f'{{"matrix": {matrix}, "depths": [1], "out_dir": {json.dumps(str(out))}}}'
    )
    assert main(["run", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_near_float_max_draw_runs(tmp_path, capsys):
    """Entries near 1e308 keep a finite Hermitian part, so the run reports."""
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    matrix = {"family": "random_pd_part", "n": 4, "shift": 1e308, "spread": 1e308}
    cfg.write_text(
        json.dumps({"matrix": matrix, "depths": [1, 2], "out_dir": str(out)})
    )
    assert main(["run", str(cfg)]) == 0
    assert (out / "report.json").is_file()
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("s", [1e-200, 1e160])
def test_run_at_extreme_scales(tmp_path, capsys, s):
    """A valid file with entries near the ends of the float range runs to
    a schema-valid report and exit 0, not a traceback."""
    path = tmp_path / "scaled.mtx"
    write_matrix_market(str(path), s * np.diag([1.0, 2.0]))
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "matrix": {"family": "file", "path": str(path)},
                "depths": [1, 2],
                "trials": 3,
                "out_dir": str(out),
            }
        )
    )
    assert main(["run", str(cfg)]) == 0
    doc = json.loads((out / "report.json").read_text())
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    jsonschema.validate(doc, schema)
    assert main(["ideal", "--matrix", str(path), "-k", "2"]) == 0
    roots = _printed_roots(capsys.readouterr().out)
    assert np.allclose(roots, [s, 2.0 * s], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--trials", "2", "--strict"]])
@pytest.mark.parametrize("text", ["[1, 2]", "3", '"cfg"', "null"])
def test_non_object_config_exits_two(tmp_path, capsys, text, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["run", str(cfg), *flags]) == 2
    assert "error: config must be a JSON object" in capsys.readouterr().err


# nu(F(A^-1)) = 5e309 and lambda_min(M) = -3.4e308 lie beyond the float
# range; the first also has an inverse with infinite entries.
BEYOND_THE_FLOAT_RANGE = {
    "subnormal_scale": 1e-310 * np.diag([1.0, 2.0]),
    "near_float_max": -1.7e308 * np.ones((2, 2)),
}


@pytest.mark.parametrize("command", ["bounds", "fov"])
@pytest.mark.parametrize("name", sorted(BEYOND_THE_FLOAT_RANGE))
def test_fov_data_beyond_the_float_range_exits_two(tmp_path, capsys, command, name):
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), BEYOND_THE_FLOAT_RANGE[name])
    out = tmp_path / "out"
    argv = {
        "bounds": ["bounds", "--matrix", str(path), "--depths", "1..2",
                   "--out-dir", str(out)],
        "fov": ["fov", "--matrix", str(path), "--samples", "8",
                "--out", str(out / "fov.csv")],
    }[command]
    assert main(argv) == 2
    assert "error: a field-of-values value" in capsys.readouterr().err
    assert not out.exists()


def test_fov_boundary_beyond_the_float_range_exits_two(tmp_path, capsys):
    """F(A) of 1.7e308 [[1, 1], [0, 1]] reaches Re z = 2.55e308 while its
    nu values are in range: the scan wrote inf into its CSV and exited 0."""
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), 1.7e308 * np.array([[1.0, 1.0], [0.0, 1.0]]))
    out = tmp_path / "fov.csv"
    assert main(["fov", "--matrix", str(path), "--samples", "8", "--out", str(out)]) == 2
    assert "error: a field-of-values value on the boundary" in capsys.readouterr().err
    assert not out.exists()


def test_small_scale_keeps_its_inverse_distance(tmp_path, capsys):
    """At 1e-305 the inverse of A is in range, and nu(F(A^-1)) = 5e304 reads
    the same from the inverse of the scaled matrix as from that of A."""
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), 1e-305 * np.diag([1.0, 2.0]))
    out = tmp_path / "out"
    argv = ["bounds", "--matrix", str(path), "--depths", "1..2", "--out-dir", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "report.json").read_text())
    assert [r["nu_ainv"] for r in doc["reports"]] == [5e304, 5e304]
