"""Smoke test of the helper scripts: each runs end to end in a tmp dir."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import gmreslab

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(script, args, cwd):
    # the run happens in a tmp cwd, where a relative PYTHONPATH misses
    package_root = str(Path(gmreslab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize(
    "script, args, count",
    [
        ("run_gallery.py", ["--trials", "2", "--depths", "1", "2"], 7),
        ("depth_sweep.py", ["--trials", "2", "--max-depth", "2"], 1),
        ("depth_sweep.py", ["--trials", "2", "--n", "10", "--max-depth", "10"], 1),
    ],
    ids=["run_gallery", "depth_sweep", "depth_sweep_deep"],
)
def test_helper_script_writes_valid_reports(script, args, count, tmp_path):
    proc = _run_script(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    reports = sorted(tmp_path.rglob("report.json"))
    assert len(reports) == count
    for path in reports:
        jsonschema.validate(json.loads(path.read_text()), schema)


@pytest.mark.parametrize("script", ["run_gallery.py", "depth_sweep.py"])
def test_helper_script_refuses_bad_arguments(script, tmp_path):
    proc = _run_script(script, ["--trials", "0"], tmp_path)
    assert proc.returncode == 2
    assert "error: invalid trials 0" in proc.stderr
    assert "Traceback" not in proc.stderr
