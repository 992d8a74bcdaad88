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


@pytest.mark.parametrize(
    "script, args, count",
    [
        ("run_gallery.py", ["--trials", "2", "--depths", "1", "2"], 6),
        ("depth_sweep.py", ["--trials", "2", "--max-depth", "2"], 1),
    ],
    ids=["run_gallery", "depth_sweep"],
)
def test_helper_script_writes_valid_reports(script, args, count, tmp_path):
    # the run happens in a tmp cwd, where a relative PYTHONPATH misses
    package_root = str(Path(gmreslab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    reports = sorted(tmp_path.rglob("report.json"))
    assert len(reports) == count
    for path in reports:
        jsonschema.validate(json.loads(path.read_text()), schema)
