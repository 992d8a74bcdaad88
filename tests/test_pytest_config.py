"""The repo's pytest settings let a run go on past a failing Hypothesis test.

On a failure, Hypothesis writes a patch with the failing example through
libcst, which touches the deprecated ``mypy_extensions.TypedDict``.  Under
``filterwarnings = ["error"]`` that warning became an exception inside a
pytest hook: the run stopped with INTERNALERROR, and the tests after the
failing one never ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
