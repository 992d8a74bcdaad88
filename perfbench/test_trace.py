"""Self-checks of the benchmark's tracer.

Counts must repeat exactly between two traced passes over the same input,
and must not depend on the depth pool's thread count, because counts are
attributed per thread.  Installing and removing the tracer must leave the
package and NumPy/SciPy as they were.

    python3 -m pytest perfbench/test_trace.py
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy.optimize  # noqa: E402

import gmreslab  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCHEMA = json.loads((HERE.parent / "src/gmreslab/schemas/report.schema.json").read_text())


def _counts(agg):
    """The machine-independent part of an aggregate: drop every time."""
    return {k: v for k, v in agg.items() if not k.endswith((".s", "_s"))}


def _traced(op, lab_threads):
    previous = os.environ.get("LAB_THREADS")
    os.environ["LAB_THREADS"] = str(lab_threads)
    try:
        tracer = tracing.Tracer()
        with tracer:
            result = op.call()
    finally:
        if previous is None:
            del os.environ["LAB_THREADS"]
        else:
            os.environ["LAB_THREADS"] = previous
    assert op.check(result).ok
    return _counts(tracer.aggregate()), result


def _op(workload, name, tmp_path):
    ops = workloads.BUILDERS[workload](0, tmp_path, SCHEMA)
    return next(op for op in ops if op.name == name)


def test_lab_run_counts_repeat_and_ignore_the_pool(tmp_path):
    op = _op("lab_run", "diag_complex", tmp_path)
    first, first_result = _traced(op, 2)
    second, second_result = _traced(op, 2)
    single, single_result = _traced(op, 1)
    assert first == second == single
    assert first["bounds.verify_chain.calls"] == 3
    assert first["minimax.worst_case_gmres.phi_cols"] > 0
    assert first["dense_core.eigensolves"] > 0
    assert first_result == second_result == single_result  # report.json bytes


def test_ideal_and_fov_counts_repeat(tmp_path):
    for workload, name in (("ideal_sweep", "general0"), ("fov_scan", "complex16")):
        op = _op(workload, name, tmp_path)
        first, _ = _traced(op, 1)
        second, _ = _traced(op, 1)
        assert first == second
        assert first["dense_core.eigensolves"] > 0


def test_nested_counts_go_to_the_innermost_span(tmp_path):
    op = _op("ideal_sweep", "general0", tmp_path)
    counts, _ = _traced(op, 1)
    # ideal_gmres calls one_step_ideal; each keeps its own Nelder-Mead work.
    assert counts["minimax.one_step_ideal.nm_fevals"] > 0
    assert counts["minimax.ideal_gmres.calls"] == 3
    assert counts["minimax.one_step_ideal.calls"] == 4
    # fov_summary runs nu_fov twice (A and its inverse), which has no span
    # of its own, so its eigensolves count towards fov_summary.
    assert counts["fov.nu_fov.calls"] == 2
    assert "fov.nu_fov.eigensolves" not in counts
    assert counts["fov.fov_summary.eigensolves"] > 1000


def test_uninstall_restores_every_attribute(tmp_path):
    originals = {
        "eigh": np.linalg.eigh,
        "linprog": scipy.optimize.linprog,
        "ideal": gmreslab.bounds.ideal_gmres,
        "mrv": gmreslab.minimax.min_residual_values,
    }
    with tracing.Tracer():
        assert np.linalg.eigh is not originals["eigh"]
        assert gmreslab.bounds.ideal_gmres is not originals["ideal"]
    assert np.linalg.eigh is originals["eigh"]
    assert scipy.optimize.linprog is originals["linprog"]
    assert gmreslab.bounds.ideal_gmres is originals["ideal"]
    assert gmreslab.minimax.min_residual_values is originals["mrv"]
