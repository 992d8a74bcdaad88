"""The names that callers outside the package reach for must resolve.

``gmreslab.__all__`` is the public surface.  The benchmark under
``perfbench/`` wraps ``<module>.<function>`` names from its tracer's
``SPANS`` and ``CALL_COUNTS`` and calls package functions from its
workloads; a deleted or renamed name there turns a benchmark run into a
failure.  The benchmark files are read as text, not imported.
"""

import ast
from pathlib import Path

import pytest

import gmreslab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The package modules that perfbench/workloads.py imports by name.
WORKLOAD_MODULES = ("bounds", "experiment", "fov", "matrices", "minimax", "mmio")


def _tracer_targets():
    """Keys of ``SPANS`` and entries of ``CALL_COUNTS`` in tracer.py."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    values = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANS", "CALL_COUNTS")
    }
    return sorted(values["SPANS"]) + list(values["CALL_COUNTS"])


def _workload_targets():
    """Every ``<module>.<name>`` that workloads.py reads off a package module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return sorted(
        {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in WORKLOAD_MODULES
        }
    )


def _resolve(dotted: str):
    module, name = dotted.split(".")
    return getattr(getattr(gmreslab, module), name)


@pytest.mark.parametrize("name", sorted(gmreslab.__all__))
def test_public_name_resolves(name):
    assert hasattr(gmreslab, name)


def test_benchmark_targets_are_found():
    """The parse above sees the benchmark's names, so the guards below are
    not vacuous."""
    assert "minimax.ideal_gmres" in _tracer_targets()
    assert "fov.nu_fov" in _tracer_targets()
    assert "minimax.scalar_minimax_oracle" in _workload_targets()


@pytest.mark.parametrize("target", _tracer_targets())
def test_traced_name_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("target", _workload_targets())
def test_workload_name_resolves(target):
    _resolve(target)
