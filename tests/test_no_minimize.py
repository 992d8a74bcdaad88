"""No module of the package calls ``scipy.optimize.minimize``.

Each quantity keeps one solver of its own: the ideal value its Newton
stages, the worst case its per-start BFGS climbs.  ``optimize.linprog``
of the scalar oracle stays the package's only ``scipy.optimize`` use.
Built on the standard ``ast`` module: a call counts when the called name
or attribute is ``minimize`` (``optimize.minimize(...)``,
``scipy.optimize.minimize(...)``), and an import of ``minimize`` from any
module counts too, so an alias cannot hide it.
"""

import ast
from pathlib import Path

import pytest

import gmreslab

MODULES = sorted(Path(gmreslab.__file__).parent.glob("*.py"))


def minimize_uses(source: str) -> list:
    """Line numbers of each call of a ``minimize`` and each import of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "minimize":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == "minimize" for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_never_calls_optimize_minimize(path):
    assert minimize_uses(path.read_text()) == []


def test_checker_finds_minimize_calls():
    source = (
        "import scipy\n"
        "from scipy import optimize\n"
        "from scipy.optimize import minimize as climb\n"
        "def _minimize_norm(x):\n"
        "    return x\n"
        "optimize.minimize(abs, 1.0)\n"
        "scipy.optimize.minimize(abs, 1.0)\n"
        "optimize.linprog([1.0])\n"
        "_minimize_norm(2.0)\n"
    )
    assert minimize_uses(source) == [3, 6, 7]
