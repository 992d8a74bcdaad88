"""Every name a module of the package imports is used in it.

Built on the standard ``ast`` module: a name counts as used when it is
read anywhere in the module (``np`` in ``np.linalg.eigh`` included) or
listed in its ``__all__``, which is how ``__init__`` re-exports.
"""

import ast
from pathlib import Path

import pytest

import gmreslab

MODULES = sorted(Path(gmreslab.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .errors import InvalidSpec\n"
        "__all__ = ['InvalidSpec']\n"
        "def f(x: Sequence) -> float:\n"
        "    return np.linalg.norm(x)\n"
    )
    assert unused_imports(source) == ["Optional", "os"]
