"""Every name a module of the package imports is used in it, and every
private module-level name it defines is read somewhere in the package.

Built on the standard ``ast`` module: a name counts as used when it is
read anywhere in the module (``np`` in ``np.linalg.eigh`` included) or
listed in its ``__all__``, which is how ``__init__`` re-exports.  A private
name (one leading underscore) counts as read when some module of the
package loads it, imports it or reads it as an attribute
(``krylov._arnoldi``) outside the statement that defines it; reads in the
tests, and a helper's calls of itself, do not count.
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


def private_names(node: ast.stmt) -> set:
    """Private functions, classes and constants that a top-level statement
    defines."""
    names = set()
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.add(node.name)
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def reads(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(sources: dict) -> list:
    """``module.name`` for each private definition that no source reads
    outside the statement that defines it: a helper that only calls itself
    counts as unread."""
    statements = [
        (module, node, reads(node))
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    return sorted(
        f"{module}.{name}"
        for module, node, _ in statements
        for name in private_names(node)
        if not any(name in read for _, other, read in statements if other is not node)
    )


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


def test_checker_finds_unread_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_SCALE: int = 4\n"
            "__all__ = ['f']\n"
            "class _Helper:\n"
            "    pass\n"
            "def _check(x):\n"
            "    return min(x, _LIMIT)\n"
            "def f(x):\n"
            "    return _check(x)\n"
        ),
        "b": "from .a import _Helper\nfrom . import a\ny = a._SCALE.real\n",
        "c": "def _lonely():\n    _unseen = 1\n",
        "d": "def _recurse(n):\n    return _recurse(n - 1) if n else 0\n",
    }
    assert unread_private_names(sources) == ["c._lonely", "d._recurse"]


@pytest.mark.parametrize(
    "module, helper",
    [
        ("fov", "def _nu_fov(mat):\n    return nu_fov(mat)\n"),
        ("cli", "def _add_common_flags(sub):\n    sub.add_argument('--seed')\n"),
        ("cli", "def _cmd_bounds(args):\n    return _run_and_summarize(args)\n"),
    ],
    ids=["nu_fov", "add_common_flags", "cmd_bounds"],
)
def test_checker_finds_a_helper_left_in_the_package(module, helper):
    """A private helper planted in a real module, calling only public or
    other private names, is the one unread name."""
    sources = {path.stem: path.read_text() for path in MODULES}
    sources[module] += "\n\n" + helper
    name = helper.split("(")[0].removeprefix("def ")
    assert unread_private_names(sources) == [f"{module}.{name}"]
