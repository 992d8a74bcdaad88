"""The names that callers outside the package reach for must resolve.

``gmreslab.__all__`` is the public surface.  The benchmark under
``perfbench/`` wraps ``<module>.<function>`` names from its tracer's
``SPANS`` and ``CALL_COUNTS`` and calls package functions from its
workloads; a deleted or renamed name there turns a benchmark run into a
failure.  The benchmark files are read as text, not imported.  Every
error the package raises derives from ``gmreslab.LabError``, only the
modules that sample reach ``numpy.random``, and only ``errors.py`` and the
output directory's creation turn an ``OSError`` into ``FileError``.
"""

import ast
import functools
import importlib
import os
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import gmreslab
from gmreslab import InvalidSpec, errors

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


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(gmreslab.__path__))
)
def test_module_exports_resolve(module):
    """Every module but ``__main__`` lists its exports in ``__all__``, and
    each listed name resolves: a name deleted from a module but left in its
    list fails here, not only at ``from gmreslab.<module> import *``."""
    mod = importlib.import_module(f"gmreslab.{module}")
    assert module == "__main__" or hasattr(mod, "__all__")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


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


# The classes a ``raise`` in the package may name: its own errors, and the
# private signal that ends a worst-case ascent inside SciPy's optimizer.
RAISABLE = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.LabError)
} | {"_Bracketed"}


def foreign_raises(source: str) -> list:
    """The class named by each ``raise`` in ``source`` that is not in
    ``RAISABLE`` (``""`` for a bare re-raise)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(ast.unparse(exc).rsplit(".", 1)[-1] if exc else "")
    return sorted(name for name in names if name not in RAISABLE)


PACKAGE_FILES = sorted(Path(gmreslab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda path: path.name)
def test_package_raises_only_its_own_errors(path):
    assert foreign_raises(path.read_text()) == []


def test_checker_finds_foreign_raises():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    try:\n"
        "        raise InvalidSpec('y') from None\n"
        "    except InvalidSpec:\n"
        "        raise\n"
        "    raise errors.ParseError('z', 3)\n"
        "def g():\n"
        "    raise _Bracketed\n"
    )
    assert foreign_raises(source) == ["", "ValueError"]


def reaches_numpy_random(source: str) -> bool:
    """Whether ``source`` names ``np.random`` or ``numpy.random``, or
    imports from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.random", "numpy.random"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.random"):
            if node.module == "numpy.random" or "random" in (a.name for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(a.name == "numpy.random" for a in node.names):
            return True
    return False


def test_only_the_sampling_modules_draw_random_numbers():
    """The sampled initial residuals (bounds.py) and the random matrix
    families (matrices.py) are the package's random streams; the solvers
    draw none, so a worst case or an ideal value depends only on its
    arguments."""
    users = {path.name for path in PACKAGE_FILES if reaches_numpy_random(path.read_text())}
    assert users == {"bounds.py", "matrices.py"}


@pytest.mark.parametrize(
    "source, reaches",
    [("rng = np.random.default_rng(0)", True), ("from numpy import random", True),
     ("from numpy.random import SeedSequence", True), ("import numpy.random", True),
     ("x = np.linalg.norm(v)\nrandom = 3", False)],
    ids=["attribute", "from_numpy", "from_numpy_random", "import", "none"],
)
def test_checker_finds_numpy_random(source, reaches):
    assert reaches_numpy_random(source) is reaches


def os_error_guards(source: str) -> list:
    """The body, unparsed, of each ``try`` in ``source`` that has an
    ``except`` clause naming ``OSError``."""
    guarded = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Try):
            types = [h.type for h in node.handlers if h.type is not None]
            names = [n for t in types for n in (t.elts if isinstance(t, ast.Tuple) else [t])]
            if "OSError" in (ast.unparse(n).rsplit(".", 1)[-1] for n in names):
                guarded.append("; ".join(ast.unparse(s) for s in node.body))
    return guarded


def test_only_errors_py_and_the_out_dir_mkdir_catch_os_error():
    """Every read and write of a file goes through ``errors.read_text`` or
    ``errors.write_text``; the output directory's creation is the one other
    ``OSError`` the package turns into ``FileError``."""
    found = {path.name: os_error_guards(path.read_text()) for path in PACKAGE_FILES}
    assert {name: bodies for name, bodies in found.items() if bodies} == {
        "errors.py": ["return Path(path).read_text()", "Path(path).write_text(text)"],
        "experiment.py": ["out.mkdir(parents=True, exist_ok=True)"],
    }


def test_checker_finds_os_error_guards():
    source = (
        "try:\n"
        "    f()\n"
        "except (ValueError, OSError):\n"
        "    pass\n"
        "try:\n"
        "    g()\n"
        "except ValueError:\n"
        "    pass\n"
        "except builtins.OSError as exc:\n"
        "    raise FileError(exc)\n"
        "try:\n"
        "    h()\n"
        "except KeyError:\n"
        "    pass\n"
    )
    assert os_error_guards(source) == ["f()", "g()"]


# Vector blocks that every residual kernel refuses with InvalidSpec: NumPy's
# own ValueError of a ragged or non-numeric block included, and a zero column,
# which has no residual ratio.
BAD_BLOCKS = {
    "nan": [[np.nan], [1.0], [1.0]],
    "inf": [[np.inf], [1.0], [1.0]],
    "empty": np.ones((3, 0)),
    "ragged": [[1], [1, 2], [1]],
    "string": [["1"], ["x"], ["1"]],
    "zero_column": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
}
# Spectra that the scalar oracle refuses with InvalidSpec, not with NumPy's or
# linprog's own error, nor by returning a value for an infinite eigenvalue.
BAD_SPECTRA = {
    "ragged": [[1.0, 2.0], [3.0]],
    "string": ["1", "x"],
    "nan": [1.0, np.nan],
    "inf": [1.0, np.inf],
}
# FoV data that starke_bound, and so verify_chain, refuses with InvalidSpec,
# not with AttributeError, a NaN bound or a clamped negative distance.
BAD_FOV_DATA = {
    "tuple": (0.5, 0.5),
    "nan": gmreslab.FovSummary(np.nan, 0.5),
    "inf": gmreslab.FovSummary(0.5, np.inf),
    "negative": gmreslab.FovSummary(-1.0, 2.0),
}
FOV_DATA_CALLS = {
    "starke_bound": lambda data: gmreslab.starke_bound(np.eye(2), 1, data),
    "verify_chain": lambda data: gmreslab.verify_chain(np.eye(2), 1, 1, fov_data=data),
}
# Matrices that every public function taking one refuses with InvalidSpec, and
# those functions, each with valid other arguments.
BAD_MATRICES = {"ragged": [[1.0, 2.0], [3.0]], "string": [["a", "b"], ["c", "d"]]}
MATRIX_CALLS = {
    "hermitian_part": gmreslab.hermitian_part,
    "spectral_norm": gmreslab.spectral_norm,
    "fov_boundary": lambda a: gmreslab.fov_boundary(a, 8),
    "nu_fov": gmreslab.nu_fov,
    "fov_summary": gmreslab.fov_summary,
    "ideal_gmres": lambda a: gmreslab.ideal_gmres(a, 1),
    "worst_case_gmres": lambda a: gmreslab.worst_case_gmres(a, 1, np.ones((2, 1))),
    "elman_bound": lambda a: gmreslab.elman_bound(a, 1),
    "starke_bound": lambda a: gmreslab.starke_bound(a, 1),
    "verify_chain": lambda a: gmreslab.verify_chain(a, 1, trials=1),
    "write_matrix_market": lambda a: gmreslab.write_matrix_market(os.devnull, a),
    **{
        kernel: lambda a, f=getattr(gmreslab.krylov, kernel): f(a, np.ones((2, 1)), 1)
        for kernel in gmreslab.krylov.__all__
    },
}
MALFORMED = {
    "non_square_matrix": lambda: gmreslab.ideal_gmres(np.ones((2, 3)), 1),
    "non_finite_matrix": lambda: gmreslab.fov_summary([[np.nan]]),
    "short_vector_block": lambda: gmreslab.gmres_residuals(np.eye(3), np.ones((2, 1)), 1),
    **{
        f"{bad}_vector_block_{kernel}": functools.partial(
            getattr(gmreslab.krylov, kernel), np.diag([1.0, 2.0, 3.0]), block, 1
        )
        for bad, block in BAD_BLOCKS.items()
        for kernel in gmreslab.krylov.__all__
    },
    **{
        f"{bad}_starts_worst_case_gmres": functools.partial(
            gmreslab.worst_case_gmres, np.diag([1.0, 2.0, 3.0]), 1, block
        )
        for bad, block in BAD_BLOCKS.items()
    },
    # a bool is a Real but not a ceiling
    **{
        f"bool_{flag}_ceiling_worst_case_gmres": functools.partial(
            gmreslab.worst_case_gmres, np.diag([1.0, 2.0, 3.0]), 1, np.ones((3, 1)), flag
        )
        for flag in (True, False)
    },
    **{
        f"{bad}_fov_data_{name}": functools.partial(call, fov_data)
        for bad, fov_data in BAD_FOV_DATA.items()
        for name, call in FOV_DATA_CALLS.items()
    },
    **{
        f"{bad}_eigenvalues_scalar_minimax_oracle": functools.partial(
            gmreslab.scalar_minimax_oracle, spectrum, 1
        )
        for bad, spectrum in BAD_SPECTRA.items()
    },
    **{
        f"{bad}_matrix_{name}": functools.partial(call, matrix)
        for bad, matrix in BAD_MATRICES.items()
        for name, call in MATRIX_CALLS.items()
    },
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_arguments_raise_invalid_spec(call):
    with pytest.raises(InvalidSpec):
        call()
