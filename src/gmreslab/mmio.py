"""Matrix Market I/O for dense square matrices.

Reads both ``coordinate`` and ``array`` formats with ``real`` or
``complex`` fields and expands ``symmetric``, ``hermitian``, and
``skew-symmetric`` storage to dense general form.  ``integer`` and
``pattern`` fields are recognized and rejected with
:class:`~gmreslab.errors.UnsupportedFormat`; malformed content, a
``nan`` or ``inf`` entry included, raises
:class:`~gmreslab.errors.ParseError` carrying the offending line number.

The writer writes the ``array`` format only, in shortest round-trip
decimal literals (Python ``repr``), so write-then-read reproduces every
entry exactly.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dense_core import as_matrix
from .errors import FileError, ParseError, UnsupportedFormat

__all__ = ["read_matrix_market", "write_matrix_market"]

_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "complex", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _parse_number(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        # Fortran-style exponents occur in the wild.
        try:
            value = float(token.replace("D", "E").replace("d", "e"))
        except ValueError:
            raise ParseError(f"not a number: {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"entry must be finite, got {token!r}", lineno)
    return value


def _parse_value(tokens, field: str, lineno: int) -> complex:
    need = 2 if field == "complex" else 1
    if len(tokens) != need:
        raise ParseError(
            f"expected {need} numeric value(s) for a {field} entry, got {len(tokens)}",
            lineno,
        )
    if field == "complex":
        return complex(
            _parse_number(tokens[0], lineno), _parse_number(tokens[1], lineno)
        )
    return complex(_parse_number(tokens[0], lineno))


def _parse_header(line: str):
    tokens = line.split()
    if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
        raise ParseError(
            "header must read '%%MatrixMarket matrix <format> <field> <symmetry>'", 1
        )
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        raise UnsupportedFormat(f"unsupported object type {obj!r}")
    if fmt not in _FORMATS:
        raise ParseError(f"unknown format {fmt!r}", 1)
    if field not in _FIELDS:
        raise ParseError(f"unknown field {field!r}", 1)
    if field in ("integer", "pattern"):
        raise UnsupportedFormat(f"{field} matrices are not supported")
    if symmetry not in _SYMMETRIES:
        raise ParseError(f"unknown symmetry {symmetry!r}", 1)
    return fmt, field, symmetry


def _data_lines(lines):
    """Yield (lineno, tokens) for non-comment, non-blank lines after the header."""
    for idx, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield idx, stripped.split()


def _mirror(matrix: np.ndarray, i: int, j: int, value: complex, symmetry: str):
    matrix[i, j] = value
    if i == j:
        return
    if symmetry == "symmetric":
        matrix[j, i] = value
    elif symmetry == "hermitian":
        matrix[j, i] = np.conj(value)
    elif symmetry == "skew-symmetric":
        matrix[j, i] = -value


def _coordinate_slot(tokens, n: int, symmetry: str, seen: set, lineno: int):
    """0-based (i, j) of a coordinate entry: indices in range, in the stored
    triangle, not seen before."""
    if len(tokens) < 2:
        raise ParseError("coordinate entry needs row and column indices", lineno)
    try:
        i, j = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError("indices must be integers", lineno) from None
    if not (1 <= i <= n and 1 <= j <= n):
        raise ParseError(f"index ({i}, {j}) outside 1..{n}", lineno)
    if symmetry in ("symmetric", "hermitian") and i < j:
        raise ParseError(
            f"{symmetry} storage must keep entries on or below the diagonal", lineno
        )
    if symmetry == "skew-symmetric" and i <= j:
        raise ParseError(
            "skew-symmetric storage must keep entries strictly below the diagonal",
            lineno,
        )
    if (i, j) in seen:
        raise ParseError(f"duplicate entry for ({i}, {j})", lineno)
    seen.add((i, j))
    return i - 1, j - 1


def read_matrix_market(path) -> np.ndarray:
    """Read a square dense matrix from a Matrix Market file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    fmt, field, symmetry = _parse_header(lines[0])

    stream = _data_lines(lines)
    try:
        size_lineno, size_tokens = next(stream)
    except StopIteration:
        raise ParseError("missing size line", len(lines) + 1) from None

    expected = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != expected:
        raise ParseError(
            f"size line of a {fmt} matrix needs {expected} integers", size_lineno
        )
    try:
        dims = [int(t) for t in size_tokens]
    except ValueError:
        raise ParseError("size line entries must be integers", size_lineno) from None
    rows, cols = dims[0], dims[1]
    if rows != cols:
        raise ParseError(f"matrix is not square ({rows} x {cols})", size_lineno)
    if rows < 1:
        raise ParseError("matrix order must be positive", size_lineno)
    n = rows
    matrix = np.zeros((n, n), dtype=np.complex128)

    if fmt == "coordinate":
        total = dims[2]
        if total < 0:
            raise ParseError("entry count must be non-negative", size_lineno)
        seen = set()
    else:  # array format: column-major dense values, one entry per line
        # Column j stores rows from 0, from j, or from j + 1 (skew-symmetric,
        # zero diagonal implied); the slots are walked lazily, in O(1) memory.
        tri, skip = symmetry != "general", int(symmetry == "skew-symmetric")
        slots = ((i, j) for j in range(n) for i in range(tri * j + skip, n))
        total = n * (n + 1) // 2 - skip * n if tri else n * n
    count = 0
    for lineno, tokens in stream:
        if count >= total:
            raise ParseError("unexpected data after the declared entries", lineno)
        if fmt == "coordinate":
            i, j = _coordinate_slot(tokens, n, symmetry, seen, lineno)
            tokens = tokens[2:]
        else:
            i, j = next(slots)
        value = _parse_value(tokens, field, lineno)
        if symmetry == "hermitian" and i == j and value.imag != 0.0:
            raise ParseError("hermitian diagonal entries must be real", lineno)
        _mirror(matrix, i, j, value, symmetry)
        count += 1
    if count != total:
        raise ParseError(f"expected {total} entries, found {count}", len(lines) + 1)
    return matrix


def _format_value(value: complex, field: str) -> str:
    # repr of a builtin float is the shortest string that round-trips
    if field == "complex":
        return f"{float(value.real)!r} {float(value.imag)!r}"
    return repr(float(value.real))


def write_matrix_market(path, a) -> None:
    """Write a square matrix in Matrix Market ``array`` form (dense,
    column-major).  The field is ``real`` when every entry has a zero
    imaginary part and ``complex`` otherwise; symmetry is always written as
    ``general``.
    """
    matrix = as_matrix(a)
    n = matrix.shape[0]
    field = "real" if np.all(matrix.imag == 0.0) else "complex"
    lines = [f"%%MatrixMarket matrix array {field} general", f"{n} {n}"]
    lines += [_format_value(value, field) for value in matrix.T.ravel()]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc
