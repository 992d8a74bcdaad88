"""Matrix Market I/O for dense square matrices.

Reads both ``coordinate`` and ``array`` formats with ``real`` or
``complex`` fields and expands ``symmetric``, ``hermitian``, and
``skew-symmetric`` storage to dense general form.  ``integer`` and
``pattern`` fields are recognized and rejected with
:class:`~gmreslab.errors.UnsupportedFormat`; malformed content, a
``nan`` or ``inf`` entry included, raises
:class:`~gmreslab.errors.ParseError` carrying the offending line number.
The entries are read in one pass: their tokens are split at once and each
column becomes numbers in one NumPy call, which reads what Python's
``float`` reads (Fortran ``D`` exponents read as ``E``).  The checks run
over all entries together, and the error raised is that of the first
offending line and, on it, of the first check a line-by-line reader would
make.  Symmetric storage is mirrored in one assignment.

The writer writes the ``array`` format only, in shortest round-trip
decimal literals (Python ``repr``), so write-then-read reproduces every
entry exactly.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .dense_core import as_matrix
from .errors import ParseError, UnsupportedFormat, read_text, write_text

__all__ = ["read_matrix_market", "write_matrix_market"]

_FORMATS = ("coordinate", "array")
_FIELDS = ("real", "complex", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")


def _parsed(tokens, kind):
    """``tokens`` as an array of ``kind`` (float or int) in one call, and the
    mask of the tokens that do not parse.  A malformed token sends the list
    to a scan token by token; an integer beyond int64 reads as -1, outside
    every index range."""
    try:
        return np.array(tokens, dtype=kind), np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        pass
    values, bad = np.zeros(len(tokens), dtype=kind), np.zeros(len(tokens), dtype=bool)
    for k, token in enumerate(tokens):
        try:
            values[k] = kind(token)
        except ValueError:
            bad[k] = True
        except OverflowError:
            values[k] = -1
    return values, bad


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


def _data_lines(lines) -> list:
    """Numbers of the non-comment, non-blank lines after the header."""
    return [
        lineno
        for lineno, line in enumerate(map(str.lstrip, lines[1:]), start=2)
        if line and line[0] != "%"
    ]


def _array_slots(n: int, symmetry: str, count: int):
    """0-based (i, j) of the first ``count`` entries of an ``array`` file.

    Column-major; column j stores rows from 0, from j, or from j + 1
    (skew-symmetric, zero diagonal implied).  O(count + n) memory, so a
    short file that declares a large order costs no slot list.
    """
    k = np.arange(count)
    if symmetry == "general":
        return k % n, k // n
    skip = int(symmetry == "skew-symmetric")
    lengths = n - skip - np.arange(n)
    starts = np.cumsum(lengths) - lengths
    j = np.searchsorted(starts, k, side="right") - 1
    return k - starts[j] + j + skip, j


def _entries(lines, linenos, fmt: str, field: str, symmetry: str, n: int):
    """0-based (i, j) and values of the entries on lines ``linenos``, each
    checked; a ParseError names the first offending line.

    The tokens of all lines are split at once and parsed in one call per
    column.  No list per line outlives its split, which keeps the garbage
    collector from tracing one per line of a large file.
    """
    texts = [lines[lineno - 1] for lineno in linenos]
    count = len(texts)
    need = 2 if field == "complex" else 1
    first = 2 if fmt == "coordinate" else 0  # position of the first value
    width = first + need
    widths = np.fromiter(map(len, map(str.split, texts)), dtype=np.intp, count=count)
    # No number that float() reads contains a d: Fortran exponents read as E
    joined = "\n".join(texts).replace("D", "E").replace("d", "e")
    if (widths == width).all():
        flat = joined.split()
    else:  # malformed: cut or pad each line to width
        rows = ((t.split() + [""] * width)[:width] for t in joined.split("\n"))
        flat = list(chain.from_iterable(rows))
    checks = []  # (mask over the entries, message of entry k), in line order

    if fmt == "coordinate":
        (i, bad_i), (j, bad_j) = (_parsed(flat[at::width], np.int64) for at in (0, 1))
        inside = (1 <= i) & (i <= n) & (1 <= j) & (j <= n)
        key = np.where(inside, (i - 1) * n + j - 1, -1 - np.arange(count))
        repeated = np.ones(count, dtype=bool)
        repeated[np.unique(key, return_index=True)[1]] = False

        def pair(k: int) -> str:
            return "({}, {})".format(*map(int, texts[k].split()[:2]))

        checks += [
            (widths < 2, lambda k: "coordinate entry needs row and column indices"),
            (bad_i | bad_j, lambda k: "indices must be integers"),
            (~inside, lambda k: f"index {pair(k)} outside 1..{n}"),
        ]
        if symmetry == "skew-symmetric":
            checks.append((i <= j, lambda k: (
                "skew-symmetric storage must keep entries strictly below the diagonal")))
        elif symmetry != "general":
            checks.append((i < j, lambda k: (
                f"{symmetry} storage must keep entries on or below the diagonal")))
        checks.append((repeated, lambda k: f"duplicate entry for {pair(k)}"))
        i, j = i - 1, j - 1
    else:
        i, j = _array_slots(n, symmetry, count)
    checks.append((widths != width, lambda k: (
        f"expected {need} numeric value(s) for a {field} entry, got {widths[k] - first}")))
    parts = []
    for at in range(first, width):
        part, bad = _parsed(flat[at::width], float)
        checks.append((bad | ~np.isfinite(part), lambda k, at=at, bad=bad: (
            f"not a number: {texts[k].split()[at]!r}" if bad[k]
            else f"entry must be finite, got {texts[k].split()[at]!r}")))
        parts.append(part)
    # complex(re, im) exactly, and complex(re) with a +0.0 that mirrors as -0.0
    values = (np.column_stack(parts).view(np.complex128)[:, 0] if need == 2
              else parts[0].astype(np.complex128))
    if symmetry == "hermitian":
        checks.append(((i == j) & (values.imag != 0.0),
                       lambda k: "hermitian diagonal entries must be real"))
    # the first offending line and, on it, the first check a line-by-line
    # reader would make
    found = [(int(bad.argmax()), order) for order, (bad, _) in enumerate(checks) if bad.any()]
    if found:
        k, order = min(found)
        raise ParseError(checks[order][1](k), linenos[k])
    return i, j, values


def read_matrix_market(path) -> np.ndarray:
    """Read a square dense matrix from a Matrix Market file."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    fmt, field, symmetry = _parse_header(lines[0])

    data = _data_lines(lines)
    if not data:
        raise ParseError("missing size line", len(lines) + 1)
    size_lineno = data[0]
    size_tokens = lines[size_lineno - 1].split()

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

    if fmt == "coordinate":
        total = dims[2]
        if total < 0:
            raise ParseError("entry count must be non-negative", size_lineno)
    else:  # array format: column-major dense values, one entry per line
        tri, skip = symmetry != "general", int(symmetry == "skew-symmetric")
        total = n * (n + 1) // 2 - skip * n if tri else n * n
    entries = data[1 : total + 1]
    i, j, values = _entries(lines, entries, fmt, field, symmetry, n)
    if len(data) > total + 1:
        raise ParseError("unexpected data after the declared entries", data[total + 1])
    if len(entries) != total:
        raise ParseError(f"expected {total} entries, found {len(entries)}", len(lines) + 1)
    matrix = np.zeros((n, n), dtype=np.complex128)
    if symmetry != "general":  # the mirror first: the diagonal keeps the stored value
        matrix[j, i] = (np.conj(values) if symmetry == "hermitian"
                        else -values if symmetry == "skew-symmetric" else values)
    matrix[i, j] = values
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
    write_text(path, "\n".join(lines) + "\n")
