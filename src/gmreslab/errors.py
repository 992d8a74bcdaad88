"""Exception types shared across the lab, its integer checks and file helpers."""

from numbers import Integral
from pathlib import Path

# The deepest depth measured so far, not a conditioning limit: both solvers work
# in Arnoldi bases, whose conditioning does not grow with the depth.
MAX_DEPTH = 16

__all__ = [
    "MAX_DEPTH",
    "check_depth",
    "check_int",
    "LabError",
    "NoConvergence",
    "InvalidSpec",
    "ParseError",
    "UnsupportedFormat",
    "FileError",
    "read_text",
    "write_text",
]


class LabError(Exception):
    """Base class for all errors raised by this package."""


class NoConvergence(LabError):
    """An iterative kernel exhausted its iteration budget."""


class InvalidSpec(LabError, ValueError):
    """A matrix or experiment description, or an argument, failed validation."""


class ParseError(LabError):
    """Malformed input file.  Carries the 1-based line number when known."""

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class UnsupportedFormat(LabError):
    """Recognized but unsupported file variant (e.g. pattern matrices)."""


class FileError(LabError):
    """File system level failure while reading or writing artifacts."""


def read_text(path) -> str:
    """The text of the file at ``path``, or :class:`FileError`."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path``, or raise :class:`FileError`."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from exc


def check_int(value, what: str, lo: int, hi=None) -> int:
    """``value`` as an int if it is an integer in ``lo..hi`` (``hi`` None:
    no upper end), else :class:`InvalidSpec`; ``true``, ``1.5`` and ``"3"``
    are refused alike.  Every depth, seed, trial count and size goes here."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
    need = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
    raise InvalidSpec(f"invalid {what} {value!r}: need an integer {need}")


def check_depth(k, n: int = MAX_DEPTH) -> int:
    """A depth in ``1..min(n, MAX_DEPTH)``, as :func:`check_int`."""
    return check_int(k, "depth", 1, min(n, MAX_DEPTH))
