"""Exception types shared across the lab, and its integer checks."""

from numbers import Integral

# The deepest depth measured so far, not a conditioning limit: both solvers work
# in Arnoldi bases, whose conditioning does not grow with the depth.
MAX_DEPTH = 16

__all__ = [
    "MAX_DEPTH",
    "check_depth",
    "check_int",
    "LabError",
    "ZeroVector",
    "NoConvergence",
    "BudgetExceeded",
    "InvalidSpec",
    "ParseError",
    "UnsupportedFormat",
    "FileError",
]


class LabError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(LabError):
    """A vector argument that must be nonzero had norm zero."""


class NoConvergence(LabError):
    """An iterative kernel exhausted its iteration budget."""


class BudgetExceeded(LabError):
    """A solver or oracle was asked for more than its design budget covers."""


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
