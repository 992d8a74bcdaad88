"""Exception types shared across the lab, and its integer checks."""

from numbers import Integral

__all__ = [
    "is_int",
    "check_seed",
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


class InvalidSpec(LabError):
    """A matrix or experiment description failed validation."""


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


def is_int(value) -> bool:
    """True for integers, False for bools, floats, strings and the rest.

    Every integer field of a config goes through this check, so ``true``,
    ``1.5`` and ``"3"`` are rejected alike.
    """
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is a non-negative integer."""
    if not is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
