"""Built-in matrix families for experiments.

A :class:`MatrixSpec` is a JSON-friendly description (family name plus
parameters) that :func:`generate_matrix` turns into a dense complex array.
Random families are reproducible from their seed.  Complex scalars in a
spec are finite and written either as plain numbers or as two-element
``[re, im]`` lists, since JSON has no complex literal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from . import dense_core, mmio
from .errors import InvalidSpec, is_int

__all__ = ["MatrixSpec", "generate_matrix", "FAMILIES"]

@dataclass(frozen=True)
class MatrixSpec:
    """Family name plus family-specific parameters."""

    family: str
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixSpec":
        if not isinstance(data, dict):
            raise InvalidSpec("matrix spec must be an object")
        if "family" not in data:
            raise InvalidSpec("matrix spec is missing the 'family' key")
        family = data["family"]
        if family not in FAMILIES:
            raise InvalidSpec(
                f"unknown family {family!r}; known families: {', '.join(FAMILIES)}"
            )
        params = {key: value for key, value in data.items() if key != "family"}
        if "n" in params:
            _as_size(params)
        _as_seed(params)
        return cls(family=family, params=params)

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params}


def _as_scalar(value, what: str) -> complex:
    """A JSON number or ``[re, im]`` pair, finite and not ``true``/``false``."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise InvalidSpec(f"{what} must be a number or an [re, im] pair, got {value!r}")
    if not all(abs(x) <= sys.float_info.max for x in parts):  # nan fails too
        raise InvalidSpec(f"{what} must be finite, got {value!r}")
    return complex(*parts)


def _as_size(params: dict, key: str = "n") -> int:
    if key not in params:
        raise InvalidSpec(f"missing size parameter {key!r}")
    n = params[key]
    if not is_int(n) or n < 1:
        raise InvalidSpec(f"size {key!r} must be a positive integer, got {n!r}")
    return n


def _as_seed(params: dict) -> int:
    seed = params.get("seed", 0)
    if not is_int(seed) or seed < 0:
        raise InvalidSpec(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _identity(params: dict) -> np.ndarray:
    return np.eye(_as_size(params), dtype=np.complex128)


def _diagonal(params: dict) -> np.ndarray:
    entries = params.get("entries")
    if not isinstance(entries, (list, tuple)) or len(entries) == 0:
        raise InvalidSpec("diagonal family needs a non-empty 'entries' list")
    values = [_as_scalar(e, "diagonal entry") for e in entries]
    return np.diag(np.asarray(values, dtype=np.complex128))


def _jordan(params: dict) -> np.ndarray:
    n = _as_size(params)
    lam = _as_scalar(params.get("lam", 0), "'lam'")
    return lam * np.eye(n, dtype=np.complex128) + np.eye(n, k=1, dtype=np.complex128)


def _bidiagonal(params: dict) -> np.ndarray:
    diag = params.get("diag")
    if not isinstance(diag, (list, tuple)) or len(diag) == 0:
        raise InvalidSpec("bidiagonal family needs a non-empty 'diag' list")
    values = np.asarray(
        [_as_scalar(e, "diagonal entry") for e in diag], dtype=np.complex128
    )
    superdiag = _as_scalar(params.get("superdiag", 0), "'superdiag'")
    a = np.diag(values)
    n = len(values)
    a += superdiag * np.eye(n, k=1, dtype=np.complex128)
    return a


def _random_pd_part(params: dict) -> np.ndarray:
    n = _as_size(params)
    shift = _as_scalar(params.get("shift", 1.0), "'shift'")
    spread = _as_scalar(params.get("spread", 0.5), "'spread'")
    rng = np.random.default_rng(_as_seed(params))
    eye = np.eye(n, dtype=np.complex128)
    for _ in range(100):
        g = (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / np.sqrt(2.0 * n)
        with np.errstate(over="ignore", invalid="ignore"):
            a = shift * eye + spread * g
        if not np.isfinite(a).all():
            raise InvalidSpec("random_pd_part draw overflows; decrease shift or spread")
        m_part = dense_core.hermitian_part(a)
        if float(np.linalg.eigvalsh(m_part)[0]) > 0.0:
            return a
    raise InvalidSpec(
        "random_pd_part rejected 100 draws; increase shift or decrease spread"
    )


def _normal_random(params: dict) -> np.ndarray:
    """Random normal matrix: Haar-random unitary conjugation of a random
    complex diagonal."""
    n = _as_size(params)
    rng = np.random.default_rng(_as_seed(params))
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0.0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    q = q * phases[None, :]
    return (q * lam[None, :]) @ q.conj().T


def _from_file(params: dict) -> np.ndarray:
    path = params.get("path")
    if not isinstance(path, str) or not path:
        raise InvalidSpec("file family needs a 'path' string")
    return mmio.read_matrix_market(path)


_BUILDERS = {
    "identity": _identity,
    "diagonal": _diagonal,
    "jordan": _jordan,
    "bidiagonal": _bidiagonal,
    "random_pd_part": _random_pd_part,
    "normal_random": _normal_random,
    "file": _from_file,
}
FAMILIES = tuple(_BUILDERS)


def generate_matrix(spec: MatrixSpec) -> np.ndarray:
    """Materialize a spec into a square complex matrix.

    Raises :class:`InvalidSpec` for malformed parameters and propagates
    file errors from the ``file`` family.
    """
    if spec.family not in _BUILDERS:
        raise InvalidSpec(f"unknown family {spec.family!r}")
    return _BUILDERS[spec.family](dict(spec.params))
