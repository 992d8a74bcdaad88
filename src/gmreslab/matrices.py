"""Built-in matrix families for experiments.

A :class:`MatrixSpec` is a JSON-friendly description (family name plus
parameters) that :func:`generate_matrix` turns into a dense complex array.
``_FAMILIES`` declares each family's builder and parameters; :func:`_checked`
refuses an unknown family and an undeclared, missing or bad parameter, for
both :meth:`MatrixSpec.from_dict` and :func:`generate_matrix`.  Random
families are reproducible from their seed.  Complex scalars in a spec are
finite and written either as plain numbers or as two-element ``[re, im]``
lists, since JSON has no complex literal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict

import numpy as np

from . import dense_core, mmio
from .errors import InvalidSpec, check_int

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
        params = {key: value for key, value in data.items() if key != "family"}
        spec = cls(family=data["family"], params=params)
        _checked(spec)
        return spec

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


def _as_scalars(value, what: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise InvalidSpec(f"{what} must be a non-empty list, got {value!r}")
    return np.asarray([_as_scalar(e, f"{what} entry") for e in value], np.complex128)


def _as_path(value, what: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidSpec(f"{what} must be a non-empty string, got {value!r}")
    return value


def _jordan(n: int, lam: complex) -> np.ndarray:
    return lam * np.eye(n, dtype=np.complex128) + np.eye(n, k=1, dtype=np.complex128)


def _bidiagonal(diag: np.ndarray, superdiag: complex) -> np.ndarray:
    return np.diag(diag) + superdiag * np.eye(len(diag), k=1, dtype=np.complex128)


def _random_pd_part(n: int, shift: complex, spread: complex, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
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


def _normal_random(n: int, seed: int) -> np.ndarray:
    """Random normal matrix: Haar-random unitary conjugation of a random
    complex diagonal."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0.0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    q = q * phases[None, :]
    return (q * lam[None, :]) @ q.conj().T


_SIZE = (partial(check_int, lo=1), None)
_SEED = (partial(check_int, lo=0), 0)
# family: (builder, {parameter: (check, default)}); the builder takes the
# checked values in declaration order, and a default of None marks a
# required parameter.
_FAMILIES = {
    "identity": (partial(np.eye, dtype=np.complex128), {"n": _SIZE}),
    "diagonal": (np.diag, {"entries": (_as_scalars, None)}),
    "jordan": (_jordan, {"n": _SIZE, "lam": (_as_scalar, 0)}),
    "bidiagonal": (
        _bidiagonal, {"diag": (_as_scalars, None), "superdiag": (_as_scalar, 0)}
    ),
    "random_pd_part": (_random_pd_part, {
        "n": _SIZE, "shift": (_as_scalar, 1.0), "spread": (_as_scalar, 0.5),
        "seed": _SEED,
    }),
    "normal_random": (_normal_random, {"n": _SIZE, "seed": _SEED}),
    "file": (mmio.read_matrix_market, {"path": (_as_path, None)}),
}
FAMILIES = tuple(_FAMILIES)


def _checked(spec: MatrixSpec) -> list:
    """The checked values of ``spec``'s parameters, defaults filled in, in
    declaration order; :class:`InvalidSpec` for an unknown family or an
    undeclared, missing or bad parameter."""
    if spec.family not in FAMILIES:
        raise InvalidSpec(
            f"unknown family {spec.family!r}; known families: {', '.join(FAMILIES)}"
        )
    declared = _FAMILIES[spec.family][1]
    unknown = sorted(set(spec.params) - set(declared))
    if unknown:
        raise InvalidSpec(f"unknown {spec.family} parameters: {unknown}")
    values = []
    for name, (check, default) in declared.items():
        if default is None and name not in spec.params:
            raise InvalidSpec(f"{spec.family} family needs a {name!r} parameter")
        values.append(check(spec.params.get(name, default), f"{name!r}"))
    return values


def generate_matrix(spec: MatrixSpec) -> np.ndarray:
    """Materialize a spec into a square complex matrix.

    Raises :class:`InvalidSpec` for malformed parameters and propagates
    file errors from the ``file`` family.
    """
    values = _checked(spec)
    return _FAMILIES[spec.family][0](*values)
