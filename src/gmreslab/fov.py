"""Field of values: boundary sampling and distance to the origin.

The field of values of A is the set of Rayleigh quotients
``F(A) = { <Av, v> / <v, v> : v != 0 }``, a convex compact subset of the
complex plane.  Writing ``H(theta) = (e^{-i theta} A + e^{i theta} A^H)/2``
for the rotated Hermitian part, the extreme eigenvalues of ``H(theta)``
are the support function values of F(A) in direction ``theta``, and the
eigenvectors give boundary points.  The distance from the origin,

    nu(F(A)) = max(0, max_theta lambda_min(H(theta))),

is computed by a coarse angular scan refined by golden-section search.
``nu(F(A^{-1}))`` is the same scan applied to the inverse, which is formed
only where ``nu(F(A)) > 0`` guarantees ``||A^{-1}|| <= 1 / nu(F(A))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import dense_core
from .dense_core import as_matrix
from .errors import ZeroVector

__all__ = [
    "FovBoundary",
    "FovSummary",
    "NuResult",
    "rayleigh",
    "rotated_hermitian_part",
    "support_extremes",
    "fov_boundary",
    "nu_fov",
    "nu_fov_inverse",
    "fov_summary",
]

_TWO_PI = 2.0 * np.pi
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
# Angular resolution of the coarse support-function scan.
_SCAN_COUNT = 720
# Number of best coarse cells that receive golden-section refinement.
_REFINE_CELLS = 3
# Target angular width of the refined bracket.
_REFINE_WIDTH = 1e-10
# Two angles within this distance of each other tie on value; the smaller wins.
_TIE_EPS = 1e-14


@dataclass(frozen=True)
class FovBoundary:
    """Boundary sample of the field of values.

    angles
        The sampled support directions in ``[0, 2 pi)``.
    points
        Rayleigh quotients of the maximizing eigenvectors: boundary points.
    support_max, support_min
        Extreme eigenvalues of the rotated Hermitian part per angle.
    """

    angles: np.ndarray
    points: np.ndarray
    support_max: np.ndarray
    support_min: np.ndarray


class NuResult(NamedTuple):
    """Distance from the origin to F(A) with the maximizing direction."""

    value: float
    angle: float
    witness: Optional[np.ndarray]


@dataclass(frozen=True)
class FovSummary:
    """Field-of-values data consumed by the bound evaluations."""

    nu_a: float
    nu_ainv: float
    lambda_min_m: float
    argmin_angle: float
    witness_vector: Optional[np.ndarray]


def rayleigh(a, v) -> complex:
    """Rayleigh quotient ``<Av, v> / <v, v>`` (convention ``<x, y> = y^H x``)."""
    m = as_matrix(a)
    vec = np.asarray(v, dtype=np.complex128).ravel()
    if vec.shape[0] != m.shape[0]:
        raise ValueError("vector length does not match matrix order")
    denom = np.vdot(vec, vec)
    if denom.real == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    return complex(np.vdot(vec, m @ vec) / denom)


def rotated_hermitian_part(a, theta: float) -> np.ndarray:
    """``H(theta) = (e^{-i theta} A + e^{i theta} A^H) / 2``."""
    return dense_core.hermitian_part(np.exp(-1j * theta) * as_matrix(a))


def support_extremes(a, theta: float):
    """Extreme eigenpairs of the rotated Hermitian part.

    Returns ``(lambda_min, lambda_max, v_min, v_max)``.  ``lambda_max`` is the
    support function of F(A) in direction ``theta``; ``rayleigh(a, v_max)``
    is a boundary point of F(A).
    """
    spectrum = dense_core.eig_hermitian(rotated_hermitian_part(a, theta))
    return (
        float(spectrum.values[0]),
        float(spectrum.values[-1]),
        spectrum.vectors[:, 0],
        spectrum.vectors[:, -1],
    )


def _rotated_stack(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phases = np.exp(-1j * thetas)
    return 0.5 * (
        phases[:, None, None] * m[None, :, :]
        + np.conj(phases)[:, None, None] * m.conj().T[None, :, :]
    )


def _support_minima(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_min(H(theta)) for a batch of angles, chunked to bound memory."""
    n = m.shape[0]
    chunk = max(1, int(4e6 / max(n * n, 1)))
    out = np.empty(thetas.shape[0])
    for lo in range(0, thetas.shape[0], chunk):
        hi = min(lo + chunk, thetas.shape[0])
        out[lo:hi] = np.linalg.eigvalsh(_rotated_stack(m, thetas[lo:hi]))[:, 0]
    return out


def fov_boundary(a, m: int) -> FovBoundary:
    """Sample the boundary of F(A) at ``m`` equispaced support directions.

    ``m`` must be at least 8.  Points are Rayleigh quotients of the top
    eigenvectors of the rotated Hermitian parts, so they lie on the boundary
    up to eigensolver accuracy.
    """
    mat = as_matrix(a)
    if m < 8:
        raise ValueError("boundary sampling needs at least 8 angles")
    n = mat.shape[0]
    angles = _TWO_PI * np.arange(m) / m
    points = np.empty(m, dtype=np.complex128)
    support_max = np.empty(m)
    support_min = np.empty(m)
    chunk = max(1, int(4e6 / max(n * n, 1)))
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        values, vectors = np.linalg.eigh(_rotated_stack(mat, angles[lo:hi]))
        support_min[lo:hi] = values[:, 0]
        support_max[lo:hi] = values[:, -1]
        vmax = vectors[:, :, -1]
        av = vmax @ mat.T  # row i holds (A vmax_i)^T
        points[lo:hi] = np.sum(np.conj(vmax) * av, axis=1) / np.sum(
            np.abs(vmax) ** 2, axis=1
        )
    return FovBoundary(angles, points, support_max, support_min)


def _golden_max(fun, lo: float, hi: float, width: float):
    """Golden-section maximization on [lo, hi]; returns the best sample."""
    best_t = lo
    best_v = -np.inf

    def ev(t: float) -> float:
        nonlocal best_t, best_v
        v = fun(t)
        if v > best_v + _TIE_EPS or (abs(v - best_v) <= _TIE_EPS and t < best_t):
            best_t, best_v = t, v
        return v

    ev(lo)
    ev(hi)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = ev(c), ev(d)
    while (b - a) > width:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = ev(d)
    return best_t, best_v


def nu_fov(a) -> NuResult:
    """Distance from the origin to F(A).

    A coarse scan over 720 equispaced directions is refined by
    golden-section search inside the three best coarse cells down to an
    angular width of 1e-10.  Value ties within 1e-14 resolve to the smaller
    angle, which pins the result down deterministically.

    Returns ``NuResult(value, angle, witness)``.  When the origin lies in
    F(A) the value is 0 and there is no witness; otherwise the witness is a
    unit vector whose Rayleigh quotient has modulus ``value`` (up to
    first-order optimality of the refined angle).
    """
    mat = as_matrix(a)
    coarse = _TWO_PI * np.arange(_SCAN_COUNT) / _SCAN_COUNT
    g = _support_minima(mat, coarse)
    order = np.argsort(-g, kind="stable")[:_REFINE_CELLS]
    delta = _TWO_PI / _SCAN_COUNT

    def g_single(theta: float) -> float:
        return float(np.linalg.eigvalsh(rotated_hermitian_part(mat, theta))[0])

    best_angle = float(coarse[order[0]]) % _TWO_PI
    best_value = float(g[order[0]])
    for idx in order:
        center = float(coarse[idx])
        t, v = _golden_max(g_single, center - delta, center + delta, _REFINE_WIDTH)
        t = t % _TWO_PI
        if v > best_value + _TIE_EPS or (
            abs(v - best_value) <= _TIE_EPS and t < best_angle
        ):
            best_angle, best_value = t, v
    if best_value <= 0.0:
        return NuResult(0.0, best_angle, None)
    spectrum = dense_core.eig_hermitian(rotated_hermitian_part(mat, best_angle))
    return NuResult(best_value, best_angle, spectrum.vectors[:, 0])


def _nu_inverse(mat: np.ndarray, nu_a: float) -> float:
    """``nu(F(A^{-1}))`` given ``nu_a = nu(F(A))``.

    With ``w = A v``, ``w^H A^{-1} w = conj(v^H A v)``, so the origin lies in
    F(A^{-1}) exactly when it lies in F(A), and the value is 0.  A singular
    A has 0 in F(A) as well.  A ``nu_a`` at or below eigensolver rounding,
    ``n eps ||A||_F``, counts as 0; above it A is invertible with
    ``||A^{-1}|| <= 1 / nu_a``.
    """
    if nu_a <= mat.shape[0] * np.finfo(float).eps * np.linalg.norm(mat, "fro"):
        return 0.0
    return nu_fov(np.linalg.inv(mat)).value


def nu_fov_inverse(a) -> float:
    """``nu(F(A^{-1}))``; 0 when the origin lies in F(A), singular A included."""
    mat = as_matrix(a)
    return _nu_inverse(mat, nu_fov(mat).value)


def fov_summary(a) -> FovSummary:
    """Bundle the field-of-values quantities used by the bound evaluations."""
    mat = as_matrix(a)
    m_part = dense_core.hermitian_part(mat)
    lambda_min_m = float(dense_core.eig_hermitian(m_part).values[0])
    nu_a = nu_fov(mat)
    return FovSummary(
        nu_a=nu_a.value,
        nu_ainv=_nu_inverse(mat, nu_a.value),
        lambda_min_m=lambda_min_m,
        argmin_angle=nu_a.angle,
        witness_vector=nu_a.witness,
    )
