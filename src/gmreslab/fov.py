"""Field of values: boundary sampling and distance to the origin.

The field of values of A is the set of Rayleigh quotients
``F(A) = { <Av, v> / <v, v> : v != 0 }``, a convex compact subset of the
complex plane.  With ``A = H + iS`` (H, S Hermitian), the top eigenvalue
of ``H(theta) = cos(theta) H + sin(theta) S`` is the support function of
F(A) in direction ``theta``.  ``fov_boundary`` writes each ``-H(theta)``
in place into one buffer and predicts its top eigenvector by Rayleigh-Ritz
on the last ones; one Cholesky factorization certifies it to ``_zero_tol``,
and a full eigensolve runs only where that fails.  The support value is
read off the boundary point, the lower one off the opposite angle of an
even grid; real A mirrors the angles past pi.  The distance from the origin,
``nu(F(A)) = max(0, max_theta lambda_min(H(theta)))``, is the Crawford
number of the pair (H, S); ``nu_fov`` finds it by safeguarded Newton steps
on the concave part and brackets it by the hull of the Rayleigh quotients
it has seen.  ``nu(F(A^{-1}))`` is the same on the inverse of ``A / 2^e``,
formed only where ``nu(F(A)) > 0`` keeps it in range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import blas, lapack

from . import dense_core
from .dense_core import as_matrix
from .errors import InvalidSpec, NoConvergence, check_int

__all__ = [
    "FovBoundary",
    "FovSummary",
    "NuResult",
    "fov_boundary",
    "nu_fov",
    "fov_summary",
]

_TWO_PI = 2.0 * np.pi
# Multiple of n eps ||A||_F up to which a distance from the origin is rounding.
_ZERO_FACTOR = 4.0
# Equispaced angles evaluated first by nu_fov, and its evaluation budget.
_START_ANGLES = 8
_MAX_EVALS = 64
# Offsets closer than this to an evaluated angle count as evaluated.
_ANGLE_EPS = 8.0 * np.spacing(2.0 * np.pi)
# Top eigenvectors of the last angles whose span predicts the next one.
_HISTORY = 8
# Orders above which the warm start beats one heevr per angle: its five
# LAPACK calls and their glue cost about 50 us per angle whatever n, and the
# two break even at n = 28.
_WARM_ORDER = 28


@dataclass(frozen=True)
class FovBoundary:
    """Boundary sample of F(A) at the support directions ``angles`` in
    ``[0, 2 pi)``: ``points`` are the Rayleigh quotients of the top
    eigenvectors, boundary points; ``support_max`` and ``support_min`` are
    the extreme eigenvalues of the rotated Hermitian part per angle."""

    angles: np.ndarray
    points: np.ndarray
    support_max: np.ndarray
    support_min: np.ndarray


class NuResult(NamedTuple):
    """Bracket ``value <= nu(F(A)) <= upper`` and the best direction.

    ``value`` is the largest ``lambda_min(H(theta))`` over the evaluated
    angles (0 if none is positive or ``upper`` is rounding); ``upper`` is the
    distance from 0 to the hull of the evaluated Rayleigh quotients.
    """

    value: float
    angle: float
    witness: Optional[np.ndarray]
    upper: float


@dataclass(frozen=True)
class FovSummary:
    """Field-of-values data consumed by the bound evaluations."""

    nu_a: float
    nu_ainv: float
    lambda_min_m: float
    witness_vector: Optional[np.ndarray]


def _warm_top_vector(neg: np.ndarray, history: np.ndarray, tol: float):
    """Top eigenvector of ``h = -neg`` from the span of ``history``, or None.

    Rayleigh-Ritz on the span gives a Ritz value ``ritz <= lambda_max(h)``.
    A Cholesky factor of ``(ritz + tol) I - h``, formed in ``neg``, proves
    ``lambda_max < ritz + tol``, and one inverse-iteration step with it
    refines the Ritz vector, whose Rayleigh quotient can only rise.  Returns
    that unit vector, or None when the factorization fails.
    """
    q = lapack.zungqr(*lapack.zgeqrf(history)[:2], overwrite_a=1)[0]
    k = q.shape[1]
    ritz = blas.zgemm(-1.0, q, neg @ q, trans_a=2)
    w, z, _, _, info = lapack.zheevx(ritz, 1, "I", il=k, iu=k, overwrite_a=1)
    if info != 0:
        return None
    neg.flat[:: neg.shape[0] + 1] += w[0] + tol
    factor, info = lapack.zpotrf(neg, clean=0, overwrite_a=1)
    if info != 0:
        return None
    x = lapack.zpotrs(factor, q @ z, overwrite_b=1)[0][:, 0]
    return x / np.sqrt(np.vdot(x, x).real)


def fov_boundary(a, m: int) -> FovBoundary:
    """Sample the boundary of F(A) at ``m >= 8`` equispaced directions.

    Each angle needs the top eigenvector v of ``H(theta)``: ``p = v^H A v``
    is the boundary point and ``support_max = Re(e^{-i theta} p)``.  The
    angles are walked in order, each writing ``-H(theta)`` in place into one
    buffer.  Rayleigh-Ritz on the span of the last 8 top eigenvectors gives
    ``ritz <= lambda_max``, a Cholesky factorization of ``(ritz + tau) I -
    H(theta)`` in the buffer, ``tau = _zero_tol``, certifies ``lambda_max <
    ritz + tau``, and one inverse-iteration step with it gives v, whose
    ``support_max`` is at least ``ritz``.  Where it fails (too little
    history, a crossing of the top branch, a nearly double top eigenvalue)
    and at every angle when ``n <= 28`` (the cheaper path there), the buffer
    is formed again and one ``heevr`` call gives its lowest eigenvector.

    The walk is over an even grid, ``m`` angles for an even ``m`` and ``2m``
    for an odd one, of which every other angle is returned.  As ``H(theta +
    pi) = -H(theta)``, ``support_min`` is read off the opposite angle.  For
    real A, ``H(2 pi - theta) = conj(H(theta))``: only the angles up to pi
    are solved, the rest mirrored (the point conjugated).  Raises
    :class:`InvalidSpec` where a value leaves the float range.
    """
    mat = as_matrix(a)
    m = check_int(m, "samples", 8)
    n = mat.shape[0]
    # an exact power-of-two scale keeps the inverse iteration in range
    mat, e = dense_core.binary_scaled(mat)
    herm = np.asfortranarray(dense_core.hermitian_part(mat))
    skew = np.asfortranarray(dense_core.hermitian_part(-1j * mat))
    tol = _zero_tol(mat)
    grid = 2 * m if m % 2 else m
    angles = _TWO_PI * np.arange(grid) / grid
    cosines, sines = np.cos(angles), np.sin(angles)
    solved = grid // 2 + 1 if not mat.imag.any() else grid
    points = np.empty(grid, dtype=np.complex128)
    warm = n > _WARM_ORDER
    history = np.empty((n, _HISTORY), dtype=np.complex128, order="F")
    neg, term = (np.empty((n, n), dtype=np.complex128, order="F") for _ in range(2))

    def negated(j: int) -> np.ndarray:  # -H(theta_j), written into neg
        np.multiply(herm, -cosines[j], out=neg)
        return np.subtract(neg, np.multiply(skew, sines[j], out=term), out=neg)

    for j in range(solved):
        negated(j)
        v = None
        if warm and j:
            v = _warm_top_vector(neg, history[:, : min(j, _HISTORY)], tol)
        if v is None:  # after a failed factorization, form the buffer again
            h = negated(j) if warm and j else neg
            _, z, _, _, info = lapack.zheevr(h, 1, "I", il=1, iu=1)
            if info != 0:
                raise NoConvergence(f"heevr failed with info = {info}")
            v = z[:, 0]
        points[j] = np.vdot(v, mat @ v)
        # Rayleigh-Ritz needs the span of the history, not its order
        history[:, j % _HISTORY] = v
    points[solved:] = np.conj(points[grid - solved : 0 : -1])
    support_max = cosines * points.real + sines * points.imag
    support_min = -np.roll(support_max, -(grid // 2))
    parts = dense_core.scaled_back([points.real, points.imag, support_max, support_min], e)
    angles, values = angles[:: grid // m], parts[:, :: grid // m]
    if not np.isfinite(values).all():
        raise InvalidSpec("a field-of-values value on the boundary leaves the float range")
    return FovBoundary(angles, values[0] + 1j * values[1], values[2], values[3])


def _zero_tol(mat: np.ndarray) -> float:
    """Distance from the origin up to which F(A) counts as touching it."""
    return _ZERO_FACTOR * mat.shape[0] * np.finfo(float).eps * np.linalg.norm(mat)


def _wrap(theta):
    """Angles reduced to ``[-pi, pi)``."""
    return (theta + np.pi) % _TWO_PI - np.pi


def _hull_nearest(points: np.ndarray) -> complex:
    """Point of the convex hull of ``points`` nearest to the origin."""
    args = np.sort(np.angle(points))
    if np.any(points == 0) or np.diff(args, append=args[0] + _TWO_PI).max() < np.pi:
        return 0j  # the arguments leave no gap of pi: the origin is inside
    a, b = points[:, None], points[None, :]
    d = b - a
    length = np.where(a != b, np.abs(d) ** 2, 1.0)
    t = -(np.conj(d) * a).real / length
    # the foot inside a segment from the cross product keeps its direction exact
    foot = 1j * d * (np.conj(d) * a).imag / length
    near = np.where(t <= 0.0, a, np.where(t >= 1.0, b, foot)).ravel()
    return complex(near[np.argmin(np.abs(near))])


def nu_fov(a) -> NuResult:
    """Distance from the origin to F(A), bracketed.

    One eigensolve of ``H(theta)`` gives ``g = lambda_min``, ``g' = u^H H' u``
    and ``g'' = -g + 2 sum_j |u_j^H H' u|^2 / (g - lambda_j)`` (``H'' = -H``),
    negative where g > 0, and two Rayleigh quotients for the hull.  After 8
    equispaced angles, while no g is positive, the next angle points to the
    hull point nearest the origin; the value is 0 once that point is within
    ``_zero_tol``.  Then Newton steps from the best angle stay inside the
    arc that the evaluated angles leave around the maximum; a Newton point
    outside it gives way to the hull direction (exact at the kinks of normal
    matrices), that to bisection.  The loop stops once ``upper - value <=
    _zero_tol``.  The witness is the best angle's eigenvector.  A value
    beyond the float range reads infinite.
    """
    scaled, e = dense_core.binary_scaled(as_matrix(a))
    nu = _nu_fov(scaled)[0]
    back = dense_core.scaled_back
    return nu._replace(value=float(back(nu.value, e)), upper=float(back(nu.upper, e)))


def _nu_fov(mat: np.ndarray):
    """``nu_fov`` and ``lambda_min`` of the Hermitian part, its first
    evaluation (``theta = 0``), of a matrix scaled by ``binary_scaled``,
    where the norm in ``_zero_tol`` and the squared distances of
    ``_hull_nearest`` stay in range.  The caller scales back.
    """
    herm = dense_core.hermitian_part(mat)
    skew = dense_core.hermitian_part(-1j * mat)
    tol = _zero_tol(mat)
    angles, points = [], []
    best = None  # (g, g', g'', eigenvector, angle) at the best angle

    def evaluate(theta: float) -> float:
        nonlocal best
        c, s = np.cos(theta), np.sin(theta)
        w, v = np.linalg.eigh(c * herm + s * skew)
        ends = v[:, [0, -1]]
        points.extend(np.sum(np.conj(ends) * (mat @ ends), axis=0))
        du = np.conj(v.T) @ ((c * skew - s * herm) @ v[:, 0])
        gaps = w[1:] - w[0]
        coupling = np.abs(du[1:][gaps > 0]) ** 2 / gaps[gaps > 0]
        angles.append(theta)
        if best is None or w[0] > best[0]:
            best = (w[0], du[0].real, -w[0] - 2.0 * coupling.sum(), v[:, 0], theta)
        return float(w[0])

    starts = _TWO_PI * np.arange(_START_ANGLES) / _START_ANGLES
    lambda_min_h = evaluate(starts[0])
    for theta in starts[1:]:
        evaluate(theta)
    while True:
        near = _hull_nearest(np.asarray(points))
        upper, theta_b = abs(near), best[4]
        if upper <= tol:
            return NuResult(0.0, theta_b % _TWO_PI, None, upper), lambda_min_h
        if best[0] > 0.0 and upper - best[0] <= tol or len(angles) >= _MAX_EVALS:
            break
        if best[0] <= 0.0:
            evaluate(float(np.angle(near)))
            continue
        offsets = _wrap(np.asarray(angles) - theta_b)
        lo = 0.0 if best[1] > 0.0 else offsets[offsets < 0.0].max()
        hi = 0.0 if best[1] < 0.0 else offsets[offsets > 0.0].min()
        steps = (-best[1] / best[2], _wrap(np.angle(near) - theta_b), 0.5 * (lo + hi))
        step = next((t for t in steps if lo + _ANGLE_EPS < t < hi - _ANGLE_EPS
                     and abs(t) > _ANGLE_EPS), None)
        if step is None:
            break
        evaluate(theta_b + step)
    value = max(float(best[0]), 0.0)
    witness = best[3] if value > 0.0 else None
    upper = max(upper, value)
    return NuResult(value, theta_b % _TWO_PI, witness, upper), lambda_min_h


def _nu_inverse(scaled: np.ndarray, nu_s: float) -> float:
    """``nu(F(S^{-1}))`` given ``nu_s = nu(F(S))``, S a binary-scaled A.

    With ``w = S v``, ``w^H S^{-1} w = conj(v^H S v)``, so the origin lies in
    F(S^{-1}) exactly when it lies in F(S), and the value is 0.  A singular
    S has 0 in F(S) as well.  A ``nu_s`` within ``_zero_tol``, as in
    ``nu_fov``, counts as 0; above it ``||S^{-1}|| <= 1 / nu_s``, so the
    inverse of S stays in range where that of A may not.
    """
    if nu_s <= _zero_tol(scaled):
        return 0.0
    return nu_fov(np.linalg.inv(scaled)).value


def fov_summary(a) -> FovSummary:
    """Bundle the field-of-values quantities used by the bound evaluations;
    :class:`InvalidSpec` where one of them leaves the float range."""
    scaled, e = dense_core.binary_scaled(as_matrix(a))
    nu, lambda_min_h = _nu_fov(scaled)
    # (S, e) = binary_scaled(A): F(A) = 2^e F(S) and F(A^{-1}) = 2^-e F(S^{-1})
    values = dense_core.scaled_back(
        [nu.value, _nu_inverse(scaled, nu.value), lambda_min_h], [e, -e, e]
    )
    if not np.isfinite(values).all():
        raise InvalidSpec("a field-of-values value of A or A^-1 leaves the float range")
    return FovSummary(*values.tolist(), witness_vector=nu.witness)
