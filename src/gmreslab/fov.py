"""Field of values: boundary sampling and distance to the origin.

The field of values of A is the set of Rayleigh quotients
``F(A) = { <Av, v> / <v, v> : v != 0 }``, a convex compact subset of the
complex plane.  With ``A = H + iS`` (H, S Hermitian), the top eigenvalue
of ``H(theta) = cos(theta) H + sin(theta) S`` is the support function of
F(A) in direction ``theta``.  ``fov_boundary`` forms each ``-H(theta)``
by one BLAS call and predicts its top eigenvector by Rayleigh-Ritz on the
last ones; one Cholesky factorization certifies it to ``_zero_tol``, and a
full eigensolve runs only where that fails.  The support value is
read off the boundary point, the lower one off the opposite angle of an
even grid; real A mirrors the angles past pi.  The distance from the origin,
``nu(F(A)) = max(0, max_theta lambda_min(H(theta)))``, is the Crawford
number of the pair (H, S); ``nu_fov`` finds it from start angles, which
stop at the first positive g, by one safeguarded step rule, Newton, else
the hull direction, else bisection, each eigensolve evaluating an angle
and its opposite, and brackets it by the hull of the Rayleigh quotients it
has seen.  ``nu(F(A^{-1}))`` is the same on the inverse of ``A / 2^e``,
formed only where ``nu(F(A)) > 0`` keeps it in range; ``fov_summary``
returns the two, the Starke bound's only field-of-values inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# Equispaced angles evaluated first by nu_fov, in opposite pairs, and its
# budget of eigensolves.
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
    upper: float


@dataclass(frozen=True)
class FovSummary:
    """Distances from the origin to F(A) and F(A^{-1}), the Starke bound's
    inputs."""

    nu_a: float
    nu_ainv: float


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
    x = lapack.zpotrs(factor, blas.zgemv(1.0, q, z[:, 0]), overwrite_b=1)[0]
    return x / np.sqrt(np.vdot(x, x).real)


def fov_boundary(a, m: int) -> FovBoundary:
    """Sample the boundary of F(A) at ``m >= 8`` equispaced directions.

    Each angle needs the top eigenvector v of ``H(theta)``: ``p = v^H A v``
    is the boundary point and ``support_max = Re(e^{-i theta} p)``.  The
    angles are walked in order, each forming ``-H(theta)`` in one buffer by
    one ``gemv`` over the stacked columns ``vec(H)``, ``vec(S)``.
    Rayleigh-Ritz on the span of the last 8 top eigenvectors gives ``ritz <=
    lambda_max``, a Cholesky factorization of ``(ritz + tau) I - H(theta)``
    in the buffer, ``tau = _zero_tol``, certifies ``lambda_max < ritz +
    tau``, and one inverse-iteration step with it gives v, whose
    ``support_max`` is at least ``ritz``.  Where it fails (too little
    history, a crossing of the top branch, a nearly double top eigenvalue)
    the buffer is formed again; there and at every angle when ``n <= 28``
    (the cheaper path there) one ``heevr`` call gives its lowest
    eigenvector.

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
    herm = dense_core.hermitian_part(mat)
    skew = dense_core.hermitian_part(-1j * mat)
    tol = _zero_tol(mat)
    grid = 2 * m if m % 2 else m
    angles = _TWO_PI * np.arange(grid) / grid
    cosines, sines = np.cos(angles), np.sin(angles)
    solved = grid // 2 + 1 if not mat.imag.any() else grid
    points = np.empty(grid, dtype=np.complex128)
    warm = n > _WARM_ORDER
    history = np.empty((n, _HISTORY), dtype=np.complex128, order="F")
    # -H(theta_j) is one gemv of the Fortran-ordered columns vec(H), vec(S)
    # with row j of weights, written into flat, the storage of neg
    stack = np.array([herm.ravel("F"), skew.ravel("F")]).T
    weights = -np.column_stack([cosines, sines]).astype(np.complex128)
    flat = np.empty(n * n, dtype=np.complex128)
    neg = flat.reshape((n, n), order="F")
    mat_f = np.asfortranarray(mat)

    for j in range(solved):
        blas.zgemv(1.0, stack, weights[j], y=flat, overwrite_y=1)
        v = None
        if warm and j:
            v = _warm_top_vector(neg, history[:, : min(j, _HISTORY)], tol)
            if v is None:  # the failed factorization overwrote neg
                blas.zgemv(1.0, stack, weights[j], y=flat, overwrite_y=1)
        if v is None:
            _, z, _, _, info = lapack.zheevr(neg, 1, "I", il=1, iu=1)
            if info != 0:
                raise NoConvergence(f"heevr failed with info = {info}")
            v = z[:, 0]
        points[j] = np.vdot(v, blas.zgemv(1.0, mat_f, v))
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
    if np.diff(args, append=args[0] + _TWO_PI).max() < np.pi:
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
    negative where g > 0, and two Rayleigh quotients for the hull.  As
    ``H(theta + pi) = -H(theta)``, its top eigenpair gives the same at
    ``theta + pi``: ``g = -lambda_n``, ``g' = -u_n^H H' u_n``, ``g'' =
    lambda_n - 2 sum_j |u_j^H H' u_n|^2 / (lambda_n - lambda_j)``.  The 8
    equispaced start angles take 4 eigensolves, at 0, pi/4, pi/2 and 3 pi/4,
    up to the first with g > 0, and the bracket is tested after each.  There
    F(A) lies within pi/2 of that angle in argument, so ``g = min_z |z|
    cos(theta - arg z)`` is concave where positive, with one maximum.  Then
    a Newton step from the best angle is taken if it stays inside the arc
    the evaluated angles leave around the maximum (pi either side if none);
    else the direction of the hull point nearest the origin (exact at the
    kinks of normal matrices), which may leave the arc, as g may have
    several local maxima where negative; else the arc's midpoint.  No angle
    is evaluated twice.  The value is 0 once the hull point is within
    ``_zero_tol``; the loop stops once ``upper - value <= _zero_tol``.  A
    value beyond the float range reads infinite.
    """
    scaled, e = dense_core.binary_scaled(as_matrix(a))
    nu = _nu_fov(scaled)
    back = dense_core.scaled_back
    return nu._replace(value=float(back(nu.value, e)), upper=float(back(nu.upper, e)))


def _nu_fov(mat: np.ndarray) -> NuResult:
    """``nu_fov`` of a matrix scaled by ``binary_scaled``, where the norm in
    ``_zero_tol`` and the squared distances of ``_hull_nearest`` stay in
    range.  The caller scales back.  At most ``_MAX_EVALS`` eigensolves,
    each of which evaluates an angle and its opposite.
    """
    herm = dense_core.hermitian_part(mat)
    skew = dense_core.hermitian_part(-1j * mat)
    tol = _zero_tol(mat)
    angles, points = [], []
    best = None  # (g, g', g'', angle) at the best angle

    def evaluate(theta: float) -> None:
        """g at theta from the bottom eigenpair of H(theta), and at theta +
        pi, where H = -H(theta), from the top one."""
        nonlocal best
        c, s = np.cos(theta), np.sin(theta)
        w, v = np.linalg.eigh(c * herm + s * skew)
        ends = v[:, [0, -1]]
        points.extend(np.sum(np.conj(ends) * (mat @ ends), axis=0))
        du = np.conj(v.T) @ ((c * skew - s * herm) @ ends)
        angles.extend((theta, theta + np.pi))
        for g, slope, gaps, cross, angle in (
            (w[0], du[0, 0].real, w[1:] - w[0], du[1:, 0], theta),
            (-w[-1], -du[-1, 1].real, w[-1] - w[:-1], du[:-1, 1], theta + np.pi),
        ):
            if best is None or g > best[0]:
                coupling = np.abs(cross[gaps > 0]) ** 2 / gaps[gaps > 0]
                best = (g, slope, -g - 2.0 * coupling.sum(), angle)

    starts = _TWO_PI * np.arange(_START_ANGLES // 2) / _START_ANGLES
    theta = starts[0]
    for count in range(1, _MAX_EVALS + 1):
        evaluate(theta)
        near = _hull_nearest(np.asarray(points))
        upper, theta_b = abs(near), best[3]
        if upper <= tol:
            return NuResult(0.0, theta_b % _TWO_PI, upper)
        if upper - best[0] <= tol or count == _MAX_EVALS:
            break
        if count < starts.size and best[0] <= 0.0:
            theta = starts[count]
            continue
        offsets = _wrap(np.asarray(angles) - theta_b)
        lo = 0.0 if best[1] > 0.0 else offsets[offsets < 0.0].max(initial=-np.pi)
        hi = 0.0 if best[1] < 0.0 else offsets[offsets > 0.0].min(initial=np.pi)
        steps = (-best[1] / best[2], _wrap(np.angle(near) - theta_b), 0.5 * (lo + hi))
        step = next((t for i, t in enumerate(steps) if (i == 1 or lo < t < hi)
                     and np.abs(_wrap(offsets - t)).min() > _ANGLE_EPS), None)
        if step is None:
            break
        theta = theta_b + step
    value = max(float(best[0]), 0.0)
    return NuResult(value, theta_b % _TWO_PI, max(upper, value))


def fov_summary(a) -> FovSummary:
    """``nu(F(A))`` and ``nu(F(A^{-1}))``, the lower ends of their brackets;
    :class:`InvalidSpec` where one of them leaves the float range."""
    scaled, e = dense_core.binary_scaled(as_matrix(a))
    nu = _nu_fov(scaled).value
    # (S, e) = binary_scaled(A): F(A) = 2^e F(S) and F(A^{-1}) = 2^-e F(S^{-1}).
    # As (Sv)^H S^{-1} (Sv) = conj(v^H S v), 0 lies in both or in neither (a
    # singular S included); beyond _zero_tol, ||S^{-1}|| <= 1 / nu(F(S)).
    nu_inv = nu_fov(np.linalg.inv(scaled)).value if nu > _zero_tol(scaled) else 0.0
    values = dense_core.scaled_back([nu, nu_inv], [e, -e])
    if not np.isfinite(values).all():
        raise InvalidSpec("a field-of-values value of A or A^-1 leaves the float range")
    return FovSummary(*values.tolist())
