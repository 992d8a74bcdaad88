"""Independent reference computations used by the tests.

Everything here is deliberately written against different machinery than
the package: hull geometry instead of support-function duality, explicit
equioscillation solves instead of numerical minimization, Givens rotations
on the Arnoldi Hessenberg matrix, dense least squares and a closed-form
one-step damping instead of the package's batched kernel, which projects
the residual off its Arnoldi directions, a generalized
Hermitian eigenproblem instead of an explicit inverse, an angular scan
with golden-section refinement instead of Newton steps on the support
function, a product of root factors in Leja order for a residual
polynomial instead of the ideal solver's Arnoldi recurrence, and 40-digit
``mpmath`` arithmetic on the monomial Krylov basis to referee the ideal
solver's bracket.  Two
small helpers that the package no longer needs live here as well: the
Rayleigh quotient and ``nu(F(A^{-1}))`` on its own.
"""

from typing import NamedTuple, Optional

import mpmath
import numpy as np
from scipy.linalg import eigh
from scipy.spatial import ConvexHull, QhullError

from gmreslab import fov
from gmreslab.dense_core import as_matrix
from gmreslab.errors import ZeroVector


def polynomial_from_roots(a, roots) -> np.ndarray:
    """``p(A) = prod_i (I - A / theta_i)`` for ``roots = theta_1 ..
    theta_r``; an empty list gives the identity.  The factors go in Leja
    order (Reichel, BIT 1990): the root of largest modulus first, then each
    time the one whose product of distances to those already taken is
    largest, which keeps the partial products from growing or cancelling."""
    m = as_matrix(a)
    left = list(np.asarray(roots, dtype=np.complex128).ravel())
    taken = []
    while left:
        score = [np.prod(np.abs(t - np.array(taken))) if taken else abs(t) for t in left]
        taken.append(left.pop(int(np.argmax(score))))
    p = np.eye(m.shape[0], dtype=np.complex128)
    for theta in taken:
        p = p - (m @ p) / theta
    return p


def _mp_matrix(a) -> mpmath.matrix:
    """A complex array as an ``mpmath`` matrix, every entry taken exactly."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])


def polynomial_norm_mp(a, roots, dps=40) -> float:
    """``||prod_i (I - A / theta_i)||_2`` in ``dps``-digit arithmetic, by
    ``mpmath.svd_c``, with the entries of A and the roots taken exactly: the
    norm of the polynomial that the roots give, rounded once."""
    with mpmath.workdps(dps):
        m = _mp_matrix(a)
        eye = mpmath.eye(m.rows)
        p = eye
        for t in np.asarray(roots, dtype=np.complex128).ravel():
            p = p * (eye - m / mpmath.mpc(t.real, t.imag))
        return float(max(mpmath.svd_c(p, compute_uv=False)))


def gmres_ratio_mp(a, block, k, dps=40) -> float:
    """``min over c of ||B + sum_j c_j A^j B||_F / ||B||_F``, j = 1..k, in
    ``dps``-digit arithmetic: the normal equations of the monomial Krylov
    columns ``vec(A^j B)``, whose squared condition stays far inside 40
    digits at the orders and depths of the tests.  A lower bound on the
    ideal value for every block B."""
    with mpmath.workdps(dps):
        m = _mp_matrix(a)
        powers = [_mp_matrix(np.reshape(block, (len(block), -1)))]
        for _ in range(k):
            powers.append(m * powers[-1])
        vecs = mpmath.matrix([[x[i, j] for i in range(x.rows) for j in range(x.cols)]
                              for x in powers]).T
        rhs, kry = vecs[:, 0], vecs[:, 1:]
        c = mpmath.lu_solve(kry.H * kry, -(kry.H * rhs))
        return float(mpmath.norm(rhs + kry * c) / mpmath.norm(rhs))


def point_segment_distance(p, a, b):
    """Distance from point p to the segment [a, b], all 2-vectors."""
    p, a, b = np.asarray(p, float), np.asarray(a, float), np.asarray(b, float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def hull_distance(points):
    """Distance from the origin to the convex hull of complex samples."""
    pts = np.asarray(points, dtype=np.complex128).ravel()
    xy = np.column_stack([pts.real, pts.imag])
    spread = xy - xy.mean(axis=0)
    scale = float(np.abs(spread).max())
    if scale < 1e-14:  # all samples coincide
        return float(np.linalg.norm(xy[0]))
    if np.linalg.matrix_rank(spread, tol=1e-12 * scale) < 2:
        # collinear: hull is the segment between the extreme projections
        direction = np.linalg.svd(spread)[2][0]
        t = xy @ direction
        lo, hi = xy[np.argmin(t)], xy[np.argmax(t)]
        return point_segment_distance((0.0, 0.0), lo, hi)
    try:
        hull = ConvexHull(xy)
    except QhullError:
        # nearly degenerate: fall back to the widest segment
        direction = np.linalg.svd(spread)[2][0]
        t = xy @ direction
        return point_segment_distance((0.0, 0.0), xy[np.argmin(t)], xy[np.argmax(t)])
    # facet equations are A x + b <= 0 inside; at the origin only b remains
    if np.all(hull.equations[:, 2] <= 1e-12):
        return 0.0
    verts = hull.points[hull.vertices]
    m = len(verts)
    return min(
        point_segment_distance((0.0, 0.0), verts[i], verts[(i + 1) % m])
        for i in range(m)
    )


def equioscillation_two_points():
    """min over alpha of max(|1 - alpha|, |1 - 2 alpha|) solved exactly.

    The optimum equalizes both terms with opposite signs:
    1 - alpha = -(1 - 2 alpha)  =>  alpha = 2/3, value 1/3.
    """
    alpha = np.linalg.solve(np.array([[3.0]]), np.array([2.0]))[0]
    return max(abs(1.0 - alpha), abs(1.0 - 2.0 * alpha)), alpha


def equioscillation_three_points():
    """Degree-2 alternation on {1,2,3}: p(1) = -p(2) = p(3) = s.

    Solving [1 + a + b, 1 + 2a + 4b, 1 + 3a + 9b] = [s, -s, s] gives
    a = -8/7, b = 2/7, s = 1/7.
    """
    lhs = np.array(
        [
            [1.0, 1.0, -1.0],
            [2.0, 4.0, 1.0],
            [3.0, 9.0, -1.0],
        ]
    )
    a, b, s = np.linalg.solve(lhs, -np.ones(3))
    value = max(abs(1 + a * z + b * z * z) for z in (1.0, 2.0, 3.0))
    assert abs(value - abs(s)) < 1e-14
    return value, np.array([a, b])


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


def nu_fov_inverse(a) -> float:
    """``nu(F(A^{-1}))`` by the public ``nu_fov`` on the inverse of A itself,
    not of ``fov_summary``'s binary-scaled one.  0 where ``nu_fov(A)`` is 0:
    the origin then lies in F(A), so in F(A^{-1}), and a singular A has no
    inverse to form."""
    mat = as_matrix(a)
    if fov.nu_fov(mat).value == 0.0:
        return 0.0
    return fov.nu_fov(np.linalg.inv(mat)).value


def rayleigh_cloud(a, count, seed):
    """Random Rayleigh quotients; every one lies inside the field of values."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    block /= np.linalg.norm(block, axis=0)
    return np.sum(np.conj(block) * (a @ block), axis=0)


class ArnoldiDecomposition(NamedTuple):
    """Arnoldi relation A V_m = V_{m+1} Hbar.

    ``v`` holds the orthonormal basis columns, ``hbar`` the (m+1) x m
    upper Hessenberg data.  On lucky breakdown at step j the process stops
    with j basis columns, a (j+1) x j Hessenberg block whose last subdiagonal
    entry is exact zero, and ``breakdown_step = j``.
    """

    v: np.ndarray
    hbar: np.ndarray
    m: int
    breakdown_step: Optional[int]


def arnoldi(a, r0, m, breakdown=1e-13):
    """m steps of Arnoldi with modified Gram-Schmidt and one
    reorthogonalization pass; breakdown when the candidate basis vector has
    norm at most ``breakdown * ||A||_2``."""
    mat = np.asarray(a, dtype=np.complex128)
    start = np.asarray(r0, dtype=np.complex128).ravel()
    norm0 = float(np.linalg.norm(start))
    if norm0 == 0.0:
        raise ValueError("Arnoldi start vector is zero")
    floor = breakdown * float(np.linalg.norm(mat, 2))
    basis = [start / norm0]
    hbar = np.zeros((m + 1, m), dtype=np.complex128)
    for j in range(m):
        w = mat @ basis[j]
        for _ in range(2):
            for i in range(j + 1):
                hij = np.vdot(basis[i], w)
                w = w - hij * basis[i]
                hbar[i, j] += hij
        h_next = float(np.linalg.norm(w))
        if h_next <= floor:
            return ArnoldiDecomposition(
                np.column_stack(basis), hbar[: j + 2, : j + 1], j + 1, j + 1
            )
        hbar[j + 1, j] = h_next
        basis.append(w / h_next)
    return ArnoldiDecomposition(np.column_stack(basis), hbar, m, None)


def _givens(a, b):
    """Unitary rotation G = [[c, s], [-conj(s), conj(c)]] with G [a, b]^T = [r, 0]^T."""
    if b == 0:
        return 1.0 + 0.0j, 0.0 + 0.0j
    r = np.hypot(abs(a), abs(b))
    return np.conj(a) / r, np.conj(b) / r


def gmres_givens(a, r0, kmax):
    """GMRES ratios ``||r_j|| / ||r_0||`` for j = 0..kmax from Arnoldi plus
    Givens rotations on the Hessenberg least-squares problem, padded with
    the last ratio after a breakdown: exact zeros after a lucky one.  At a
    breakdown of a singular A the rotated diagonal entry of H is at rounding
    level (at most Arnoldi's breakdown floor), the last row of the
    triangular system is zero, and the ratio stays where it was."""
    start = np.asarray(r0, dtype=np.complex128).ravel()
    norm0 = float(np.linalg.norm(start))
    floor = 1e-13 * float(np.linalg.norm(np.asarray(a), 2))
    dec = arnoldi(a, start, kmax)
    steps = dec.hbar.shape[1]
    h = dec.hbar.copy()
    g = np.zeros(steps + 1, dtype=np.complex128)
    g[0] = norm0
    cs = np.zeros(steps, dtype=np.complex128)
    sn = np.zeros(steps, dtype=np.complex128)
    ratios = [1.0]
    for j in range(steps):
        for i in range(j):
            t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
            h[i + 1, j] = -np.conj(sn[i]) * h[i, j] + np.conj(cs[i]) * h[i + 1, j]
            h[i, j] = t
        cs[j], sn[j] = _givens(h[j, j], h[j + 1, j])
        h[j, j] = cs[j] * h[j, j] + sn[j] * h[j + 1, j]
        h[j + 1, j] = 0.0
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] = cs[j] * g[j]
        ratios.append(float(abs(g[j + 1])) / norm0 if abs(h[j, j]) > floor else ratios[-1])
    ratios += ratios[-1:] * (kmax + 1 - len(ratios))
    return np.asarray(ratios)


def min_residual_lstsq(a, v, k):
    """``min over p in pi_k of ||p(A) v|| / ||v||`` by an SVD least-squares
    solve on the unit-scaled Krylov block ``[Av .. A^k v]``.

    Returns ``(value, coefficients)`` with ``coefficients`` holding
    ``c_1 .. c_k`` of the optimal ``p(z) = 1 + c_1 z + ... + c_k z^k``.
    """
    mat = np.asarray(a, dtype=np.complex128)
    vec = np.asarray(v, dtype=np.complex128).ravel()
    norm_v = float(np.linalg.norm(vec))
    if norm_v == 0.0:
        raise ValueError("cannot minimize the residual of the zero vector")
    cols = []
    w = vec
    for _ in range(k):
        w = mat @ w
        cols.append(w)
    krylov = np.column_stack(cols)
    scales = np.linalg.norm(krylov, axis=0)
    safe = np.where(scales > 0.0, scales, 1.0)
    scaled = krylov / safe
    d, *_ = np.linalg.lstsq(scaled, -vec, rcond=None)
    return float(np.linalg.norm(vec + scaled @ d)) / norm_v, d / safe



class OneStepResult(NamedTuple):
    """Optimal single-step damping for one vector."""

    alpha_star: complex
    residual_ratio: float


def optimal_alpha(a, v):
    """Optimal one-step damping ``alpha* = (Av)^H v / ||Av||^2`` in closed form.

    Returns the minimizer of ``||v - alpha A v||`` over complex alpha together
    with the attained residual ratio

        sqrt(1 - |<Av, v>|^2 / (||Av||^2 ||v||^2)).

    Raises ``ValueError`` for ``v = 0`` and when ``A v = 0``.
    """
    mat = np.asarray(a, dtype=np.complex128)
    vec = np.asarray(v, dtype=np.complex128).ravel()
    norm_v = float(np.linalg.norm(vec))
    if norm_v == 0.0:
        raise ValueError("one-step damping of the zero vector")
    image = mat @ vec
    norm_image_sq = float(np.vdot(image, image).real)
    if norm_image_sq == 0.0:
        raise ValueError("A v is zero; no damping step exists")
    alpha = complex(np.vdot(image, vec) / norm_image_sq)
    overlap = abs(np.vdot(vec, image)) ** 2 / (norm_image_sq * norm_v**2)
    return OneStepResult(alpha, float(np.sqrt(max(0.0, 1.0 - overlap))))


def nu_scan(a, angles=720, cells=3, width=1e-10):
    """``nu(F(A))`` by brute force: ``lambda_min`` of the rotated Hermitian
    part on an equispaced angle grid, then golden-section search across the
    two grid cells around each of the ``cells`` best angles down to an
    angular ``width``.  The best value found bounds the supremum from below.
    """
    mat = np.asarray(a, dtype=np.complex128)

    def lam_min(thetas):
        rotated = np.exp(-1j * np.asarray(thetas))[..., None, None] * mat
        herm = 0.5 * (rotated + np.swapaxes(rotated.conj(), -1, -2))
        return np.linalg.eigvalsh(herm)[..., 0]

    step = 2.0 * np.pi / angles
    grid = step * np.arange(angles)
    coarse = lam_min(grid)
    best = float(coarse.max())
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    for center in grid[np.argsort(-coarse)[:cells]]:
        lo, hi = center - step, center + step
        c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        fc, fd = lam_min([c, d])
        while hi - lo > width:
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - shrink * (hi - lo)
                fc = lam_min(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + shrink * (hi - lo)
                fd = lam_min(d)
            best = max(best, float(fc), float(fd))
    return max(best, 0.0)


def nu_inverse_pencil(a, angles=720, fine=401):
    """``nu(F(A^{-1}))`` without forming the inverse, on an angle grid.

    With v = A w, ``v^H H_theta(A^{-1}) v / v^H v`` equals
    ``w^H H_{-theta}(A) w / w^H A^H A w``, so lambda_min of the rotated
    Hermitian part of the inverse is the smallest eigenvalue of the pencil
    (H_{-theta}(A), A^H A).  A coarse grid is followed by a fine grid across
    the two cells around its best angle; the grid maximum is a lower bound
    on the supremum over theta.
    """
    mat = np.asarray(a, dtype=np.complex128)
    gram = mat.conj().T @ mat

    def lam_min(theta):
        rotated = np.exp(1j * theta) * mat
        herm = 0.5 * (rotated + rotated.conj().T)
        return float(eigh(herm, gram, eigvals_only=True)[0])

    step = 2.0 * np.pi / angles
    coarse = [lam_min(t) for t in step * np.arange(angles)]
    center = step * int(np.argmax(coarse))
    best = max(lam_min(t) for t in center + np.linspace(-step, step, fine))
    return max(best, max(coarse), 0.0)
