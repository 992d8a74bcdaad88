"""Solvers for the worst-case and ideal GMRES quantities.

For a square matrix A and depth k the two quantities of interest are

    worst_case(A, k) = max over v != 0 of  min over p in pi_k  ||p(A) v|| / ||v||,
    ideal(A, k)      = min over p in pi_k  ||p(A)||,

with pi_k the polynomials of degree at most k normalized to p(0) = 1.
The worst case never exceeds the ideal value, and both lie in [0, 1]
because p = 1 is admissible.  At depth 1 the two coincide.

``ideal_gmres`` and ``one_step_ideal`` share one convex solver:
quasi-Newton descent on a smoothed top eigenvalue of ``p(A)^H p(A)``,
continued to vanishing smoothing.  The upper bound is the norm of the
returned feasible polynomial; the lower bound is a norm-duality
certificate,

    ideal(A, k) = max |tr Y| / ||Y||_*  over Y != 0 with <A^j, Y> = 0, j = 1..k,

built from the smoothed problem's own dual matrix (``||.||_*`` is the
nuclear norm, ``<.,.>`` the Frobenius inner product).

``worst_case_gmres`` runs alternating maximization on the unit sphere: the
inner polynomial problem is solved exactly per candidate vector, the outer
ascent uses central finite-difference gradients projected to the tangent
space with renormalization as the retraction.  Every evaluated candidate is
a certified lower bound on the true worst case, so under-convergence is
safe for the inequality checks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import optimize

from . import dense_core
from .dense_core import as_matrix
from .errors import BudgetExceeded, NoConvergence, is_int
from .krylov import min_residual_values

__all__ = [
    "MAX_DEPTH",
    "SolverOptions",
    "MinimaxResult",
    "OneStepIdealResult",
    "ideal_gmres",
    "worst_case_gmres",
    "one_step_ideal",
    "scalar_minimax_oracle",
]

# The monomial-coefficient parametrization is well conditioned only for
# small degrees; everything in this package stays at or below this depth.
MAX_DEPTH = 8
# _minimize_norm stops once the norm and its dual bound are this close.
_GAP_TARGET = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Budget and determinism knobs of the minimax solvers.

    ``ideal_gmres`` reads only ``tolerance``: its solver has no starts, no
    randomness and a fixed convergence target.  The other fields steer the
    sphere ascent of ``worst_case_gmres``.

    starts
        Number of ascent starts (caller-supplied and two constructed starts
        come first; random unit vectors fill up the rest).
    max_iters
        Iteration cap per ascent.
    seed
        Root seed of the random ascent starts.
    tolerance
        Certification gap target: an ideal result is flagged certified when
        ``upper_bound - lower_bound <= tolerance``.
    fd_step
        Central-difference step scale of the sphere ascent, applied as
        ``fd_step * (1 + ||v||)``.
    ascent_step
        Initial step length of the sphere ascent.
    max_halvings
        The ascent halves its step on non-improvement and gives up on a
        start after this many halvings.
    """

    starts: int = 16
    max_iters: int = 200
    seed: int = 0
    tolerance: float = 1e-4
    fd_step: float = 1e-6
    ascent_step: float = 0.5
    max_halvings: int = 25

    def __post_init__(self):
        for name in ("starts", "max_iters", "seed", "max_halvings"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"SolverOptions.{name} must be an integer")
        for name in (
            "starts",
            "max_iters",
            "tolerance",
            "fd_step",
            "ascent_step",
            "max_halvings",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"SolverOptions.{name} must be positive")
        if self.seed < 0:
            raise ValueError("SolverOptions.seed must be non-negative")


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of one minimax solve.

    For ``ideal_gmres`` the value equals ``upper_bound`` (the norm of the
    returned feasible polynomial) and ``lower_bound`` is the norm-duality
    certificate of :func:`_dual_lower_bound`.  For ``worst_case_gmres`` the
    value is itself a certified lower bound on the true worst case;
    ``upper_bound`` is the trivial ceiling 1 and ``certified`` is False
    because that solver carries no two-sided certificate.
    """

    value: float
    coefficients: Optional[np.ndarray]
    witness_vector: np.ndarray
    lower_bound: float
    upper_bound: float
    gap_tolerance: float
    certified: bool
    starts_used: int


class OneStepIdealResult(NamedTuple):
    """Minimum of ``||I - alpha A||`` over complex alpha."""

    value: float
    alpha: complex


def _check_depth(k: int) -> int:
    k = int(k)
    if not 1 <= k <= MAX_DEPTH:
        raise ValueError(f"depth must satisfy 1 <= k <= {MAX_DEPTH}, got {k}")
    return k


def _matrix_powers(mat: np.ndarray, k: int) -> np.ndarray:
    n = mat.shape[0]
    powers = np.empty((k, n, n), dtype=np.complex128)
    powers[0] = mat
    for j in range(1, k):
        powers[j] = mat @ powers[j - 1]
    return powers


def _damped_power_coefficients(alpha: complex, k: int) -> np.ndarray:
    """Coefficients c_1..c_k of (1 - alpha z)^k."""
    return np.array(
        [comb(k, j) * (-alpha) ** j for j in range(1, k + 1)], dtype=np.complex128
    )


def _random_unit_block(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    block = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    return block / np.linalg.norm(block, axis=0)


def _minimize_norm(mat: np.ndarray, k: int, c0) -> tuple[np.ndarray, float]:
    """Minimize ``||P(c)||``, ``P(c) = I + c_1 A + ... + c_k A^k``, from ``c0``.

    L-BFGS-B minimizes the smoothed top eigenvalue of ``X = P^H P``,

        F_mu(c) = lambda_max + mu log sum_i exp((lambda_i - lambda_max) / mu),

    which is convex in c with exact gradient ``2 tr(W P^H A^j)``,
    ``W = V diag(softmax(lambda / mu)) V^H``.  ``mu`` starts at
    ``0.1 ||P(c0)||^2`` and shrinks tenfold per stage, each stage
    warm-started at the last, until the norm and the dual bound of
    :func:`_dual_lower_bound` meet within ``_GAP_TARGET`` or ``mu`` reaches
    rounding level.  Returns the best coefficients seen, whose norm never
    exceeds the norm at ``c0``, and the best dual lower bound.
    """
    n = mat.shape[0]
    scale = dense_core.spectral_norm(mat) or 1.0
    # Work in the basis B^j of B = A / ||A||, where coefficients are O(1).
    powers = _matrix_powers(mat / scale, k)
    flat = powers.reshape(k, -1)
    scales = scale ** np.arange(1, k + 1)
    eye = np.eye(n, dtype=np.complex128)

    def smoothed(x: np.ndarray, mu: float):
        """F_mu, its gradient in (Re d, Im d), Y = P W and lambda_max."""
        p = eye + np.tensordot(x[:k] + 1j * x[k:], powers, axes=1)
        lam, vecs = np.linalg.eigh(p.conj().T @ p)
        z = np.exp((lam - lam[-1]) / mu)
        y = p @ (vecs * (z / z.sum())) @ vecs.conj().T
        g = flat @ y.conj().ravel()  # tr(W P^H B^j)
        value = lam[-1] + mu * np.log(z.sum())
        return value, 2.0 * np.concatenate([g.real, -g.imag]), y, lam[-1]

    d0 = np.broadcast_to(np.asarray(c0, dtype=np.complex128), (k,)) * scales
    x = best_x = np.concatenate([d0.real, d0.imag])
    upper = float(np.sqrt(max(smoothed(x, 1.0)[3], 0.0)))  # any mu: lambda_max
    lower = 0.0
    mu = 0.1 * upper**2
    while upper - lower > _GAP_TARGET and mu >= 1e-14 * upper**2:
        # Not BFGS: when rounding stalls its line search, scipy falls back
        # to a search it silences by swapping the process-wide warning
        # filters, which races on the depth thread pool.  L-BFGS-B just stops.
        x = optimize.minimize(
            lambda x: smoothed(x, mu)[:2],
            x,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 0.0, "gtol": 0.0},
        ).x
        _, _, y, top = smoothed(x, mu)
        value = float(np.sqrt(max(top, 0.0)))
        if value < upper:
            best_x, upper = x, value
        lower = max(lower, _dual_lower_bound(powers, y, x[:k] + 1j * x[k:]))
        mu *= 0.1
    return (best_x[:k] + 1j * best_x[k:]) / scales, min(lower, upper)


def _dual_lower_bound(powers: np.ndarray, y: np.ndarray, d: np.ndarray) -> float:
    """Norm-duality lower bound on ``min over c of ||I + sum_j c_j B^j||``.

    Every Y orthogonal to all ``B^j`` in the Frobenius inner product gives
    ``|tr Y| = |<P(c), Y>| <= ||P(c)|| ||Y||_*`` for every c, so
    ``|tr Y| / ||Y||_*`` is a lower bound.  ``y`` is projected off
    ``span{B^j}``; the rounding allowance covers the projection's leftover
    inner products weighted by the incumbent coefficients ``d``.  A
    projection that removes nearly all of ``y`` leaves rounding noise and
    certifies nothing.
    """
    k, n = powers.shape[0], y.shape[0]
    flat = powers.reshape(k, -1)
    beta = np.linalg.lstsq(flat.T, y.ravel(), rcond=None)[0]
    yp = y - np.tensordot(beta, powers, axes=1)
    nuclear = float(np.linalg.svd(yp, compute_uv=False).sum())
    eps = np.finfo(float).eps
    if nuclear <= np.sqrt(eps) * float(np.linalg.svd(y, compute_uv=False).sum()):
        return 0.0
    leftover = float(np.abs(flat.conj() @ yp.ravel()) @ np.abs(d))
    allowance = leftover / nuclear + n * eps * (1.0 + float(np.abs(d).sum()))
    return max(abs(complex(np.trace(yp))) / nuclear - allowance, 0.0)


def _ascend_on_sphere(
    phi_batch,
    v0: np.ndarray,
    val0: float,
    opts: "SolverOptions",
    max_iters: int,
) -> tuple[np.ndarray, float]:
    """Maximize ``phi`` over the unit sphere starting from ``v0``.

    Central finite differences in all 2n real coordinates, evaluated in one
    batch, projected to the tangent space; retraction by normalization and
    step halving on non-improvement.  Returns the best iterate and its
    value as computed by ``phi_batch``.
    """
    n = v0.shape[0]
    h = opts.fd_step * 2.0  # fd_step * (1 + ||v||) on the unit sphere
    index = np.arange(n)
    v, val = v0.copy(), val0
    step = opts.ascent_step
    halvings = 0
    for _ in range(max_iters):
        if halvings >= opts.max_halvings:
            break
        batch = np.tile(v[:, None], (1, 4 * n))
        batch[index, index] += h
        batch[index, n + index] -= h
        batch[index, 2 * n + index] += 1j * h
        batch[index, 3 * n + index] -= 1j * h
        vals = phi_batch(batch)
        grad = (vals[:n] - vals[n : 2 * n]) / (2.0 * h) + 1j * (
            vals[2 * n : 3 * n] - vals[3 * n :]
        ) / (2.0 * h)
        grad = grad - v * np.vdot(v, grad).real
        gn = float(np.linalg.norm(grad))
        if gn <= 1e-14:
            break
        cand = v + step * grad / gn
        cand = cand / np.linalg.norm(cand)
        cval = float(phi_batch(cand[:, None])[0])
        if cval > val + 1e-14:
            v, val = cand, cval
        else:
            step *= 0.5
            halvings += 1
    return v, val


def ideal_gmres(a, k: int, opts: Optional[SolverOptions] = None) -> MinimaxResult:
    """Minimize ``||p(A)||`` over polynomials p in pi_k.

    Starts from ``(1 - alpha z)^k`` with alpha from :func:`one_step_ideal`,
    so the value never exceeds ``one_step_ideal(A).value ** k``.  The value
    is the spectral norm of the returned polynomial (an upper bound on the
    true minimum) and the lower bound is a norm-duality certificate.  When
    the gap exceeds ``opts.tolerance`` the result is flagged non-certified
    but is still returned; both bounds remain sound.
    """
    mat = as_matrix(a)
    k = _check_depth(k)
    opts = opts or SolverOptions()
    alpha = one_step_ideal(mat).alpha
    coeffs, lower = _minimize_norm(mat, k, _damped_power_coefficients(alpha, k))
    p_best = dense_core.evaluate_residual_polynomial(mat, coeffs)
    upper, _, witness = dense_core.top_singular_triple(p_best)
    lower = float(min(lower, upper))
    return MinimaxResult(
        value=upper,
        coefficients=coeffs,
        witness_vector=witness,
        lower_bound=lower,
        upper_bound=upper,
        gap_tolerance=opts.tolerance,
        certified=bool(upper - lower <= opts.tolerance),
        starts_used=1,
    )


def worst_case_gmres(
    a,
    k: int,
    opts: Optional[SolverOptions] = None,
    extra_starts: Optional[Sequence[np.ndarray]] = None,
) -> MinimaxResult:
    """Maximize ``min over p in pi_k of ||p(A) v|| / ||v||`` over v != 0.

    ``extra_starts`` lets callers seed the ascent with vectors they care
    about (sampled initial residuals, witnesses of other solves); every seed
    is at least evaluated, so the returned value is never smaller than the
    best seed's ratio.  The value is a certified lower bound on the true
    worst case; no upper-bound certificate is produced.
    """
    mat = as_matrix(a)
    k = _check_depth(k)
    opts = opts or SolverOptions(starts=20)
    n = mat.shape[0]

    def phi_batch(block: np.ndarray) -> np.ndarray:
        return min_residual_values(mat, block, k)

    seeds: list[np.ndarray] = []
    if extra_starts is not None:
        for vec in extra_starts:
            w = np.asarray(vec, dtype=np.complex128).ravel()
            nw = np.linalg.norm(w)
            if w.shape[0] == n and nw > 0.0:
                seeds.append(w / nw)

    _, _, w_top = dense_core.top_singular_triple(mat)
    seeds.append(w_top)
    one_step = one_step_ideal(mat)
    step_matrix = np.eye(n, dtype=np.complex128) - one_step.alpha * mat
    _, _, w_step = dense_core.top_singular_triple(step_matrix)
    seeds.append(w_step)

    rng = np.random.default_rng(np.random.SeedSequence(opts.seed).spawn(1)[0])
    while len(seeds) < opts.starts:
        seeds.append(_random_unit_block(rng, n, 1)[:, 0])

    pool = np.column_stack(seeds)
    pool_values = phi_batch(pool)
    best_idx = int(np.argmax(pool_values))
    best_v = pool[:, best_idx].copy()
    best_phi = float(pool_values[best_idx])

    ascent_order = np.argsort(-pool_values, kind="stable")[: opts.starts]
    for idx in ascent_order:
        v, val = _ascend_on_sphere(
            phi_batch, pool[:, idx], float(pool_values[idx]), opts, opts.max_iters
        )
        if val > best_phi:
            best_phi, best_v = val, v

    return MinimaxResult(
        value=best_phi,
        coefficients=None,
        witness_vector=best_v,
        lower_bound=best_phi,
        upper_bound=1.0,
        gap_tolerance=opts.tolerance,
        certified=False,
        starts_used=pool.shape[1],
    )


def one_step_ideal(a) -> OneStepIdealResult:
    """Minimize ``||I - alpha A||`` over complex alpha."""
    mat = as_matrix(a)
    coeffs, _ = _minimize_norm(mat, 1, 0.0)
    alpha = -complex(coeffs[0])
    step_matrix = np.eye(mat.shape[0], dtype=np.complex128) - alpha * mat
    return OneStepIdealResult(dense_core.spectral_norm(step_matrix), alpha)


# ---------------------------------------------------------------------------
# Scalar oracle: min over p in pi_k of max_i |p(lambda_i)|.
#
# For a normal matrix with spectrum {lambda_i} this equals the ideal value,
# which makes the oracle an independent cross-check of ideal_gmres on
# diagonal inputs.  It never touches matrix norms: a coarse coefficient grid
# seeds golden-section coordinate descent plus random-direction line
# searches, all on the scalar max-modulus objective.
# ---------------------------------------------------------------------------

_ORACLE_COARSE_ANGLES = 720
_ORACLE_FINE_ANGLES = 33


def _chebyshev_lp(lam_pows: np.ndarray, angle_lists) -> tuple[np.ndarray, float]:
    """One linear program of the discretized scalar minimax problem.

    ``|w| = max over phases of Re(e^{-i phi} w)``, so sampling the phase
    turns ``min_c max_i |1 + (X c)_i|`` into an LP in (Re c, Im c, t).  Any
    finite phase sample yields a relaxation, hence ``t`` is a lower bound
    of the true minimax value.
    """
    k, m = lam_pows.shape
    re = lam_pows.T.real
    im = lam_pows.T.imag
    blocks = []
    rhs = []
    for i in range(m):
        phases = np.asarray(angle_lists[i])
        cosf, sinf = np.cos(phases), np.sin(phases)
        block = np.empty((phases.size, 2 * k + 1))
        block[:, :k] = np.outer(cosf, re[i]) + np.outer(sinf, im[i])
        block[:, k : 2 * k] = np.outer(sinf, re[i]) - np.outer(cosf, im[i])
        block[:, -1] = -1.0
        blocks.append(block)
        rhs.append(-cosf)  # constant term Re(e^{-i phi} * 1) moved across
    objective = np.zeros(2 * k + 1)
    objective[-1] = 1.0
    result = optimize.linprog(
        objective,
        A_ub=np.vstack(blocks),
        b_ub=np.concatenate(rhs),
        bounds=[(None, None)] * (2 * k) + [(0.0, None)],
        method="highs",
    )
    if not result.success:  # pragma: no cover - feasible by construction
        raise NoConvergence(f"oracle linear program failed: {result.message}")
    coeffs = result.x[:k] + 1j * result.x[k : 2 * k]
    return coeffs, float(result.fun)


def scalar_minimax_oracle(eigenvalues, k: int) -> float:
    """Minimize ``max_i |p(lambda_i)|`` over p in pi_k for a small spectrum.

    Intended as a test oracle: supports k up to 3 and at most 12
    eigenvalues, raising :class:`BudgetExceeded` beyond that.  When some
    eigenvalue vanishes the constraint ``p(0) = 1`` pins the value to 1.

    Two passes of phase-discretized linear programming: a shared coarse
    phase grid, then per-eigenvalue refinement around the optimal phases of
    the first solution.  The returned number is the exact objective at the
    best LP solution, so it always upper-bounds the true minimax value; the
    discretization keeps the excess below 1e-7 relative.
    """
    lam = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    k = int(k)
    if not 1 <= k <= 3:
        raise BudgetExceeded(f"oracle supports 1 <= k <= 3, got {k}")
    if not 1 <= lam.size <= 12:
        raise BudgetExceeded(f"oracle supports 1..12 eigenvalues, got {lam.size}")
    moduli = np.abs(lam)
    if float(moduli.max()) == 0.0 or float(moduli.min()) <= 1e-12 * float(moduli.max()):
        return 1.0

    lam_pows = np.vstack([lam ** (j + 1) for j in range(k)])  # (k, m)

    def exact(coeffs: np.ndarray) -> float:
        return float(np.abs(1.0 + lam_pows.T @ coeffs).max())

    base = np.linspace(0.0, 2.0 * np.pi, _ORACLE_COARSE_ANGLES, endpoint=False)
    angle_lists = [base] * lam.size
    width = 2.0 * np.pi / _ORACLE_COARSE_ANGLES
    best = np.inf
    for _ in range(2):
        coeffs, _lower = _chebyshev_lp(lam_pows, angle_lists)
        best = min(best, exact(coeffs))
        centers = np.angle(1.0 + lam_pows.T @ coeffs)
        # keep the coarse grid so each refined program stays a relaxation
        angle_lists = [
            np.concatenate(
                [base, c + np.linspace(-width, width, _ORACLE_FINE_ANGLES)]
            )
            for c in centers
        ]
        width = 2.0 * width / (_ORACLE_FINE_ANGLES - 1)
    return best
