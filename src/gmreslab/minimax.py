"""Solvers for the worst-case and ideal GMRES quantities.

For a square matrix A and depth k the two quantities of interest are

    worst_case(A, k) = max over v != 0 of  min over p in pi_k  ||p(A) v|| / ||v||,
    ideal(A, k)      = min over p in pi_k  ||p(A)||,

with pi_k the polynomials of degree at most k normalized to p(0) = 1.
The worst case never exceeds the ideal value, and both lie in [0, 1]
because p = 1 is admissible.  At depth 1 the two coincide.

``ideal_gmres`` and ``one_step_ideal`` share one convex solver, run once
per depth from p = 1.  It writes ``p(A) = I + d_1 Q_1 + ... + d_k Q_k`` in
a Frobenius-orthonormal basis of ``span{A, .., A^k}``, built by the residual
kernel's Arnoldi in matrix space (Toh & Trefethen, SIMAX 1998), and runs
damped Newton with the exact Hessian on a smoothed top eigenvalue F_mu of
``p(A)^H p(A)``, one Newton run per smoothing stage.  A stage ends at the rounding level,
and the next starts at the Richardson extrapolant of the stage ends to
zero smoothing.  A line-search trial costs one eigendecomposition.  The
upper bound is the norm of the returned feasible polynomial, a stage end
or an extrapolant, and the witness its top right singular vector, both
read off the solver's eigendecomposition at that polynomial; the lower
bound is a norm-duality certificate,

    ideal(A, k) = max |tr Y| / ||Y||_*  over Y != 0 with <A^j, Y> = 0, j = 1..k,

built from the smoothed problem's own dual matrix (``||.||_*`` is the
nuclear norm, ``<.,.>`` the Frobenius inner product).  The polynomial is
reported by its roots, the eigenvalues of a comrade pencil of the basis's
Arnoldi recurrence H and the coefficients d; no monomial basis is formed.

``worst_case_gmres`` runs L-BFGS-B on ``phi(v)^2 / 2``, phi(v) the residual
ratio, over the real and imaginary parts of v: the best starts climb as one
block, then the best of them alone.  One kernel pass per evaluation solves
the inner polynomial problem exactly for every candidate and returns its
exact gradient, by the envelope theorem ``(p_v(A)^H p_v(A) v - phi^2 v) /
||v||^2`` with p_v the minimizing polynomial of v; its Arnoldi directions
keep phi exact to rounding at every depth.  phi is scale-invariant, so no
sphere constraint is needed.  Every evaluated candidate is a
certified lower bound on the true worst case, so under-convergence is safe
for the inequality checks downstream.  The caller may pass a known upper
bound on the worst case, the ceiling (``verify_chain`` passes the ideal
value, the norm of a feasible polynomial); the ascent stops as soon as phi
comes within 1e-10 of it, which certifies the value to that gap.  For
normal A the ideal value is attained (Greenbaum-Gurvits; Joubert), and
often the starts already attain it, so no ascent runs at all.

The budgets are constants of the method: 16 ascent starts, 200 kernel
evaluations, and a certification gap of 1e-4 for both brackets.  The
inputs besides A and k are the worst case's integer seed and its ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import linalg, optimize

from . import dense_core
from .dense_core import as_matrix
from .errors import MAX_DEPTH, BudgetExceeded, NoConvergence, check_depth, check_int
from .krylov import _arnoldi, min_residual_gradients, min_residual_values

__all__ = [
    "MAX_DEPTH",
    "MinimaxResult",
    "OneStepIdealResult",
    "ideal_gmres",
    "worst_case_gmres",
    "one_step_ideal",
    "scalar_minimax_oracle",
]

# _minimize_norm stops once the norm and its dual bound are this close.
_GAP_TARGET = 1e-10
# Newton steps per smoothing stage; rounding stops a stage long before.
_NEWTON_STEPS = 100
# An ideal result is certified when its upper and lower bounds are this close.
_CERTIFY_GAP = 1e-4
# Ascent starts of worst_case_gmres, moved together as one block: the best of
# the caller's starts, the top right singular vector of A and random unit
# vectors that fill the pool up to this size.
_ASCENT_STARTS = 16
# Kernel evaluations of the ascent, one kernel pass over the block each,
# shared by its two L-BFGS-B runs; SciPy may finish its current line
# search, at most 20 evaluations, past it.
_ASCENT_EVALS = 200
# The ascent stops once phi is this close to the caller's ceiling on wc.
_BRACKET_GAP = 1e-10


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of one minimax solve.

    ``certified`` says that ``lower_bound`` and ``upper_bound`` lie within
    1e-4 of each other.  For ``ideal_gmres`` the value equals
    ``upper_bound`` (the norm of the returned feasible polynomial) and
    ``lower_bound`` is the norm-duality certificate of
    :func:`_dual_lower_bound`.  For ``worst_case_gmres`` the value equals
    ``lower_bound`` (phi at the witness, a certified lower bound on the
    true worst case) and ``upper_bound`` is the caller's ceiling: the
    ideal value under ``verify_chain``, else the trivial bound 1.

    ``roots`` holds the roots ``theta_i`` of the returned polynomial of
    ``ideal_gmres``, ``p(z) = prod_i (1 - z / theta_i)``, sorted by real and
    then imaginary part: at most k, none for ``p = 1``, and infinite where
    ``2^e theta_i`` leaves the float range (see :func:`_roots`).  For
    ``worst_case_gmres`` it is None.
    """

    value: float
    roots: Optional[np.ndarray]
    witness_vector: np.ndarray
    lower_bound: float
    upper_bound: float
    certified: bool


class OneStepIdealResult(NamedTuple):
    """Minimum of ``||I - alpha A||`` over complex alpha."""

    value: float
    alpha: complex


def _orthonormal_basis(mat: np.ndarray, k: int):
    """``(Q, H, e)``: Frobenius-orthonormal ``Q_1 .. Q_k`` spanning
    ``{S, .., S^k}`` for ``(S, e) = binary_scaled(A)``, and the upper
    triangular H of their recurrence ``S Q_(j-1) = sum_(i <= j) H_ij Q_i``,
    ``Q_0 = I`` (1-based H).

    Arnoldi in matrix space (Toh & Trefethen, SIMAX 1998): :func:`_arnoldi`
    on ``vec(I)`` with the map ``X -> S X``, whose column inner product is
    the Frobenius product; a dependent direction, with an infinite divisor,
    and every later ``Q_j`` are zero.  The basis stays well conditioned when
    A is close to a multiple of I, where the powers of A are nearly parallel.
    """
    s, e = dense_core.binary_scaled(mat)
    n = s.shape[0]
    vec_eye = np.eye(n).reshape(-1, 1)
    q, h = _arnoldi(lambda x: (s @ x.reshape(n, n)).reshape(-1, 1), vec_eye, k)
    return q.reshape(k, n, n), h[:, :, 0], e


def _roots(h: np.ndarray, d: np.ndarray, e: int) -> np.ndarray:
    """Sorted roots of ``p = 1 + d_1 q_1 + .. + d_k q_k``, ``Q_j = q_j(S)``:
    ``2^e`` times the finite eigenvalues of the comrade pencil (Barnett, LAA
    1975) of ``(q_0, .., q_(m-1))`` for the m finite divisors of H, its rows
    ``z q_(j-1) = sum_(i <= j) H_ij q_i``, the last times ``d_m`` with ``d_m
    q_m = -1 - sum_(j < m) d_j q_j`` put in; infinite beyond the float range."""
    m = int(np.isfinite(h.diagonal().real).sum())
    if not m:
        return np.zeros(0, dtype=np.complex128)
    pencil = np.zeros((m, m), dtype=np.complex128)
    pencil[:, 1:] = h[: m - 1, :m].T
    pencil[-1] = d[m - 1] * pencil[-1] - h[m - 1, m - 1] * np.r_[1.0, d[: m - 1]]
    theta = linalg.eigvals(pencil, np.diag(np.r_[np.ones(m - 1), d[m - 1]]))
    theta = np.sort(theta[np.isfinite(theta)])
    return dense_core.scaled_back(theta.view(np.float64), e).view(np.complex128)


def _spectrum(basis: np.ndarray, x: np.ndarray, mu: float):
    """F_mu at ``d = x[:k] + i x[k:]`` from one eigendecomposition:
    ``(F_mu, P, lambda, V, w)`` with ``P = P(d)``, ``P^H P = V diag(lambda)
    V^H`` (lambda ascending) and ``w = softmax(lambda / mu)``."""
    k, n = basis.shape[:2]
    p = ((x[:k] + 1j * x[k:]) @ basis.reshape(k, -1)).reshape(n, n)
    p.flat[:: n + 1] += 1.0
    return _weighted(p, *np.linalg.eigh(p.conj().T @ p), mu)


def _weighted(p: np.ndarray, lam: np.ndarray, vecs: np.ndarray, mu: float):
    """:func:`_spectrum`'s tuple from ``P`` and ``P^H P = V diag(lambda) V^H``."""
    z = np.exp((lam - lam[-1]) / mu)
    return lam[-1] + mu * np.log(z.sum()), p, lam, vecs, z / z.sum()


def _derivatives(basis: np.ndarray, spec, mu: float):
    """Gradient and Hessian in x of F_mu from its :func:`_spectrum`.

    With ``X_a = V^H (E_a^H P + P^H E_a) V`` for ``E_a = Q_j`` or ``i Q_j``,
    ``g_a = sum_i w_i X_a,ii`` and (Lewis & Sendov, SIMAX 2001)
    ``H_ab = sum_il Gamma_il Re(X_a,il X_b,li) - g_a g_b / mu
    + 2 Re tr(E_a^H E_b W)``, ``Gamma_il = (w_i - w_l) / (lambda_i -
    lambda_l)``, or ``w_i / mu`` where the two coincide.
    """
    k, n = basis.shape[:2]
    _, p, lam, vecs, w = spec
    bv = basis @ vecs
    gj = (p @ vecs).conj().T @ bv
    gjh = gj.conj().swapaxes(1, 2)
    xa = np.concatenate([gj + gjh, 1j * (gj - gjh)]).reshape(2 * k, -1)
    grad = xa[:, :: n + 1].real @ w
    # w rises with lambda: factor out the larger weight against cancellation.
    gap, wide = np.abs(lam[:, None] - lam), np.maximum(w[:, None], w)
    safe = np.where(gap > 0.0, gap, 1.0)
    gamma = np.where(gap > 0.0, -wide * np.expm1(-gap / mu) / safe, wide / mu)
    ev = (bv * np.sqrt(w)).reshape(k, -1)  # E_a V diag(w)^(1/2), real parts
    ev = np.concatenate([ev, 1j * ev])
    hess = ((xa * gamma.ravel()) @ xa.conj().T + 2.0 * ev.conj() @ ev.T).real
    hess -= np.outer(grad, grad) / mu
    return grad, hess


def _minimize_norm(basis: np.ndarray):
    """Minimize ``||P(d)||``, ``P(d) = I + d_1 Q_1 + ... + d_k Q_k``, from d = 0.

    Damped Newton with the exact Hessian of :func:`_derivatives` minimizes
    the smoothed top eigenvalue of ``X = P^H P``,

        F_mu(d) = lambda_max + mu log sum_i exp((lambda_i - lambda_max) / mu),

    which is convex in d.  Armijo backtracking from the full step runs
    while the predicted decrease exceeds ``4 eps |F_mu|``; a trial
    evaluates only :func:`_spectrum`, and the derivatives are built once
    per accepted point.  ``mu`` starts at ``0.1 = 0.1 ||P(0)||^2`` and
    shrinks tenfold per stage until the norm and the dual bound of
    :func:`_dual_lower_bound` meet within ``_GAP_TARGET`` or ``mu`` reaches
    rounding level.  A stage ends at its first point whose predicted
    decrease is at the rounding level, where its dual bound is taken.  If
    the gap is still open and the stage looks stalled (its first step was
    already at that level, the gap fell less than tenfold, or the next
    ``mu`` passes the floor), a polish of full Newton steps runs: each is
    kept while it shrinks the Newton decrement, which sharpens the dual
    matrix Y, the first that does not is undone, and the bound is taken
    again.  The stage ends lie O(mu) from the optimum when the top singular
    value is multiple, so the next stage starts at their Richardson
    extrapolant to mu = 0 if F_mu is no higher there than at the reweighted
    stage end; its norm is an upper bound too.

    Returns ``(d, norm, witness, lower)``: the best coefficients seen;
    ``norm = ||P(d)|| = sqrt(lambda_max) <= 1`` and a unit top eigenvector
    of ``P(d)^H P(d)``, both from its kept eigendecomposition; and the best
    dual lower bound, at most ``norm``.
    """
    k = basis.shape[0]
    x, ends = np.zeros(2 * k), []
    upper, lower, mu = 1.0, 0.0, 0.1
    state = _spectrum(basis, x, mu)
    best = x, state
    while upper - lower > _GAP_TARGET and mu >= 1e-14 * upper**2:
        gap, start, direction, undo = upper - lower, x, None, None
        for polish in (False, True):
            for _ in range(_NEWTON_STEPS):
                if direction is None:
                    grad, hess = _derivatives(basis, state, mu)
                    direction = grad, np.linalg.lstsq(hess, -grad, rcond=None)[0]
                grad, step = direction
                slope, t = float(grad @ step), 1.0
                if polish:
                    if undo is not None and slope <= undo[2]:
                        x, state = undo[:2]  # the step did not shrink the decrement
                        break
                    undo, trial = (x, state, slope), _spectrum(basis, x + step, mu)
                else:
                    level = 4.0 * np.finfo(float).eps * abs(state[0])
                    if -slope <= level:
                        break
                    trial = _spectrum(basis, x + step, mu)
                    while (trial[0] > state[0] + 0.25 * t * slope
                           and -t * slope > level):
                        t *= 0.5
                        trial = _spectrum(basis, x + t * step, mu)
                    if trial[0] > state[0] + 0.25 * t * slope:
                        break
                x, state, direction = x + t * step, trial, None
            _, p, lam, vecs, w = state
            value = float(np.sqrt(max(lam[-1], 0.0)))
            if value < upper:
                best, upper = (x, state), value
            lower = max(lower, _dual_lower_bound(basis, *state[1:], x[:k] + 1j * x[k:]))
            stalled = x is start or upper - lower > 0.1 * gap or mu < 1e-13 * upper**2
            if upper - lower <= _GAP_TARGET or not stalled:
                break
        mu *= 0.1
        state = _weighted(p, lam, vecs, mu)
        ends = (ends + [x])[-3:]
        if ends[1:]:  # Richardson extrapolation of the stage ends to mu = 0
            xe = (np.dot([10 / 8910, -100 / 810, 1000 / 891], ends) if ends[2:]
                  else x + (x - ends[0]) / 9)
            spec = _spectrum(basis, xe, mu)
            value = float(np.sqrt(max(spec[2][-1], 0.0)))
            if value < upper:
                best, upper = (xe, spec), value
            if spec[0] <= state[0]:
                x, state = xe, spec
    x, state = best
    return x[:k] + 1j * x[k:], upper, state[3][:, -1], min(lower, upper)


def _dual_lower_bound(basis: np.ndarray, p, lam, vecs, w, d: np.ndarray) -> float:
    """Norm-duality lower bound on ``min over c of ||I + sum_j c_j Q_j||``.

    Every Y orthogonal to all ``Q_j`` in the Frobenius inner product gives
    ``|tr Y| = |<P(c), Y>| <= ||P(c)|| ||Y||_*`` for every c, so
    ``|tr Y| / ||Y||_*`` is a lower bound.  ``Y = P V W V^H`` from the
    ``_spectrum`` values (``||Y||_* = sum_i w_i sqrt(lambda_i)``) is projected
    off the orthonormal ``Q_j`` by ``Q^H Y``; the rounding allowance covers
    the leftover inner products weighted by the incumbent coefficients
    ``d``.  A projection that removes nearly all of Y certifies nothing.
    """
    y = p @ (vecs * w) @ vecs.conj().T
    k, n = basis.shape[0], y.shape[0]
    qh = basis.reshape(k, -1).conj()
    yp = y - np.tensordot(qh @ y.ravel(), basis, axes=1)
    nuclear = float(np.linalg.svd(yp, compute_uv=False).sum())
    eps = np.finfo(float).eps
    if nuclear <= np.sqrt(eps) * float(w @ np.sqrt(np.maximum(lam, 0.0))):
        return 0.0
    leftover = float(np.abs(qh @ yp.ravel()) @ np.abs(d))
    allowance = leftover / nuclear + n * eps * (1.0 + float(np.abs(d).sum()))
    return max(abs(complex(np.trace(yp))) / nuclear - allowance, 0.0)


def ideal_gmres(a, k: int) -> MinimaxResult:
    """Minimize ``||p(A)||`` over polynomials p in pi_k.

    One solve at depth k, from p = 1, with no starts and no randomness;
    depth 1 is the solve of :func:`one_step_ideal`.  The value is the
    spectral norm of the returned polynomial (an upper bound on the true
    minimum: a stage end of the solver or an extrapolant of its stage ends),
    the witness a unit vector that attains it and the lower bound a
    norm-duality certificate, all from the solver's own eigendecompositions
    in an orthonormal basis of ``span{A, .., A^k}``, so none depends on the
    scale of A; the roots come from that basis's recurrence.  A gap above
    1e-4 flags the result non-certified, but both bounds remain sound.
    """
    q, h, e = _orthonormal_basis(as_matrix(a), check_depth(k))
    d, upper, witness, lower = _minimize_norm(q)
    certified = bool(upper - lower <= _CERTIFY_GAP)
    return MinimaxResult(upper, _roots(h, d, e), witness, lower, upper, certified)


class _Bracketed(Exception):
    """Raised by the ascent's objective once some phi reaches the target."""


def _ascend(mat: np.ndarray, v0: np.ndarray, k: int, budget: int, target: float):
    """L-BFGS-B on ``-sum_j phi(v_j)^2 / 2`` over the columns of ``v0``.

    One kernel pass per evaluation, ``budget`` evaluations plus the line
    search under way; the run ends at the first evaluation whose best phi
    reaches ``target``, even inside a line search.  Returns each column's
    best evaluated vector, renormalized, its value, and the number of
    evaluations.
    """
    best_v = v0.copy()
    best_phi = np.full(v0.shape[1], -1.0)
    nfev = 0

    def negative_energy(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        v = np.ascontiguousarray(x).view(np.complex128).reshape(v0.shape)
        phi, grad = min_residual_gradients(mat, v, k)
        up = phi > best_phi
        best_phi[up], best_v[:, up] = phi[up], v[:, up]
        if best_phi.max() >= target:
            raise _Bracketed
        return -0.5 * float(phi @ phi), -grad.ravel().view(np.float64)

    try:
        optimize.minimize(
            negative_energy,
            v0.ravel().view(np.float64),
            jac=True,
            method="L-BFGS-B",
            options={"maxfun": budget, "maxiter": budget, "ftol": 0.0, "gtol": 1e-15},
        )
    except _Bracketed:
        pass
    return best_v / np.linalg.norm(best_v, axis=0), best_phi, nfev


def worst_case_gmres(
    a,
    k: int,
    seed: int = 0,
    extra_starts: Optional[Sequence[np.ndarray]] = None,
    ceiling: float = 1.0,
) -> MinimaxResult:
    """Maximize ``min over p in pi_k of ||p(A) v|| / ||v||`` over v != 0.

    ``extra_starts`` lets callers seed the ascent with vectors they care
    about (sampled initial residuals, witnesses of other solves); every seed
    is at least evaluated, so the returned value is never smaller than the
    best seed's ratio.  ``seed`` (a non-negative int) roots the random
    starts that fill the pool up to 16.  ``ceiling`` is a known upper bound
    on the worst case, such as ``ideal_gmres(a, k).value``; the default 1
    is the bound from p = 1.  No ascent runs once the best start comes
    within 1e-10 of it, and the ascent stops at the first evaluation that
    does.  The value is a certified lower bound on the true worst case; the
    result's bracket is ``[value, ceiling]``.
    """
    mat = as_matrix(a)
    k = check_depth(k)
    check_int(seed, "seed", 0)
    n = mat.shape[0]

    seeds: list[np.ndarray] = []
    for vec in extra_starts or ():
        w = np.asarray(vec, dtype=np.complex128).ravel()
        nw = np.linalg.norm(w)
        if w.shape[0] == n and nw > 0.0:
            seeds.append(w / nw)

    seeds.append(dense_core.top_right_singular_vector(mat))

    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    while len(seeds) < _ASCENT_STARTS:
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seeds.append(w / np.linalg.norm(w))

    pool = np.column_stack(seeds)
    pool_values = min_residual_values(mat, pool, k)
    target = ceiling - _BRACKET_GAP
    best_v = pool[:, int(np.argmax(pool_values))]
    if pool_values.max() < target:
        order = np.argsort(-pool_values, kind="stable")[:_ASCENT_STARTS]
        block, block_values, nfev = _ascend(
            mat, pool[:, order], k, _ASCENT_EVALS // 2, target
        )
        # The block run stops on the sum of phi^2; the best column goes on alone.
        best_v = block[:, int(np.argmax(block_values))]
        if block_values.max() < target:
            budget = max(_ASCENT_EVALS - nfev, 1)
            best_v = _ascend(mat, best_v[:, None], k, budget, target)[0][:, 0]
    best_phi = float(min_residual_values(mat, best_v[:, None], k)[0])
    certified = bool(ceiling - best_phi <= _CERTIFY_GAP)
    return MinimaxResult(best_phi, None, best_v, best_phi, ceiling, certified)


def one_step_ideal(a) -> OneStepIdealResult:
    """Minimize ``||I - alpha A||`` over complex alpha."""
    q, h, e = _orthonormal_basis(as_matrix(a), 1)
    d, value, _, _ = _minimize_norm(q)
    alpha = -d[0] / h[0, 0].real  # over 2^e, taken exactly
    return OneStepIdealResult(
        value, complex(*dense_core.scaled_back([alpha.real, alpha.imag], -e))
    )


# ---------------------------------------------------------------------------
# Scalar oracle: min over p in pi_k of max_i |p(lambda_i)|.
#
# For a normal matrix with spectrum {lambda_i} this equals the ideal value,
# which makes the oracle an independent cross-check of ideal_gmres on
# diagonal inputs.  It never touches matrix norms: two HiGHS linear
# programs on a discretized phase grid, the second refined around the
# phases of the first solution, all on the scalar max-modulus objective.
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
