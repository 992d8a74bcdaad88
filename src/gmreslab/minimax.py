"""Solvers for the worst-case and ideal GMRES quantities.

For a square matrix A and depth k the two quantities of interest are

    worst_case(A, k) = max over v != 0 of  min over p in pi_k  ||p(A) v|| / ||v||,
    ideal(A, k)      = min over p in pi_k  ||p(A)||,

with pi_k the polynomials of degree at most k normalized to p(0) = 1.
The worst case never exceeds the ideal value, and both lie in [0, 1]
because p = 1 is admissible.  At depth 1 the two coincide.

``ideal_gmres`` runs one convex solver, once per depth (depth 1 is the
one-step problem).  It writes ``p(A) = I + d_1 Q_1 + ... + d_k Q_k`` in a
Frobenius-orthonormal basis of ``span{A, .., A^k}``, built by the residual
kernel's Arnoldi in matrix space (Toh & Trefethen, SIMAX 1998), starts at
the better of p = 1 and the Frobenius-norm minimizer ``d_j = -conj(tr
Q_j)``, and runs damped Newton (Cholesky solves, exact Hessian) on a
smoothed top eigenvalue F_mu of ``p(A)^H p(A)``, one run per smoothing
stage.  A stage ends at the rounding level, the next starts at the
Richardson extrapolant of the stage ends to zero smoothing.  A line-search
trial costs one ``zheevd`` call.  The upper bound is the norm of the
returned feasible polynomial, a stage end or an extrapolant, read off the
solver's eigendecomposition there.  The lower bound rests on duality:
ideal^2 is the max over density matrices Z of ``min_p tr(p(A) Z p(A)^H)``,
wc^2 the max over rank-one Z (Faber, Liesen & Tichy, SIMAX 2013).  With
the smoothed problem's own dual ``Z = B B^H``, ``B = V diag(w)^(1/2)``,
it is the GMRES ratio of the block B,

    min over p in pi_k of ||p(A) B||_F / ||B||_F  <=  ideal(A, k),

one least-squares solve, the same that gives a vector its GMRES ratio.
The witness is a rank-one part of that dual whose ratio reaches the lower
bound, where found, else p(A)'s top singular vector.  The polynomial is
reported by its roots, the eigenvalues of a comrade pencil of the basis's
Arnoldi recurrence H and the coefficients d; no monomial basis is formed.

``worst_case_gmres`` climbs on ``phi(v)^2 / 2``, phi(v) the residual ratio,
over the real and imaginary parts of v: each of the best of the caller's
starts runs its own BFGS ascent with Armijo halving, and one kernel pass
per round evaluates every climbing start's trial point.  The pass solves
the inner polynomial problem exactly for every candidate and returns its
exact gradient, by the envelope theorem ``(p_v(A)^H p_v(A) v - phi^2 v) /
||v||^2`` with p_v the minimizing polynomial of v; its Arnoldi directions
keep phi exact to rounding at every depth.  phi is scale-invariant, so no
sphere constraint is needed.  The ascent stops once the leading start is
stationary, its residual ``||p_v(A)^H p_v(A) v - phi^2 v|| / (phi^2
||v||)`` at most 1e-8 (the cross equality of Faber, Liesen & Tichy, SIMAX
2013), or can rise only by rounding.  Every evaluated candidate is a
certified lower bound on the true worst case, so under-convergence is safe
for the inequality checks downstream.  The caller may pass a known upper
bound on the worst case, the ceiling (``verify_chain`` passes the ideal
value, the norm of a feasible polynomial); the ascent stops as soon as phi
comes within 1e-10 of it, which certifies the value to that gap.  For
normal A the ideal value is attained (Greenbaum-Gurvits; Joubert), and
where the ideal witness is a rank-one dual it attains it as a start, so
no ascent runs at all.

The budgets are constants of the method: 16 ascent starts, 200 kernel
gradient passes, and one bracket gap of 1e-10, which both solvers close and
both ``certified`` flags read.  Neither solver draws a random number: the
inputs besides A and k are the worst case's starts and its ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.linalg import lapack

from . import dense_core
from .dense_core import as_matrix
from .errors import MAX_DEPTH, InvalidSpec, NoConvergence
from .errors import check_depth, check_int
from .krylov import _arnoldi, _gradients, min_residual_values

__all__ = [
    "MAX_DEPTH",
    "MinimaxResult",
    "ideal_gmres",
    "worst_case_gmres",
    "one_step_ideal",
    "scalar_minimax_oracle",
]

# Newton steps per smoothing stage; rounding stops a stage long before.
_NEWTON_STEPS = 100
# Ascent starts of worst_case_gmres, each climbing on its own: at most this
# many of the caller's starts, the best by phi.
_ASCENT_STARTS = 16
# Kernel gradient passes of the ascent, the one at the starts included; a
# pass evaluates the trial points of all starts still climbing.
_ASCENT_EVALS = 200
# The bracket both solvers close, and within which a result is certified:
# _minimize_norm stops once the norm and its dual bound are this close, the
# ascent once phi is this close to the caller's ceiling on wc.
_BRACKET_GAP = 1e-10
# Gauss-Newton steps of _dual_witness: it converges quadratically or not at all.
_WITNESS_STEPS = 16


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of one minimax solve.

    ``certified`` says that the solver closed its bracket to the 1e-10 gap
    it aims for: ``upper_bound - lower_bound <= 1e-10`` for ``ideal_gmres``,
    ``|upper_bound - lower_bound| <= 1e-10`` for ``worst_case_gmres``.  For
    ``ideal_gmres`` the value equals ``upper_bound`` (the norm of the
    returned feasible polynomial) and ``lower_bound`` is the GMRES ratio of
    the solver's dual block (:func:`_gmres_ratio`).  For
    ``worst_case_gmres`` the value equals ``lower_bound`` (phi at the
    witness, a certified lower bound on the true worst case) and
    ``upper_bound`` is the caller's ceiling: the ideal value under
    ``verify_chain``, else the trivial bound 1.  The two values come from
    different computations, so a worst case that meets the ideal value may
    lie a few ulps above it.

    ``witness_vector`` is a unit vector that attains the value: for
    ``ideal_gmres`` one whose own GMRES ratio reaches the lower bound, to
    within 1e-10, where the solver's dual has a rank-one part, else (wc <
    ideal, as on Toh's matrix at k = 3) the top right singular vector of
    ``p(A)``.

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
    alpha, beta, _, _, _, info = lapack.zggev(
        pencil, np.diag(np.r_[np.ones(m - 1), d[m - 1]]), compute_vl=0, compute_vr=0
    )
    if info:
        raise NoConvergence(f"comrade pencil eigensolve failed (zggev info {info})")
    theta = alpha[beta != 0] / beta[beta != 0]
    theta = np.sort(theta[np.isfinite(theta)])
    return dense_core.scaled_back(theta.view(np.float64), e).view(np.complex128)


def _spectrum(basis: np.ndarray, x: np.ndarray, mu: float):
    """F_mu at ``d = x[:k] + i x[k:]`` from one ``zheevd`` call (else
    :class:`NoConvergence`): ``(F_mu, P, lambda, V, w)`` with ``P = P(d)``,
    ``P^H P = V diag(lambda) V^H`` (ascending) and ``w = softmax(lambda / mu)``."""
    k, n = basis.shape[:2]
    p = ((x[:k] + 1j * x[k:]) @ basis.reshape(k, -1)).reshape(n, n)
    p.flat[:: n + 1] += 1.0
    lam, vecs, info = lapack.zheevd(p.conj().T @ p, lower=1, overwrite_a=1)
    if info:
        raise NoConvergence(f"Hermitian eigensolve failed (zheevd info {info})")
    return _weighted(p, lam, vecs, mu)


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
    """Minimize ``||P(d)||``, ``P(d) = I + d_1 Q_1 + ... + d_k Q_k``.

    The start is the Frobenius-norm minimizer ``d_j = -<Q_j, I> =
    -conj(tr Q_j)`` (the ``Q_j`` are orthonormal in ``tr(X^H Y)``) when
    ``0 < ||P(d)|| < 1`` there, else d = 0 (``P = I``, taken without an
    eigensolve); the start's one eigendecomposition is the first state.
    Damped Newton with the exact Hessian of :func:`_derivatives` minimizes
    the smoothed top eigenvalue of ``X = P^H P``,

        F_mu(d) = lambda_max + mu log sum_i exp((lambda_i - lambda_max) / mu),

    which is convex in d.  The step is a Cholesky solve (``dposv``), else
    the minimum-norm least-squares one.  Armijo backtracking from ``t =
    min(1, 4 l / ||step||)``, l the stage's last accepted step length, runs
    while the predicted decrease exceeds ``4 eps |F_mu|``; a trial evaluates
    only :func:`_spectrum`, the derivatives are built once per accepted point.
    ``mu`` starts at ``0.01 ||P(start)||^2``, small enough not to pull a
    start near the optimum away, and shrinks tenfold per stage until the
    norm and the lower bound meet within ``_BRACKET_GAP`` or ``mu`` reaches
    rounding level.  A stage ends at its first point whose predicted
    decrease is at the rounding level, where the lower bound is taken: the
    :func:`_gmres_ratio` of the dual block ``V diag(w)^(1/2)``.  The stage
    ends lie O(mu) from the optimum when the top singular value is multiple,
    so the next stage starts at their Richardson extrapolant to mu = 0; its
    norm is an upper bound too.

    Returns ``(d, norm, spectrum, lower)``: the best coefficients seen;
    ``norm = ||P(d)|| = sqrt(lambda_max) <= 1`` and ``spectrum = (P,
    lambda, V, w)``, the kept eigendecomposition of ``P(d)^H P(d)`` with its
    dual weights; and the best lower bound, at most ``norm``.
    """
    k, n = basis.shape[:2]
    d = -np.trace(basis, axis1=1, axis2=2).conj()
    x = np.concatenate([d.real, d.imag])
    _, p, lam, vecs, _ = _spectrum(basis, x, 1.0)  # reweighted with mu below
    mu = 0.01 * lam[-1]
    if not 0.0 < mu < 0.01:  # no better than P = I, or P = 0, where mu = 0
        x, mu, lam = np.zeros(2 * k), 0.01, np.ones(n)
        p, vecs = np.eye(n, dtype=np.complex128), np.eye(n, dtype=np.complex128)
    state, ends, length = _weighted(p, lam, vecs, mu), [], np.inf
    upper, lower = float(np.sqrt(lam[-1])), 0.0
    best = x, state
    while upper - lower > _BRACKET_GAP and mu >= 1e-14 * upper**2:
        for _ in range(_NEWTON_STEPS):
            grad, hess = _derivatives(basis, state, mu)
            step, info = lapack.dposv(hess, -grad)[1:]
            if info:  # not positive definite: the minimum-norm step
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            slope, size = float(grad @ step), float(np.linalg.norm(step))
            level = 4.0 * np.finfo(float).eps * abs(state[0])
            if -slope <= level:
                break
            t = min(1.0, 4.0 * length / size)  # length = inf at a stage start
            trial = _spectrum(basis, x + t * step, mu)
            while trial[0] > state[0] + 0.25 * t * slope and -t * slope > level:
                t *= 0.5
                trial = _spectrum(basis, x + t * step, mu)
            if trial[0] > state[0] + 0.25 * t * slope:
                break
            x, state, length = x + t * step, trial, t * size
        _, p, lam, vecs, w = state
        value = float(np.sqrt(max(lam[-1], 0.0)))
        if value < upper:
            best, upper = (x, state), value
        lower = max(lower, _gmres_ratio(basis, vecs * np.sqrt(w)))
        mu, length = 0.1 * mu, np.inf
        ends = (ends + [x])[-3:]
        if ends[1:]:  # Richardson extrapolation of the stage ends to mu = 0
            x = (np.dot([10 / 8910, -100 / 810, 1000 / 891], ends) if ends[2:]
                 else x + (x - ends[0]) / 9)
            state = _spectrum(basis, x, mu)
            value = float(np.sqrt(max(state[2][-1], 0.0)))
            if value < upper:
                best, upper = (x, state), value
        else:
            state = _weighted(p, lam, vecs, mu)
    x, state = best
    return x[:k] + 1j * x[k:], upper, state[1:], min(lower, upper)


def _gmres_ratio(basis: np.ndarray, block: np.ndarray) -> float:
    """``min over c of ||B + sum_j c_j Q_j B||_F / ||B||_F`` for a vector or
    n x m block B, less a rounding allowance ``n eps (1 + sum_j |c_j|)``.

    One least-squares solve on ``[Q_1 B, .., Q_k B]``.  For a vector it is
    the vector's own GMRES ratio; for any B a lower bound on the ideal
    value, as ``||P B||_F <= ||P|| ||B||_F`` for every P.
    """
    k, n = basis.shape[:2]
    b = block.ravel()
    kb = (basis @ block).reshape(k, -1).T  # the columns vec(Q_j B)
    c = np.linalg.lstsq(kb, -b, rcond=None)[0]
    ratio = float(np.linalg.norm(b + kb @ c) / np.linalg.norm(b))
    return max(ratio - n * np.finfo(float).eps * (1.0 + float(np.abs(c).sum())), 0.0)


def _dual_witness(basis: np.ndarray, p, vecs, w, lower: float) -> np.ndarray:
    """A unit v whose own GMRES polynomial is P, else P's top eigenvector.

    That holds when ``<P v, Q_j v> = c^H G_j c = 0``, j = 1..k, for ``v =
    V c`` in the eigenvectors of ``P^H P`` with dual weight ``w_i > 1e-12
    w_max`` and ``G_j = (Q_j V)^H P V``; then ``phi(v) = ||P v||``.
    Gauss-Newton from ``c = sqrt(w)`` takes min-norm least-squares steps on
    the 2k real residuals, with two rows that keep the step orthogonal to c
    and ``i c`` (the residual is homogeneous of degree 2), each halved up to
    three times until it shrinks the residual.  It stops below 1e-12 of
    ``max |G_j|``, at a step that does not shrink it, or after
    ``_WITNESS_STEPS`` steps.  v is kept if its own :func:`_gmres_ratio`
    reaches the lower bound, the ratio of the whole dual block, less
    ``_BRACKET_GAP``: the two agree only to rounding, and the worst case's
    ascent stops at that gap too.  None is sought where the dual certifies
    nothing (lower bound 0), keeps one eigenvector, or the top eigenvector
    has a residual within 1e-8 of ``max |G_j|``.
    """
    keep = w > 1e-12 * w[-1]
    top = vecs[:, keep]
    # with one kept eigenvector the search could only turn the phase of c
    if lower <= 0.0 or top.shape[1] == 1:
        return vecs[:, -1]
    g = (basis @ top).conj().swapaxes(1, 2) @ (p @ top)
    scale = float(np.abs(g).max())
    if np.linalg.norm(g[:, -1, -1]) <= 1e-8 * scale:
        return vecs[:, -1]
    k, m = g.shape[:2]
    both = np.concatenate([g, g.conj().swapaxes(1, 2)])
    jac = np.empty((k + 1, 2 * m), dtype=np.complex128)
    c = np.sqrt(w[keep]).astype(np.complex128)
    c /= np.linalg.norm(c)
    res = c.conj() @ g @ c
    size = np.linalg.norm(res)
    for _ in range(_WITNESS_STEPS):
        if size <= 1e-12 * scale:
            break
        # d(c^H G_j c) = s_j dc + t_j conj(dc), s_j = c^H G_j, t_j = G_j c;
        # the last row is c^H dc
        ts = both @ c
        t, s = ts[:k], ts[k:].conj()
        jac[:k, :m], jac[:k, m:] = s + t, 1j * (s - t)
        jac[k, :m], jac[k, m:] = c.conj(), 1j * c.conj()
        rhs = np.concatenate([-res.real, [0.0], -res.imag, [0.0]])
        step = np.linalg.lstsq(np.concatenate([jac.real, jac.imag]), rhs, rcond=None)[0]
        step = step[:m] + 1j * step[m:]
        for _ in range(4):  # the step, halved until it shrinks the residual
            trial = (c + step) / np.linalg.norm(c + step)
            trial_res = trial.conj() @ g @ trial
            if np.linalg.norm(trial_res) < size:
                break
            step /= 2
        else:
            break
        c, res, size = trial, trial_res, np.linalg.norm(trial_res)
    v = top @ c
    if _gmres_ratio(basis, v) >= lower - _BRACKET_GAP:
        return v
    return vecs[:, -1]


def ideal_gmres(a, k: int) -> MinimaxResult:
    """Minimize ``||p(A)||`` over polynomials p in pi_k.

    One solve at depth k, from the better of p = 1 and the polynomial of
    least Frobenius norm, with no randomness; at depth 1,
    ``alpha = 1 / theta_1`` minimizes ``||I - alpha A||``.  The value is the
    spectral norm of the returned polynomial (an upper bound on the true
    minimum: a stage end of the solver or an extrapolant of its stage ends)
    and the lower bound the GMRES ratio of the solver's dual block, both
    from the solver's own eigendecompositions in an orthonormal basis of
    ``span{A, .., A^k}``, so neither depends on the scale of A; the roots
    come from that basis's recurrence.  A gap above 1e-10, the one the
    solver aims for, flags the result non-certified, but both bounds remain
    sound.  The witness is a unit vector whose own GMRES ratio lies in the
    bracket or at most 1e-10 below it, where the solver's dual has a
    rank-one part (:func:`_dual_witness`), else p(A)'s top right singular
    vector.
    """
    q, h, e = _orthonormal_basis(as_matrix(a), check_depth(k))
    d, upper, (p, _, vecs, w), lower = _minimize_norm(q)
    witness = _dual_witness(q, p, vecs, w, lower)
    certified = bool(upper - lower <= _BRACKET_GAP)
    return MinimaxResult(upper, _roots(h, d, e), witness, lower, upper, certified)


def _ascend(mat: np.ndarray, v: np.ndarray, k: int, target: float) -> np.ndarray:
    """The best point of quasi-Newton climbs on ``phi^2 / 2``, one from each
    column of ``v``, renormalized.

    Each column climbs on its own 2n real coordinates, with a dense BFGS
    inverse Hessian, first ``0.1 ||v|| / ||g||`` times I for its gradient g
    and updated only where ``s^T y > 0``, and its own Armijo halving (c =
    1e-4) from the full step.  One kernel pass per round evaluates every
    live column's trial point.  A column is done once its stationarity
    residual ``||g|| ||v|| / phi^2`` is at most 1e-8 or its predicted rise
    is at the rounding level ``4 eps phi^2 / 2``, as at a start where g =
    0.  The climb ends once the leading column, the highest phi accepted,
    is done or reaches ``target``, or after ``_ASCENT_EVALS`` passes.
    """
    phi, grad = _gradients(mat, v, k)
    x = np.ascontiguousarray(v.T).view(np.float64)  # row b: column b, Re and Im
    grad = np.ascontiguousarray(grad.T).view(np.float64)
    cols, size = x.shape
    norms = np.linalg.norm(grad, axis=1)
    scale = np.divide(0.1 * np.linalg.norm(x, axis=1), norms, out=np.zeros(cols), where=norms > 0)
    inverse = scale[:, None, None] * np.eye(size)
    direction, step, slope = scale[:, None] * grad, np.ones(cols), scale * norms**2
    rounding = 2.0 * np.finfo(float).eps
    done = slope <= rounding * phi**2
    for _ in range(_ASCENT_EVALS - 1):
        lead = int(np.argmax(phi))
        if done[lead] or phi[lead] >= target:
            break
        live = np.flatnonzero(~done)
        trial = x[live] + step[live, None] * direction[live]
        trial_phi, trial_grad = _gradients(mat, trial.view(np.complex128).T, k)
        trial_grad = np.ascontiguousarray(trial_grad.T).view(np.float64)
        up = trial_phi**2 >= phi[live] ** 2 + 2e-4 * step[live] * slope[live]
        go, stay = live[up], live[~up]
        # BFGS on -phi^2 / 2: H += (rho^2 y'Hy + rho) s s' - rho (Hy s' + s y'H)
        s, y = trial[up] - x[go], grad[go] - trial_grad[up]
        sy = np.einsum("bi,bi->b", s, y)
        s, y, rho, at = s[sy > 0], y[sy > 0], 1.0 / sy[sy > 0], go[sy > 0]
        hy = np.einsum("bij,bj->bi", inverse[at], y)
        cross = hy[:, :, None] * s[:, None, :]
        inverse[at] += (rho**2 * np.einsum("bi,bi->b", y, hy) + rho)[:, None, None] * (
            s[:, :, None] * s[:, None, :]
        ) - rho[:, None, None] * (cross + cross.swapaxes(1, 2))
        x[go], phi[go], grad[go], step[go] = trial[up], trial_phi[up], trial_grad[up], 1.0
        direction[go] = np.einsum("bij,bj->bi", inverse[go], grad[go])
        slope[go] = np.einsum("bi,bi->b", grad[go], direction[go])
        step[stay] *= 0.5
        residual = np.linalg.norm(x[live], axis=1) * np.linalg.norm(grad[live], axis=1)
        rise = step[live] * slope[live]
        done[live] = (residual <= 1e-8 * phi[live] ** 2) | (rise <= rounding * phi[live] ** 2)
    best = x[int(np.argmax(phi))].view(np.complex128)
    return best / np.linalg.norm(best)


def worst_case_gmres(a, k: int, starts, ceiling: float = 1.0) -> MinimaxResult:
    """Maximize ``min over p in pi_k of ||p(A) v|| / ||v||`` over v != 0.

    ``starts`` is an n x B block of finite nonzero vectors, B >= 1, such as
    sampled initial residuals: each column is evaluated, so the value is
    never below the best one's ratio, and the best 16 of them climb.
    ``ceiling``, a finite number >= 0 and not a bool, is a known upper bound
    on the worst case, such as ``ideal_gmres(a, k).value``; the default 1 is
    the bound from p = 1.  The ascent stops, or never starts, once phi comes
    within 1e-10 of it.  The value is a certified lower bound on the true worst
    case; the bracket ``[value, ceiling]`` is certified when ``|ceiling -
    value| <= 1e-10``.  A zero column, as any other argument outside its
    rule, raises :class:`InvalidSpec`.
    """
    scaled, k = dense_core.binary_scaled(as_matrix(a))[0], check_depth(k)
    finite = isinstance(ceiling, Real) and 0 <= ceiling < np.inf
    if isinstance(ceiling, bool) or not finite:
        raise InvalidSpec(f"invalid ceiling {ceiling!r}: need a finite number >= 0")
    pool_values = min_residual_values(scaled, starts, k)
    pool = np.asarray(starts, dtype=np.complex128)
    pool = pool / np.hypot.reduce(np.abs(pool), axis=0)  # no square overflows
    target = ceiling - _BRACKET_GAP
    best_v = pool[:, int(np.argmax(pool_values))]
    if pool_values.max() < target:
        order = np.argsort(-pool_values, kind="stable")[:_ASCENT_STARTS]
        best_v = _ascend(scaled, pool[:, order], k, target)
    best_phi = float(min_residual_values(scaled, best_v[:, None], k)[0])
    certified = bool(abs(ceiling - best_phi) <= _BRACKET_GAP)
    return MinimaxResult(best_phi, None, best_v, best_phi, ceiling, certified)


def one_step_ideal(a) -> MinimaxResult:
    """``ideal_gmres(a, 1)``: the optimal step of ``||I - alpha A||`` is
    ``alpha = 1 / theta_1`` for the one root, or 0 where ``roots`` is empty.
    The name stays only because the benchmark's workload and its tracer's
    ``SPANS`` call it."""
    return ideal_gmres(a, 1)


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

    Intended as a test oracle: supports k up to 3 and at most 12 finite
    eigenvalues, raising :class:`InvalidSpec` beyond that, as for any other
    argument out of range.  When some eigenvalue vanishes the constraint
    ``p(0) = 1`` pins the value to 1.

    Two passes of phase-discretized linear programming: a shared coarse
    phase grid, then per-eigenvalue refinement around the optimal phases of
    the first solution.  The returned number is the exact objective at the
    best LP solution, so it always upper-bounds the true minimax value; the
    discretization keeps the excess below 1e-7 relative.
    """
    try:
        lam = np.asarray(eigenvalues, dtype=np.complex128).ravel()
    except (TypeError, ValueError):  # ragged or not numbers
        raise InvalidSpec("oracle eigenvalues must be numbers") from None
    k = check_int(k, "oracle depth", 1, 3)
    if not 1 <= lam.size <= 12:
        raise InvalidSpec(f"oracle supports 1..12 eigenvalues, got {lam.size}")
    if not np.isfinite(lam).all():
        raise InvalidSpec("oracle eigenvalues must be finite")
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
