"""Solvers for the worst-case and ideal GMRES quantities.

For a square matrix A and depth k the two quantities of interest are

    worst_case(A, k) = max over v != 0 of  min over p in pi_k  ||p(A) v|| / ||v||,
    ideal(A, k)      = min over p in pi_k  ||p(A)||,

with pi_k the polynomials of degree at most k normalized to p(0) = 1.
The worst case never exceeds the ideal value, and both lie in [0, 1]
because p = 1 is admissible.  At depth 1 the two coincide.

``ideal_gmres`` minimizes the nonsmooth convex function
``c -> sigma_max(I + c_1 A + ... + c_k A^k)`` by multi-start projected
subgradient descent with Polyak-style steps against a running lower bound,
then sharpens the incumbent with cutting planes (exact subgradients from
the top singular pair, trust-region stabilized), falling back to a
deterministic Nelder-Mead polish only when the cutting-plane model has not
closed.  The returned upper bound is always certified (it is the norm of a
feasible polynomial); the lower bound comes from worst-case probes.

``worst_case_gmres`` runs alternating maximization on the unit sphere: the
inner polynomial problem is solved exactly per candidate vector, the outer
ascent uses central finite-difference gradients projected to the tangent
space with renormalization as the retraction.  Every evaluated candidate is
a certified lower bound on the true worst case, so under-convergence is
safe for the inequality checks downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import optimize

from . import dense_core
from .dense_core import as_matrix
from .errors import BudgetExceeded, DegenerateImage, NoConvergence
from .krylov import min_residual_values, optimal_alpha

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


@dataclass(frozen=True)
class SolverOptions:
    """Budget and determinism knobs shared by the minimax solvers.

    starts
        Number of optimization starts (a few deterministic construction
        starts are always included; random starts fill up the rest).
    max_iters
        Iteration cap per start.
    seed
        Root seed; fixes the whole run including probe vectors.
    tolerance
        Certification gap target: a result is flagged certified when
        ``upper_bound - lower_bound <= tolerance``.
    fd_step
        Central-difference step scale of the sphere ascent, applied as
        ``fd_step * (1 + ||v||)``.
    ascent_step
        Initial step length of the sphere ascent.
    max_halvings
        The ascent halves its step on non-improvement and gives up on a
        start after this many halvings.
    probes
        Number of random probe vectors for the ideal lower bound.
    polish_fevals
        Function-evaluation budget of the Nelder-Mead polish stage.
    """

    starts: int = 16
    max_iters: int = 200
    seed: int = 0
    tolerance: float = 1e-4
    fd_step: float = 1e-6
    ascent_step: float = 0.5
    max_halvings: int = 25
    probes: int = 32
    polish_fevals: int = 6000

    def __post_init__(self):
        for name in (
            "starts",
            "max_iters",
            "tolerance",
            "fd_step",
            "ascent_step",
            "max_halvings",
            "probes",
            "polish_fevals",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"SolverOptions.{name} must be positive")
        if self.seed < 0:
            raise ValueError("SolverOptions.seed must be non-negative")


@dataclass(frozen=True)
class MinimaxResult:
    """Outcome of one minimax solve.

    For ``ideal_gmres`` the value equals ``upper_bound`` (the norm of the
    returned feasible polynomial) and ``lower_bound`` is the best worst-case
    probe.  For ``worst_case_gmres`` the value is itself a certified lower
    bound on the true worst case; ``upper_bound`` is the trivial ceiling 1
    and ``certified`` is False because that solver carries no two-sided
    certificate.
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


def _nelder_mead_polish(fun, x0: np.ndarray, fevals: int) -> tuple[np.ndarray, float]:
    """Two restarted Nelder-Mead passes; deterministic."""
    best_x, best_f = x0, fun(x0)
    for budget in (fevals, max(fevals // 2, 100)):
        res = optimize.minimize(
            fun,
            best_x,
            method="Nelder-Mead",
            options={
                "maxfev": budget,
                "xatol": 1e-12,
                "fatol": 1e-13,
            },
        )
        if res.fun < best_f:
            best_x, best_f = res.x, float(res.fun)
    return best_x, best_f


def _refine_cutting_planes(
    fun_and_subgrad,
    x0: np.ndarray,
    budget: int,
    target_gap: float,
) -> tuple[np.ndarray, float, float]:
    """Kelley cutting-plane descent for a convex function of few variables.

    Each cut ``f(x) >= f_i + s_i . (x - x_i)`` is globally valid, so the
    model LP minimum lower-bounds the objective on the current box.  The box
    is centered on the incumbent and halves on non-improving steps, which
    tames the oscillation plain Kelley iterations are prone to.  Returns the
    incumbent, its value, and the final model gap.
    """
    dim = x0.size
    f0, s0 = fun_and_subgrad(x0)
    x_best, f_best = x0.copy(), f0
    cuts_s = [s0]
    cuts_rhs = [float(s0 @ x0) - f0]
    radius = 1.0 + float(np.max(np.abs(x0)))
    gap = np.inf
    objective = np.zeros(dim + 1)
    objective[dim] = 1.0
    for _ in range(budget):
        a_ub = np.column_stack([np.array(cuts_s), -np.ones(len(cuts_s))])
        bounds = [(x_best[i] - radius, x_best[i] + radius) for i in range(dim)]
        bounds.append((0.0, f_best))
        res = optimize.linprog(
            objective,
            A_ub=a_ub,
            b_ub=np.array(cuts_rhs),
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            break
        x_new = res.x[:dim]
        gap = f_best - float(res.x[dim])
        if gap <= target_gap:
            break
        f_new, s_new = fun_and_subgrad(x_new)
        cuts_s.append(s_new)
        cuts_rhs.append(float(s_new @ x_new) - f_new)
        if f_new < f_best - 1e-15:
            x_best, f_best = x_new.copy(), f_new
        else:
            radius *= 0.5
            if radius < 1e-11:
                break
    return x_best, f_best, gap


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

    Returns a :class:`MinimaxResult` whose value is the spectral norm of the
    best polynomial found (a certified upper bound on the true minimum)
    together with a certified lower bound from worst-case probes.  When the
    gap exceeds ``opts.tolerance`` the result is flagged non-certified but
    is still returned; the upper bound remains sound.
    """
    mat = as_matrix(a)
    k = _check_depth(k)
    opts = opts or SolverOptions()
    n = mat.shape[0]
    powers = _matrix_powers(mat, k)
    eye = np.eye(n, dtype=np.complex128)

    def poly(c: np.ndarray) -> np.ndarray:
        return eye + np.tensordot(c, powers, axes=1)

    def value(c: np.ndarray) -> float:
        p = poly(c)
        top = float(np.linalg.eigvalsh(p.conj().T @ p)[-1])
        return float(np.sqrt(max(top, 0.0)))

    def value_and_subgrad(c: np.ndarray):
        p = poly(c)
        vals, vecs = np.linalg.eigh(p.conj().T @ p)
        w = vecs[:, -1]
        pw = p @ w
        sigma = float(np.linalg.norm(pw))
        if sigma < 1e-15:
            return sigma, w, None
        u = pw / sigma
        grad = np.array([np.vdot(u, powers[j] @ w) for j in range(k)])
        return sigma, w, grad

    seq = np.random.SeedSequence(opts.seed)
    probe_seed, start_seed = seq.spawn(2)
    probe_rng = np.random.default_rng(probe_seed)
    start_rng = np.random.default_rng(start_seed)

    probe_block = _random_unit_block(probe_rng, n, opts.probes)
    probe_values = min_residual_values(mat, probe_block, k)
    lower = float(np.max(probe_values))

    norm_a, _, w_top = dense_core.top_singular_triple(mat)
    scale = max(norm_a, np.finfo(float).tiny)

    starts = [np.zeros(k, dtype=np.complex128)]
    try:
        alpha_sv = optimal_alpha(mat, w_top).alpha_star
        starts.append(_damped_power_coefficients(alpha_sv, k))
    except DegenerateImage:
        pass
    one_step = one_step_ideal(
        mat,
        replace(opts, starts=max(4, opts.starts // 2), polish_fevals=2000),
    )
    starts.append(_damped_power_coefficients(one_step.alpha, k))
    column_scales = np.array([0.7 / scale**j for j in range(1, k + 1)])
    while len(starts) < opts.starts:
        c = (
            start_rng.standard_normal(k) + 1j * start_rng.standard_normal(k)
        ) * column_scales
        starts.append(c)

    best_f = np.inf
    best_c = starts[0]
    # The Polyak phase only has to deliver a decent incumbent; the
    # cutting-plane stage below owns final convergence.
    polyak_iters = min(opts.max_iters, 60)
    for c0 in starts:
        c = np.asarray(c0, dtype=np.complex128).copy()
        for it in range(polyak_iters):
            f, _, grad = value_and_subgrad(c)
            if f < best_f:
                best_f, best_c = f, c.copy()
            if grad is None:
                break
            gn2 = float(np.sum(np.abs(grad) ** 2))
            if gn2 <= 1e-30:
                break
            gap = f - lower
            if gap <= 1e-14:
                break
            # Polyak step against the running lower bound, with a
            # diminishing cap so a loose bound cannot cause blowup.
            t = min(gap / gn2, 1.0 / (np.sqrt(gn2) * np.sqrt(1.0 + it)))
            c = c - t * np.conj(grad)

    def real_objective(x: np.ndarray) -> float:
        return value(x[:k] + 1j * x[k:])

    def real_value_subgrad(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, _, grad = value_and_subgrad(x[:k] + 1j * x[k:])
        if grad is None:
            return f, np.zeros(2 * k)
        return f, np.concatenate([grad.real, -grad.imag])

    x0 = np.concatenate([best_c.real, best_c.imag])
    model_gap = np.inf
    if best_f > 1e-13:
        x_cut, f_cut, model_gap = _refine_cutting_planes(
            real_value_subgrad, x0, budget=140, target_gap=1e-10
        )
        if f_cut < best_f:
            best_f, best_c = f_cut, x_cut[:k] + 1j * x_cut[k:]
            x0 = x_cut
    if model_gap > 1e-7:
        x_pol, f_pol = _nelder_mead_polish(real_objective, x0, opts.polish_fevals)
        if f_pol < best_f:
            best_c = x_pol[:k] + 1j * x_pol[k:]

    p_best = dense_core.evaluate_residual_polynomial(mat, best_c)
    upper = dense_core.spectral_norm(p_best)
    _, _, witness = dense_core.top_singular_triple(p_best)

    # Sharpen the lower bound: every unit vector certifies one, and pushing
    # the best probes uphill usually closes the gap to the worst-case value.
    def phi_batch(block: np.ndarray) -> np.ndarray:
        return min_residual_values(mat, block, k)

    cert_seeds = [witness, probe_block[:, int(np.argmax(probe_values))]]
    for v0 in cert_seeds:
        if upper - lower <= 0.25 * opts.tolerance:
            break
        val0 = float(phi_batch(v0[:, None])[0])
        _, refined = _ascend_on_sphere(
            phi_batch, v0, val0, opts, min(opts.max_iters, 80)
        )
        lower = max(lower, refined)
    lower = min(lower, upper)  # guard against eigensolver noise at equality
    return MinimaxResult(
        value=upper,
        coefficients=best_c,
        witness_vector=witness,
        lower_bound=lower,
        upper_bound=upper,
        gap_tolerance=opts.tolerance,
        certified=(upper - lower) <= opts.tolerance,
        starts_used=len(starts),
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
    one_step = one_step_ideal(
        mat, replace(opts, starts=max(4, opts.starts // 4), polish_fevals=1500)
    )
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


def one_step_ideal(a, opts: Optional[SolverOptions] = None) -> OneStepIdealResult:
    """Minimize ``||I - alpha A||`` over complex alpha.

    Same subgradient machinery as :func:`ideal_gmres` restricted to a single
    coefficient, with a Nelder-Mead polish in the two real parameters.
    """
    mat = as_matrix(a)
    opts = opts or SolverOptions(starts=8, max_iters=150, polish_fevals=2000)
    n = mat.shape[0]
    eye = np.eye(n, dtype=np.complex128)

    def step_matrix(alpha: complex) -> np.ndarray:
        return eye - alpha * mat

    def value(alpha: complex) -> float:
        p = step_matrix(alpha)
        top = float(np.linalg.eigvalsh(p.conj().T @ p)[-1])
        return float(np.sqrt(max(top, 0.0)))

    def value_and_subgrad(alpha: complex):
        p = step_matrix(alpha)
        vals, vecs = np.linalg.eigh(p.conj().T @ p)
        w = vecs[:, -1]
        pw = p @ w
        sigma = float(np.linalg.norm(pw))
        if sigma < 1e-15:
            return sigma, None
        u = pw / sigma
        return sigma, -np.vdot(u, mat @ w)

    seq = np.random.SeedSequence(opts.seed)
    probe_seed, start_seed = seq.spawn(2)
    probe_block = _random_unit_block(
        np.random.default_rng(probe_seed), n, opts.probes
    )
    lower = float(np.max(min_residual_values(mat, probe_block, 1)))

    norm_a, _, w_top = dense_core.top_singular_triple(mat)
    scale = max(norm_a, np.finfo(float).tiny)
    starts: list[complex] = [0.0 + 0.0j]
    try:
        starts.append(optimal_alpha(mat, w_top).alpha_star)
    except DegenerateImage:
        pass
    trace = complex(np.trace(mat))
    frob_sq = float(np.linalg.norm(mat, "fro") ** 2)
    if frob_sq > 0.0:
        starts.append(np.conj(trace) / frob_sq)
    rng = np.random.default_rng(start_seed)
    while len(starts) < opts.starts:
        starts.append(
            complex(rng.standard_normal() + 1j * rng.standard_normal()) / scale
        )

    best_f = np.inf
    best_alpha = 0.0 + 0.0j
    for alpha0 in starts:
        alpha = complex(alpha0)
        for it in range(opts.max_iters):
            f, grad = value_and_subgrad(alpha)
            if f < best_f:
                best_f, best_alpha = f, alpha
            if grad is None:
                break
            gn2 = abs(grad) ** 2
            if gn2 <= 1e-30:
                break
            gap = f - lower
            if gap <= 1e-14:
                break
            t = min(gap / gn2, 1.0 / (np.sqrt(gn2) * np.sqrt(1.0 + it)))
            alpha = alpha - t * np.conj(grad)

    def real_objective(x: np.ndarray) -> float:
        return value(complex(x[0], x[1]))

    x_pol, f_pol = _nelder_mead_polish(
        real_objective,
        np.array([best_alpha.real, best_alpha.imag]),
        opts.polish_fevals,
    )
    if f_pol < best_f:
        best_alpha = complex(x_pol[0], x_pol[1])

    final = dense_core.spectral_norm(step_matrix(best_alpha))
    return OneStepIdealResult(final, best_alpha)


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
