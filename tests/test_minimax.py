import functools
import json

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from scipy.linalg import lapack

from gmreslab import (
    ExperimentConfig,
    InvalidSpec,
    MatrixSpec,
    generate_matrix,
    ideal_gmres,
    run_experiment,
    scalar_minimax_oracle,
    spectral_norm,
    verify_chain,
    worst_case_gmres,
)
from gmreslab import NoConvergence, bounds, dense_core, hermitian_part, krylov, minimax
from conftest import deep_matrices, random_complex, random_starts
import oracles

PINNED_TOL = 1e-6
EQUALITY_TOL = 1e-5
SANDWICH_SLACK = 1e-6
CEILING_SLACK = 1e-12
# scalar_minimax_oracle overestimates by less than 1e-7; the benchmark's
# reference check allows ten times that.
ORACLE_TOL = 1e-6


def toh(eps):
    """Toh's 4x4 example (SIMAX 1997): wc < ideal strictly at k = 3."""
    return np.array(
        [[1, eps, 0, 0], [0, -1, 1 / eps, 0], [0, 0, 1, eps], [0, 0, 0, -1]],
        dtype=np.complex128,
    )


def test_ideal_identity_is_zero():
    assert ideal_gmres(np.eye(3), 1).value == pytest.approx(0.0, abs=1e-10)


def test_ideal_two_point_equioscillation():
    expected, alpha = oracles.equioscillation_two_points()
    res = ideal_gmres(np.diag([1.0, 2.0]), 1)
    assert res.value == pytest.approx(expected, abs=PINNED_TOL)
    assert res.roots.shape == (1,)
    assert res.roots[0] == pytest.approx(1.0 / alpha, abs=1e-5)  # 1.5
    assert res.certified


def test_ideal_three_point_equioscillation():
    """p(z) = 1 - 8z/7 + 2z^2/7 has the roots 2 -+ 1/sqrt(2)."""
    expected, _ = oracles.equioscillation_three_points()
    res = ideal_gmres(np.diag([1.0, 2.0, 3.0]), 2)
    assert res.value == pytest.approx(expected, abs=PINNED_TOL)
    roots = [2.0 - 0.5**0.5, 2.0 + 0.5**0.5]
    assert res.roots.shape == (2,)
    assert np.allclose(res.roots, roots, atol=1e-4)


def test_ideal_certificates_are_ordered():
    rng = np.random.default_rng(23)
    a = random_complex(rng, 7)
    res = ideal_gmres(a, 2)
    assert res.lower_bound <= res.value + 1e-15
    assert res.value <= res.upper_bound
    assert res.value <= 1.0 + CEILING_SLACK
    assert res.certified
    assert res.upper_bound - res.lower_bound <= 1e-8


def test_ideal_real_diagonal_depth_three():
    """diag(1, 2, 3, 4) at k = 3: the equioscillation value is 1/15."""
    res = ideal_gmres(np.diag([1.0, 2.0, 3.0, 4.0]), 3)
    assert abs(res.value - 1.0 / 15.0) <= 1e-8
    assert res.certified


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_toh_ideal_strictly_above_worst_case(eps):
    """Toh's 4x4 matrix (SIMAX 1997): ideal = 0.8 at k = 3, while the worst
    case stays strictly below it, so a worst-case probe can never certify
    the ideal value."""
    a = toh(eps)
    ideal = ideal_gmres(a, 3)
    assert abs(ideal.value - 0.8) <= 1e-8
    assert ideal.certified
    assert worst_case_gmres(a, 3, random_starts(4)).value < ideal.value - 0.05


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ideal_bracket_holds_in_forty_digits(k, monkeypatch):
    """Toh's matrix (eps = 0.5), refereed in 40-digit arithmetic: the upper
    end is the norm of the polynomial of the reported roots to 1e-14, and
    every ratio the solver reports for a block, the lower end among them, is
    at most that block's ratio over the monomial Krylov columns.  With weak
    duality, ratio <= ideal <= norm, so the closed 1e-10 bracket of
    ``certified`` contains the ideal value."""
    a = toh(0.5)
    calls = []
    ratio = minimax._gmres_ratio

    def recording(basis, block):
        calls.append((block.copy(), ratio(basis, block)))
        return calls[-1][1]

    monkeypatch.setattr(minimax, "_gmres_ratio", recording)
    res = ideal_gmres(a, k)
    upper = oracles.polynomial_norm_mp(a, res.roots)
    assert abs(res.upper_bound - upper) <= 1e-14
    referee = [oracles.gmres_ratio_mp(a, block, k) for block, _ in calls]
    assert all(got <= ref for (_, got), ref in zip(calls, referee))
    assert res.lower_bound in [got for _, got in calls] + [res.upper_bound]
    assert res.lower_bound <= max(referee) <= upper
    assert res.certified


@pytest.mark.parametrize("rel_mu", [1e-1, 1e-3])
def test_smoothed_derivatives_match_central_differences(rel_mu):
    """Gradient and exact Hessian of the smoothed objective of the ideal
    solver against central differences, on a random complex 5x5 at k = 3."""
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    basis = minimax._orthonormal_basis(a, 3)[0]
    x = 0.3 * rng.standard_normal(6)
    p = np.eye(5) + np.tensordot(x[:3] + 1j * x[3:], basis, axes=1)
    mu = rel_mu * spectral_norm(p) ** 2
    grad, hess = minimax._derivatives(basis, minimax._spectrum(basis, x, mu), mu)
    h = 1e-5
    fd_grad, fd_hess = [], []
    for e in np.eye(6):
        plus, minus = (minimax._spectrum(basis, x + s * h * e, mu) for s in (1, -1))
        fd_grad.append((plus[0] - minus[0]) / (2 * h))
        fd_hess.append(
            (minimax._derivatives(basis, plus, mu)[0]
             - minimax._derivatives(basis, minus, mu)[0]) / (2 * h)
        )
    assert np.abs(np.array(fd_grad) - grad).max() <= 1e-7 * np.abs(grad).max()
    assert np.abs(np.array(fd_hess) - hess).max() <= 1e-6 * np.abs(hess).max()
    assert np.abs(hess - hess.T).max() <= 1e-12 * np.abs(hess).max()


def _line_search_cases():
    """Bases ``Q_1 .. Q_k`` of the solver tests' inputs: 12 random real and
    complex matrices (n = 3..10, k = 1..4), Toh's matrix with eps = 0.1 at
    k = 3 and the 16x16 case at k = 8."""
    rng = np.random.default_rng(89)
    cases = []
    for i in range(12):
        n, k = int(rng.integers(3, 11)), int(rng.integers(1, 5))
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.5)))
        cases.append((a.real if i % 2 else a, k))
    cases.append((toh(0.1), 3))
    cases.append(
        (np.random.default_rng(3).standard_normal((16, 16)) / 4 + 1.5 * np.eye(16), 8)
    )
    return [minimax._orthonormal_basis(a, k)[0] for a, k in cases]


LINE_SEARCH_CASES = _line_search_cases()


def test_derivatives_once_per_newton_step(monkeypatch):
    """One gradient and Hessian per Newton step and one Newton solve each:
    a Cholesky solve (``dposv``), and the minimum-norm ``lstsq`` only where
    that factorization fails.  The only other ``lstsq`` is the one of each
    lower bound, the GMRES ratio of the solver's dual block."""
    counts = {"derivatives": 0, "cholesky": 0, "failed": 0, "lstsq": 0, "ratio": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def cholesky(*args, **kwargs):
        out = dposv(*args, **kwargs)
        counts["failed"] += bool(out[-1])
        return out

    dposv = counted("cholesky", lapack.dposv)
    monkeypatch.setattr(minimax.lapack, "dposv", cholesky)
    for module, name, key in [
        (minimax, "_derivatives", "derivatives"),
        (np.linalg, "lstsq", "lstsq"),
        (minimax, "_gmres_ratio", "ratio"),
    ]:
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    for basis in LINE_SEARCH_CASES:
        minimax._minimize_norm(basis)
    assert counts["derivatives"] > 0 and counts["ratio"] > 0
    assert counts["cholesky"] == counts["derivatives"]
    assert counts["lstsq"] == counts["failed"] + counts["ratio"]


def test_newton_steps_by_least_squares_alone_close_the_same_brackets(monkeypatch):
    """Where the Cholesky factorization of the Hessian fails, the Newton step
    is the minimum-norm ``lstsq`` solution.  Taken at every step, it closes
    brackets that overlap the Cholesky solver's."""
    dposv = lapack.dposv
    direct = [minimax._minimize_norm(basis) for basis in LINE_SEARCH_CASES]
    monkeypatch.setattr(minimax.lapack, "dposv", lambda *args: dposv(*args)[:2] + (1,))
    for basis, (_, upper, _, lower) in zip(LINE_SEARCH_CASES, direct):
        _, fallback_upper, _, fallback_lower = minimax._minimize_norm(basis)
        assert max(lower, fallback_lower) <= min(upper, fallback_upper) + 1e-12
        assert fallback_upper - fallback_lower <= 1e-10


def _multiple_top_spectrum():
    """Spectrum of the first diagonal matrix of the benchmark's
    ``ideal_sweep`` at seed 0, drawn as in ``perfbench/workloads.py``.  The
    optimal p(A) has a multiple top singular value at k = 1..3
    (sigma^2 = 0.38198772 twice at k = 1, four times equal at k = 2, 3)."""
    rng = np.random.default_rng(13000)
    m = int(rng.integers(2, 9))
    return rng.uniform(0.5, 3.0, size=m) + 1j * rng.uniform(-1.0, 1.0, size=m)


MULTIPLE_TOP = _multiple_top_spectrum()


def test_ideal_solver_work_counts(monkeypatch):
    """Eigendecompositions (``_spectrum`` calls) and Newton steps
    (``_derivatives`` calls) of ``_minimize_norm`` over the line-search
    cases and the multiple-top-singular-value matrix at k = 1..3.  Counts
    do not depend on the machine's speed, so timing noise cannot hide a
    regression.  The ceilings sit about 10% above the 344 and 221 of the
    solver whose line search starts at most 4 times the stage's last
    accepted step length away.  Each line search from the full step made 384
    and 218; the lower bound was then already the GMRES ratio of the dual
    block.  With the norm-duality bound and its polish pass it made 421 and
    255, from p = 1 477 and 425, in the monomial basis, with a duality cap
    and an Armijo polish, 679 and 488, and before stage ends at the rounding
    level and extrapolated starts 1,105 and 784."""
    counts = {"_spectrum": 0, "_derivatives": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(minimax, name, counted(name, getattr(minimax, name)))
    diagonal = np.diag(MULTIPLE_TOP)
    for k in (1, 2, 3):
        minimax._minimize_norm(minimax._orthonormal_basis(diagonal, k)[0])
    for basis in LINE_SEARCH_CASES:
        minimax._minimize_norm(basis)
    assert counts["_spectrum"] <= 380
    assert counts["_derivatives"] <= 240


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiple_top_singular_value_closes_in_few_stages(k, monkeypatch):
    """With a multiple top singular value the stage ends lie O(mu) from
    the optimum, and the extrapolated starts close the gap within 5 stages
    (3, 4 and 4 from the Frobenius-norm minimizer; up to 7 from p = 1, and
    10-11 when each stage started at the last stage end).  A stage is one
    value of mu among the Newton steps.  The returned polynomial may be an
    extrapolant, so its norm is recomputed from its roots."""
    mus = []
    derivatives = minimax._derivatives

    def counted(powers, spec, mu):
        mus.append(mu)
        return derivatives(powers, spec, mu)

    monkeypatch.setattr(minimax, "_derivatives", counted)
    a = np.diag(MULTIPLE_TOP)
    res = ideal_gmres(a, k)
    assert res.upper_bound - res.lower_bound <= 1e-10
    assert abs(res.value - scalar_minimax_oracle(MULTIPLE_TOP, k)) <= ORACLE_TOL
    assert len(set(mus)) <= 5
    p = oracles.polynomial_from_roots(a, res.roots)
    assert abs(spectral_norm(p) - res.value) <= 1e-10


def test_ideal_sixteen_by_sixteen_depth_eight_certifies():
    """The Newton stages close the bracket to the 1e-10 certification gap at
    depth 8 (L-BFGS-B stalled at 1.4e-7 here)."""
    a = np.random.default_rng(3).standard_normal((16, 16)) / 4 + 1.5 * np.eye(16)
    res = ideal_gmres(a, 8)
    assert res.certified
    assert res.upper_bound - res.lower_bound <= 1e-8


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e160])
def test_ideal_depth_two_is_scale_free(s):
    """ideal(s diag(1, 2, 3), 2) = 1/7 at every scale, and the roots scale
    with A; monomial coefficients left the float range at 1e-200 and 1e160."""
    res = ideal_gmres(s * np.diag([1.0, 2.0, 3.0]), 2)
    assert abs(res.value - 1.0 / 7.0) <= 1e-9
    assert res.certified
    want = s * ideal_gmres(np.diag([1.0, 2.0, 3.0]), 2).roots
    assert np.allclose(res.roots, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name, k", [("triu24", 16), ("rand16", 15)])
def test_ideal_norm_rebuilds_from_its_roots_at_depth(name, k):
    """The product of the root factors rebuilds ||p(A)|| to 1e-10 at depth
    (2.7e-15 and 9.0e-17 when measured); rebuilt from monomial coefficients
    it missed by 6.0e-9 and 1.7e-11."""
    a = deep_matrices()[name]
    res = ideal_gmres(a, k)
    p = oracles.polynomial_from_roots(a, res.roots)
    assert abs(spectral_norm(p) - res.value) <= 1e-10


@pytest.mark.parametrize("c", [1e-200, 1e200, 8e307])
def test_ideal_at_extreme_magnitudes(c):
    """ideal(cA) = ideal(A): the Gram matrices inside may not overflow or
    underflow, and the root 1.5 c scales back by 2^1024 at 8e307."""
    res = ideal_gmres(c * np.diag([1.0, 2.0]), 1)
    assert abs(res.value - 1.0 / 3.0) <= 1e-8
    assert res.certified
    assert res.roots == pytest.approx([1.5 * c], rel=1e-8)


def test_ideal_witness_and_roots_recompute():
    """The reported value must match a from-scratch norm evaluation."""
    rng = np.random.default_rng(27)
    a = random_complex(rng, 6)
    res = ideal_gmres(a, 3)
    p = oracles.polynomial_from_roots(a, res.roots)
    assert abs(spectral_norm(p) - res.value) <= 1e-10
    assert np.linalg.norm(res.witness_vector) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(p @ res.witness_vector) == pytest.approx(
        res.value, abs=1e-9
    )


def test_roots_refuse_a_failed_pencil_eigensolve(monkeypatch):
    """``zggev`` reporting info = 1, as a QZ iteration that fails to
    converge does, raises NoConvergence instead of returning its output."""
    routine = lapack.zggev
    monkeypatch.setattr(
        lapack, "zggev", lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1)
    )
    with pytest.raises(NoConvergence, match="zggev info 1"):
        ideal_gmres(np.diag([1.0, 2.0, 4.0]), 2)


def test_ideal_depth_monotonicity():
    rng = np.random.default_rng(33)
    a = random_complex(rng, 6)
    values = [ideal_gmres(a, k).value for k in (1, 2, 3)]
    assert values[1] <= values[0] + SANDWICH_SLACK
    assert values[2] <= values[1] + SANDWICH_SLACK


def test_ideal_depth_monotone_near_scalar():
    a = np.diag([1.0, 1.0 + 1e-9])
    assert ideal_gmres(a, 2).value <= ideal_gmres(a, 1).value + 1e-12


@pytest.mark.parametrize(
    "shift, spread, depths",
    [(1.0, 1e-12, [3]), (1.5e308, 1e300, [1, 2, 3])],
    ids=["unit_shift", "near_float_max"],
)
def test_near_scalar_ideal_meets_starke_without_slack(tmp_path, shift, spread, depths):
    """For A close to a multiple of I the ideal value drops to rounding
    level, below the tiny Starke bound.  The monomial basis stopped about
    1e-9 above the true value here: margins of -2.5e-12 on the first input
    and -1.07e-8 (exit 1) on the second."""
    matrix = {"family": "random_pd_part", "n": 4, "shift": shift, "spread": spread}
    cfg = ExperimentConfig.from_dict(
        {"matrix": matrix, "depths": depths, "trials": 3, "out_dir": str(tmp_path)}
    )
    assert run_experiment(cfg) == 0
    reports = json.loads((tmp_path / "report.json").read_text())["reports"]
    assert [report["k"] for report in reports] == depths
    for report in reports:
        assert report["verdicts"]["ideal_le_starke"]["margin"] >= -1e-14


def test_orthonormal_basis_and_its_change_of_basis():
    """``Q_1 .. Q_k`` are Frobenius-orthonormal and satisfy their Arnoldi
    recurrence ``S Q_(j-1) = sum_(i <= j) H_ij Q_i``, ``Q_0 = I``, for
    ``(S, e) = binary_scaled(A)``, with H upper triangular."""
    rng = np.random.default_rng(53)
    a = random_complex(rng, 6)
    q, h, e = minimax._orthonormal_basis(a, 4)
    flat = q.reshape(4, -1)
    assert np.abs(flat.conj() @ flat.T - np.eye(4)).max() <= 1e-13
    assert not np.tril(h, -1).any()
    s = a / 2.0**e
    previous = np.concatenate([np.eye(6)[None], q[:-1]])
    for j in range(4):
        rebuilt = sum(h[i, j] * q[i] for i in range(j + 1))
        assert np.abs(rebuilt - s @ previous[j]).max() <= 1e-13


def test_dependent_direction_stays_zero():
    """diag(1, 2) spans only {A, A^2}: Q_3 is zero, its divisor infinite,
    the ideal value at k = 3 is rounding and p(z) = (1 - z)(1 - z/2)
    vanishes on the spectrum."""
    a = np.diag([1.0, 2.0])
    q, h, _ = minimax._orthonormal_basis(a, 3)
    assert not q[2].any() and h[2, 2] == np.inf
    res = ideal_gmres(a, 3)
    assert res.value <= 1e-14
    assert np.allclose(res.roots, [1.0, 2.0], rtol=0.0, atol=1e-12)


def test_ideal_deterministic_given_seed():
    rng = np.random.default_rng(39)
    a = random_complex(rng, 5)
    first = ideal_gmres(a, 2)
    second = ideal_gmres(a, 2)
    assert first.value == second.value
    assert np.array_equal(first.roots, second.roots)
    assert first.lower_bound == second.lower_bound


def test_worst_case_identity_is_zero():
    res = worst_case_gmres(np.eye(4), 2, random_starts(4))
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_worst_case_two_point():
    expected, _ = oracles.equioscillation_two_points()
    res = worst_case_gmres(np.diag([1.0, 2.0]), 1, random_starts(2))
    assert res.value == pytest.approx(expected, abs=EQUALITY_TOL)


def test_worst_case_full_depth_is_zero():
    res = worst_case_gmres(np.diag([1.0, 2.0]), 2, random_starts(2))
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_worst_case_extra_starts_are_floor():
    a = np.diag([1.0, 2.0, 4.0]).astype(complex)
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    floor, _ = oracles.min_residual_lstsq(a, v, 1)
    res = worst_case_gmres(a, 1, np.column_stack([v, random_starts(3, 15)]))
    assert res.value >= floor - 1e-14


# Normal matrices of the gallery (scripts/run_gallery.py), where wc = ideal
# = the scalar minimax value on the spectrum (Greenbaum-Gurvits; Joubert).
NORMAL_GALLERY = {
    "diag_real": {"family": "diagonal", "entries": [1.0, 2.0, 3.0, 4.0]},
    "diag_complex": {
        "family": "diagonal",
        "entries": [[1.0, 0.5], [2.0, -0.5], [3.0, 0.25]],
    },
    "normal_random": {"family": "normal_random", "n": 6, "seed": 11},
}


@pytest.mark.parametrize(
    "name, k", [(name, k) for name in NORMAL_GALLERY for k in (1, 2, 3)]
)
def test_worst_case_matches_scalar_oracle_on_normal_gallery(name, k):
    a = generate_matrix(MatrixSpec.from_dict(NORMAL_GALLERY[name]))
    want = scalar_minimax_oracle(np.linalg.eigvals(a), k)
    assert abs(worst_case_gmres(a, k, random_starts(len(a))).value - want) <= 1e-6


@pytest.mark.parametrize("name", sorted(deep_matrices()))
def test_deep_ideal_closes_and_bounds_the_worst_case(name):
    """Past the former cap of depth 8: every ideal bracket closes, and the
    worst case stays at or below the ideal value."""
    a = deep_matrices()[name]
    for k in range(9, 17):
        ideal = ideal_gmres(a, k)
        assert ideal.upper_bound - ideal.lower_bound <= 1e-8
        assert worst_case_gmres(a, k, random_starts(len(a)), ideal.value).value <= ideal.value


def test_verify_chain_passes_at_depth_twelve():
    assert verify_chain(deep_matrices()["rand16"], 12, 20).all_passed


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_worst_case_invariant_under_transpose_and_adjoint(eps):
    """wc(A) = wc(A^T) = wc(A^H) (Faber, Liesen & Tichy, SIMAX 2013), on
    Toh's matrix, where wc < ideal strictly at k = 3."""
    a = toh(eps)
    values = [worst_case_gmres(m, 3, random_starts(4)).value for m in (a, a.T, a.conj().T)]
    assert max(values) - min(values) <= 1e-10


@pytest.mark.parametrize(
    "name, k", [(name, k) for name in NORMAL_GALLERY for k in (1, 2, 3)]
)
def test_ideal_ceiling_closes_the_bracket_on_normal_gallery(name, k):
    """For normal A, wc = ideal: with the ideal value as ceiling the ascent
    stops within 1e-10 below it, and the bracket is certified."""
    a = generate_matrix(MatrixSpec.from_dict(NORMAL_GALLERY[name]))
    ideal = ideal_gmres(a, k)
    res = worst_case_gmres(a, k, random_starts(len(a)), ideal.value)
    assert -1e-15 <= ideal.value - res.value <= minimax._BRACKET_GAP
    assert res.upper_bound == ideal.value
    assert res.lower_bound == res.value
    assert res.certified


def _spec_matrix(spec):
    return generate_matrix(MatrixSpec.from_dict(spec))


BIDIAGONAL = {"family": "bidiagonal", "diag": [1.0, 1.5, 2.0, 2.5], "superdiag": 0.6}
RANDOM_PD_PART = {"family": "random_pd_part", "n": 8, "seed": 3}


def _random_shifted(s):
    """Seeded matrix of order 3..8: complex Gaussian plus 1.5 I where s is a
    multiple of 3, else normal, ``Q diag(d) Q^H`` with Q unitary and d
    complex Gaussian plus 1."""
    rng = np.random.default_rng(s)
    n = int(rng.integers(3, 9))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if s % 3 == 0:
        return g + 1.5 * np.eye(n)
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 1.0
    q = np.linalg.qr(g)[0]
    return q @ np.diag(d) @ q.conj().T


# Depths where the ideal solver's dual holds a rank-one part, a vector whose
# own GMRES polynomial is the ideal one: the normal gallery (wc = ideal,
# Greenbaum-Gurvits; Joubert), Toh's matrix at k = 2, the bidiagonal at k = 2
# and random_pd_part at k = 2, whose top right singular vector is one.  On
# the last three, two normal and one complex, the Gauss-Newton residual of
# the search stops at 2e-8 to 2e-7 of max |G_j|, yet the vector's own GMRES
# ratio meets the dual lower bound.
POOL_MEETS_IDEAL = (
    [(f"{name}-{k}", _spec_matrix(spec), k)
     for name, spec in NORMAL_GALLERY.items() for k in (1, 2, 3)]
    + [(f"toh{eps}-2", toh(eps), 2) for eps in (0.5, 0.1)]
    + [("bidiagonal-2", _spec_matrix(BIDIAGONAL), 2),
       ("random_pd_part-2", _spec_matrix(RANDOM_PD_PART), 2)]
    + [(f"random{s}-{k}", _random_shifted(s), k) for s, k in ((200, 1), (164, 2), (387, 3))]
)


def test_verify_chain_skips_the_ascent_when_the_pool_meets_the_ideal(monkeypatch):
    """On each of ``POOL_MEETS_IDEAL`` the ideal witness attains the ideal
    value, so the worst case makes two kernel passes, the pool and the
    witness's re-evaluation, and no L-BFGS-B evaluation."""
    calls, inside = [], []
    kernel, worst_case = krylov._residual_curves, bounds.worst_case_gmres

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    def counted_worst_case(*args, **kwargs):
        before = len(calls)
        res = worst_case(*args, **kwargs)
        inside.append(len(calls) - before)
        return res

    monkeypatch.setattr(krylov, "_residual_curves", counting)
    monkeypatch.setattr(bounds, "worst_case_gmres", counted_worst_case)
    passes = {}
    for name, a, k in POOL_MEETS_IDEAL:
        assert verify_chain(a, k, 20).all_passed, name
        passes[name] = inside.pop()
    assert passes == dict.fromkeys(passes, 2)


@pytest.mark.parametrize(
    "a, k", [case[1:] for case in POOL_MEETS_IDEAL],
    ids=[case[0] for case in POOL_MEETS_IDEAL],
)
def test_ideal_witness_is_its_own_worst_case(a, k):
    """The witness is a unit vector with ``||p(A) v|| >= lower_bound`` whose
    own GMRES polynomial is p: its residual ratio, by an independent
    least-squares solve, is the ideal value."""
    res = ideal_gmres(a, k)
    v = res.witness_vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    p = oracles.polynomial_from_roots(a, res.roots)
    assert np.linalg.norm(p @ v) >= res.lower_bound
    assert abs(oracles.min_residual_lstsq(a, v, k)[0] - res.value) <= 1e-10


def test_ideal_witness_from_a_one_weight_dual_skips_the_search(monkeypatch):
    """Where the dual keeps one eigenvector of ``P^H P`` the Gauss-Newton
    search could only turn the phase of its coefficient, so the witness is
    that eigenvector and no least-squares solve runs inside the search."""
    lstsq, solves, seen = np.linalg.lstsq, [], []
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda *args, **kw: solves.append(None) or lstsq(*args, **kw)
    )
    search = minimax._dual_witness

    def spied(basis, p, vecs, w, lower):
        solves.clear()
        v = search(basis, p, vecs, w, lower)
        seen.append((np.count_nonzero(w > 1e-12 * w[-1]), lower, len(solves),
                     np.array_equal(v, vecs[:, -1])))
        return v

    monkeypatch.setattr(minimax, "_dual_witness", spied)
    ideal_gmres(random_complex(np.random.default_rng(2), 5), 2)
    (kept, lower, count, top), = seen
    assert (kept, count, top) == (1, 0, True)
    assert lower > 0.0


def test_ideal_witness_is_kept_against_a_lower_bound_a_few_ulps_above_it():
    """The witness's own GMRES ratio and the dual lower bound agree only to
    rounding, so the witness is kept within 1e-10 of the bound, the gap at
    which the ascent stops.  On Toh's matrix (eps = 0.5) at k = 2, a bound 4
    ulps above the found vector's ratio keeps that vector; compared strictly,
    the witness fell back to the top eigenvector, whose ratio is 0.5168."""
    a = toh(0.5)
    q = minimax._orthonormal_basis(a, 2)[0]
    _, value, (p, _, vecs, w), lower = minimax._minimize_norm(q)
    v = minimax._dual_witness(q, p, vecs, w, lower)
    assert abs(oracles.min_residual_lstsq(a, v, 2)[0] - value) <= 1e-10
    ratio = minimax._gmres_ratio(q, v)
    raised = minimax._dual_witness(q, p, vecs, w, ratio + 4 * np.spacing(ratio))
    assert np.array_equal(raised, v)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gmres_ratio_of_a_block_is_the_ratio_of_the_block_diagonal_copy(k):
    """``_gmres_ratio`` of an n x n block B is the GMRES ratio of ``vec(B)``
    for ``I_n (x) A`` and that of a vector v the GMRES ratio of v for A,
    both by an independent least-squares solve on the Krylov block.  On a
    random non-normal A neither exceeds the ideal value."""
    rng = np.random.default_rng(71)
    n = 5
    a = random_complex(rng, n) + np.triu(rng.standard_normal((n, n)), 1)
    q = minimax._orthonormal_basis(a, k)[0]
    block = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ratios = minimax._gmres_ratio(q, block), minimax._gmres_ratio(q, v)
    refs = (oracles.min_residual_lstsq(np.kron(np.eye(n), a), block.ravel(order="F"), k)[0],
            oracles.min_residual_lstsq(a, v, k)[0])
    assert np.allclose(ratios, refs, rtol=0.0, atol=1e-12)
    assert max(ratios) <= ideal_gmres(a, k).value


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_ideal_witness_without_a_rank_one_dual_is_the_top_singular_vector(eps):
    """On Toh's matrix at k = 3 no vector has the ideal polynomial as its
    own (wc < ideal), so the witness stays a top right singular vector of
    p(A), whose ratio lies far below the ideal value.  p(A) has the
    singular values (0.8, 0.8, 0.2, 0.2): the top one is double, so the
    witness is checked to lie in its subspace, not against one basis
    vector of it."""
    a = toh(eps)
    res = ideal_gmres(a, 3)
    p = oracles.polynomial_from_roots(a, res.roots)
    assert np.linalg.norm(p @ res.witness_vector) >= (1 - 1e-12) * spectral_norm(p)
    assert oracles.min_residual_lstsq(a, res.witness_vector, 3)[0] < res.value - 0.05


@pytest.mark.parametrize(
    "a, k",
    [(toh(0.5), 3), (toh(0.1), 3), (_spec_matrix({"family": "jordan", "n": 5, "lam": 1.0}), 2),
     (_spec_matrix(BIDIAGONAL), 3), (_spec_matrix(RANDOM_PD_PART), 2)],
    ids=["toh0.5-3", "toh0.1-3", "jordan-2", "bidiagonal-3", "random_pd_part-2"],
)
def test_ideal_is_the_worst_case_of_the_block_diagonal_copy(a, k):
    """ideal(A)^2 is the max over density matrices Z = V V^H of
    ``||p(A) V||_F^2`` minimized over p, and ``p(A) V = p(I_n (x) A) vec V``,
    so ideal(A) = wc(I_n (x) A).  The ascent on the Kronecker matrix checks
    the Newton solver from below, also where wc(A) < ideal (Toh, k = 3)."""
    ideal = ideal_gmres(a, k)
    kron = np.kron(np.eye(len(a)), a)
    wc = worst_case_gmres(kron, k, random_starts(len(kron)), ideal.value)
    assert -16 * np.finfo(float).eps * ideal.value <= ideal.value - wc.value <= 1e-10


@pytest.mark.parametrize("lam", [1.5, 2.0, 3.0, 5.0])
def test_jordan_block_ideal_is_at_most_the_power_of_its_eigenvalue(lam):
    """For a Jordan block J = lam I + N of order n and k < n, p = (1 -
    z/lam)^k is feasible, ``p(J) = (-N/lam)^k`` and ``||N^k|| = 1``, so
    ideal(J, k) <= |lam|^-k (n = 4..10; measured excess at most 5.4e-11).
    Whether p is the ideal polynomial depends on lam and on the radius of
    the polynomial numerical hull of J, a disk about lam (Faber, Greenbaum &
    Marshall, LAA 2003; Tichy, Liesen & Faber, ETNA 2007).  The closed form
    is pinned only where the solver's own dual lower bound proves it: k <
    n/2 and lam >= 2, within 5.4e-11.  At lam = 1.5 it fails although k <
    n/2: the certified value lies below 1.5^-k by 2.0e-3 relative at (n, k)
    = (5, 2) and by 1.1e-4 at (7, 3)."""
    for n in range(4, 11):
        j = _spec_matrix({"family": "jordan", "n": n, "lam": lam})
        for k in range(1, n):
            res = ideal_gmres(j, k)
            assert res.value <= lam**-k + 1e-10
            if lam >= 2 and 2 * k < n:
                assert res.lower_bound >= lam**-k - 1e-10


def test_verify_chain_on_a_jordan_block_meets_the_closed_form():
    """On the ``jordan`` family with n = 8 and lam = 2 at k = 1..3, where
    the closed form 2^-k holds, every verdict passes and the worst case and
    the ideal value both lie within 2e-12 of 2^-k (1.6e-12 measured)."""
    j = _spec_matrix({"family": "jordan", "n": 8, "lam": 2.0})
    for k in (1, 2, 3):
        report = verify_chain(j, k, 20)
        assert report.all_passed
        assert abs(report.worst_case - 2.0**-k) <= 2e-12
        assert abs(report.ideal - 2.0**-k) <= 2e-12


# The benchmark's lab_run configs: the gallery of scripts/run_gallery.py at
# depths 1..3, the default matrix of scripts/depth_sweep.py at depths 1..5
# and Toh's matrix at depths 1..3, 20 trials each.
LAB_RUN = (
    [(_spec_matrix(spec), (1, 2, 3)) for spec in (
        *NORMAL_GALLERY.values(), {"family": "jordan", "n": 5, "lam": 1.0},
        BIDIAGONAL, RANDOM_PD_PART)]
    + [(_spec_matrix({"family": "random_pd_part", "n": 7, "seed": 0}), (1, 2, 3, 4, 5))]
    + [(toh(eps), (1, 2, 3)) for eps in (0.5, 0.1)]
)


@functools.lru_cache(maxsize=None)
def _lab_run_chain(seed):
    """``verify_chain`` over ``LAB_RUN`` at ``seed``: the reports and the
    number of kernel gradient passes (``krylov._gradients``, which the
    worst-case ascent calls as ``minimax._gradients``)."""
    calls = []
    gradients = minimax._gradients
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimax, "_gradients", lambda *args: calls.append(1) or gradients(*args))
        reports = [verify_chain(a, k, 20, seed) for a, depths in LAB_RUN for k in depths]
    return reports, len(calls)


def test_worst_case_work_counts():
    """Kernel gradient passes of the worst-case ascents over the lab_run
    configs at seed 0.  Only Toh's matrix at k = 3 ascends (146 and 100
    passes); with the top singular vector as the ideal witness the ascents
    of the normal gallery, Toh at k = 2 and the bidiagonal at k = 2 made
    529 in all.  Counts do not depend on the machine's speed."""
    reports, passes = _lab_run_chain(0)
    assert all(report.all_passed for report in reports)
    assert passes <= 260


def test_lambda_min_m_is_the_elman_bounds_eigenvalue():
    """On the lab_run configs, ``lambda_min_m`` is bit for bit the smallest
    ``eigvalsh`` eigenvalue of the Hermitian part of the binary-scaled A,
    scaled back: the value the Elman bound reads.  Taken from the FoV
    scan's own ``eigh`` at angle 0, it differed on 17 of the 29 depths."""
    reports = iter(_lab_run_chain(0)[0])
    for a, depths in LAB_RUN:
        scaled, e = dense_core.binary_scaled(a)
        want = np.ldexp(np.linalg.eigvalsh(hermitian_part(scaled))[0], e)
        for _ in depths:
            assert next(reports).lambda_min_m == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_worst_case_exceeds_ideal_only_by_rounding(seed):
    """wc <= ideal holds up to rounding: the two come from different
    computations (the residual kernel at the witness, the top eigenvalue of
    ``p(A)^H p(A)``), and where the dual witness closes the bracket they
    agree to a few ulps.  The lab_run configs of seeds 0-2 stay below
    7.7 eps ideal (the depth sweep at k = 5)."""
    for report in _lab_run_chain(seed)[0]:
        assert report.worst_case - report.ideal <= 16 * np.finfo(float).eps * report.ideal


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_open_bracket_runs_the_full_ascent(eps):
    """On Toh's matrix at k = 3 phi stays far below the ideal value, so the
    ceiling changes nothing: the same value to the bit, not certified."""
    a = toh(eps)
    ideal = ideal_gmres(a, 3)
    free = worst_case_gmres(a, 3, random_starts(4))
    capped = worst_case_gmres(a, 3, random_starts(4), ideal.value)
    assert capped.value == free.value
    assert capped.upper_bound == ideal.value
    assert not capped.certified
    assert not free.certified


@pytest.mark.parametrize(
    "a, k",
    [(toh(eps), k) for eps in (0.5, 0.1) for k in (2, 3)]
    + [(_spec_matrix(BIDIAGONAL), 2)],
    ids=["toh0.5-2", "toh0.5-3", "toh0.1-2", "toh0.1-3", "bidiagonal-2"],
)
def test_worst_case_invariant_under_unitary_similarity_and_scaling(a, k):
    """wc(Q A Q^H) = wc(c A) = wc(A) for unitary Q and scalar c != 0: the
    ascent starts from different vectors but must find the same maximum."""
    rng = np.random.default_rng(83)
    n = a.shape[0]
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    want = worst_case_gmres(a, k, random_starts(n)).value
    for b in [q @ a @ q.conj().T] + [c * a for c in (1e-150, 3.7, 1e150)]:
        assert abs(worst_case_gmres(b, k, random_starts(n)).value - want) <= 1e-9


@pytest.mark.parametrize("starts", [4, 64])
def test_worst_case_kernel_calls_do_not_grow_with_starts(starts, monkeypatch):
    """All starts ascend as one block: one kernel pass per L-BFGS-B
    evaluation, the block run and the best column's own run sharing
    ``_ASCENT_EVALS``, plus the pool evaluation and the final re-evaluation
    of the witness."""
    calls = []
    kernel = krylov._residual_curves

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(krylov, "_residual_curves", counting)
    monkeypatch.setattr(minimax, "_ASCENT_STARTS", starts)
    a = random_complex(np.random.default_rng(71), 8)
    worst_case_gmres(a, 3, random_starts(8, starts))
    assert 0 < len(calls) <= minimax._ASCENT_EVALS + 2


def test_worst_case_enters_the_kernel_check_twice_per_solve(monkeypatch):
    """The ascent evaluates the kernel on the matrix the solve scaled once:
    one worst-case solve enters the kernels' argument check twice, for the
    pool and for the final witness, however many evaluations it makes."""
    checks, passes = [], []
    for name, calls in (("_candidate_block", checks), ("_residual_curves", passes)):
        original = getattr(krylov, name)
        monkeypatch.setattr(
            krylov, name, lambda *args, f=original, c=calls: c.append(1) or f(*args)
        )
    res = worst_case_gmres(toh(0.1), 3, random_starts(4))
    assert len(checks) == 2
    assert len(passes) > 2
    assert res.value == pytest.approx(0.4579, abs=1e-4)


DIAG3 = np.diag([1.0, 2.0, 4.0])


@pytest.mark.parametrize(
    "starts",
    [np.ones((5, 2)), [[1.0, 1.0], [1.0, np.nan], [1.0, 0.0]],
     [[1.0, 1.0], [1.0, np.inf], [1.0, 0.0]], np.ones((3, 0)), np.ones(3)],
    ids=["long", "nan", "inf", "empty", "vector"],
)
def test_worst_case_refuses_a_malformed_start_block(starts):
    """The starts pass the kernels' one argument check: a finite n x B block
    with B >= 1."""
    with pytest.raises(InvalidSpec, match="vector block"):
        worst_case_gmres(DIAG3, 1, starts)


def test_worst_case_refuses_a_zero_extra_start():
    """A zero start is a bad argument, as any other: InvalidSpec, exit 2."""
    with pytest.raises(InvalidSpec, match="zero column"):
        worst_case_gmres(DIAG3, 1, np.column_stack([np.ones(3), np.zeros(3)]))


@pytest.mark.parametrize("ceiling", [-1.0, -1e-300, np.nan, np.inf, "1", None])
def test_worst_case_refuses_a_ceiling_outside_finite_non_negative_numbers(ceiling):
    with pytest.raises(InvalidSpec, match="invalid ceiling"):
        worst_case_gmres(DIAG3, 1, random_starts(3), ceiling)


def test_worst_case_never_certifies_an_inverted_bracket(monkeypatch):
    """A ceiling below the value by more than rounding cannot be an upper
    bound on wc: the bracket [value, ceiling] is inverted and not certified.
    The pool already meets the ceiling, so no ascent runs, and the value is
    the pool's best random start."""
    calls = []
    gradients = minimax._gradients
    monkeypatch.setattr(minimax, "_gradients", lambda *args: calls.append(1) or gradients(*args))
    res = worst_case_gmres(DIAG3, 1, random_starts(3), 0.0)
    assert res.value == pytest.approx(0.5975, abs=1e-3)
    assert res.upper_bound == 0.0
    assert not res.certified
    assert calls == []


def test_worst_case_certifies_only_the_gap_the_ascent_closes():
    """wc = ideal = 1/2 on diag(1, 2, 3) at k = 1.  A ceiling 1e-6 above it
    is a valid upper bound that the ascent cannot reach within 1e-10, so the
    bracket stays open and is not certified, however sound both ends are."""
    ceiling = 0.5 + 1e-6
    res = worst_case_gmres(np.diag([1.0, 2.0, 3.0]), 1, random_starts(3), ceiling)
    assert res.value == pytest.approx(0.5, abs=1e-9)
    assert res.value <= 0.5 + 1e-15
    assert res.upper_bound == ceiling
    assert not res.certified


@pytest.mark.parametrize("count", [1, 20])
def test_worst_case_pool_is_the_callers_starts(count, monkeypatch):
    """The pool pass evaluates exactly the caller's starts, however few:
    no random vector fills the pool up."""
    pools = []
    kernel = minimax.min_residual_values
    monkeypatch.setattr(
        minimax, "min_residual_values", lambda a, vs, k: pools.append(vs) or kernel(a, vs, k)
    )
    starts = random_starts(3, count)
    worst_case_gmres(DIAG3, 1, starts, ceiling=0.0)
    assert np.array_equal(pools[0], starts)


def test_sandwich_worst_below_ideal():
    rng = np.random.default_rng(51)
    for _ in range(6):
        n = int(rng.integers(2, 8))
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.2)))
        for k in (1, 2):
            worst = worst_case_gmres(a, k, random_starts(n)).value
            ideal = ideal_gmres(a, k).value
            assert worst <= ideal + SANDWICH_SLACK
            assert ideal <= 1.0 + CEILING_SLACK


def test_depth_one_equality_trio():
    rng = np.random.default_rng(57)
    a = random_complex(rng, 6, spread=0.8)
    worst = worst_case_gmres(a, 1, random_starts(6)).value
    ideal = ideal_gmres(a, 1).value
    assert abs(worst - ideal) <= EQUALITY_TOL


@pytest.mark.parametrize(
    "a", [toh(0.5), random_complex(np.random.default_rng(59), 5)], ids=["toh", "random"]
)
def test_one_step_ideal_is_ideal_gmres_at_depth_one(a):
    """``minimax.one_step_ideal``, kept for the benchmark, is the depth-1
    solve itself: every field equal, bit for bit."""
    one, ideal = minimax.one_step_ideal(a), ideal_gmres(a, 1)
    assert (one.value, one.lower_bound, one.certified) == (
        ideal.value, ideal.lower_bound, ideal.certified
    )
    assert np.array_equal(one.roots, ideal.roots)
    assert np.array_equal(one.witness_vector, ideal.witness_vector)


def one_step(a):
    """``(value, alpha)`` of min over alpha of ``||I - alpha A||`` from
    ``ideal_gmres(a, 1)``: ``alpha = 1 / theta_1``, or 0 without a root."""
    res = ideal_gmres(a, 1)
    return res.value, 1.0 / res.roots[0] if res.roots.size else 0.0


def test_one_step_identity():
    value, alpha = one_step(np.eye(3))
    assert value == pytest.approx(0.0, abs=1e-10)
    assert alpha == pytest.approx(1.0, abs=1e-8)


def test_one_step_two_point():
    expected, want = oracles.equioscillation_two_points()
    value, alpha = one_step(np.diag([1.0, 2.0]))
    assert value == pytest.approx(expected, abs=1e-7)
    assert alpha == pytest.approx(want, abs=1e-5)


def test_one_step_alpha_beyond_the_float_range_is_infinite():
    """At 1e-310 diag(1, 2) the optimal alpha = 2 / 3e-310 lies beyond the
    float range, so the result carries its root theta_1 = 1.5e-310, which is
    finite; only alpha = 1 / theta_1 reads infinite."""
    res = ideal_gmres(1e-310 * np.diag([1.0, 2.0]), 1)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-8)
    assert res.roots.shape == (1,) and np.isfinite(res.roots[0])
    assert res.roots[0] == pytest.approx(1.5e-310, rel=1e-8)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (1.0 / res.roots[0]).real == np.inf


def test_one_step_rotation_cannot_improve():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    value, alpha = one_step(a)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert abs(alpha) <= 1e-6
    # coarse grid over complex alpha confirms no step beats standing still
    re, im = np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41))
    for alpha in (re + 1j * im).ravel():
        assert spectral_norm(np.eye(2) - alpha * a) >= 1.0 - 1e-12


def test_relaxation_chain_one_step_power():
    rng = np.random.default_rng(61)
    a = random_complex(rng, 5, spread=0.5)
    one = ideal_gmres(a, 1).value
    for k in (2, 3):
        assert ideal_gmres(a, k).value <= one**k + SANDWICH_SLACK


def test_oracle_single_point():
    assert scalar_minimax_oracle([1.0], 1) == pytest.approx(0.0, abs=1e-9)


def test_oracle_two_points():
    expected, _ = oracles.equioscillation_two_points()
    assert scalar_minimax_oracle([1.0, 2.0], 1) == pytest.approx(
        expected, abs=PINNED_TOL
    )


def test_oracle_three_points():
    expected, _ = oracles.equioscillation_three_points()
    assert scalar_minimax_oracle([1.0, 2.0, 3.0], 2) == pytest.approx(
        expected, abs=PINNED_TOL
    )


def test_oracle_zero_eigenvalue_pins_value():
    assert scalar_minimax_oracle([0.0, 1.0], 1) == 1.0


def test_oracle_budget():
    """The oracle's limits are argument ranges like any other."""
    for k in (4, 2.5, True):
        with pytest.raises(InvalidSpec, match="oracle depth"):
            scalar_minimax_oracle([1.0, 2.0], k)
    with pytest.raises(InvalidSpec, match="1..12 eigenvalues"):
        scalar_minimax_oracle(list(range(1, 14)), 1)


@seed(29)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
def test_diagonal_ideal_matches_scalar_oracle(n, k, key):
    """For normal matrices the matrix norm route and the eigenvalue route
    must land on the same minimax value."""
    rng = np.random.default_rng(key)
    lam = rng.uniform(0.5, 3.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
    res = ideal_gmres(np.diag(lam), k)
    want = scalar_minimax_oracle(lam, k)
    assert abs(res.value - want) <= 1e-4
    assert res.lower_bound <= want + 1e-6


DEPTH_CALLS = {
    "ideal_gmres": ideal_gmres,
    "worst_case_gmres": lambda a, k: worst_case_gmres(a, k, np.ones((3, 1))),
    "verify_chain": lambda a, k: verify_chain(a, k, 3),
    "elman_bound": bounds.elman_bound,
    "starke_bound": bounds.starke_bound,
    "gmres_residuals": lambda a, k: krylov.gmres_residuals(a, np.ones((3, 1)), k),
}


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", 0, minimax.MAX_DEPTH + 1])
@pytest.mark.parametrize("name", list(DEPTH_CALLS))
def test_depth_must_be_an_integer_in_range(name, bad):
    """A fractional, boolean or string depth is refused, not truncated or
    raised to a fractional power."""
    with pytest.raises(ValueError):
        DEPTH_CALLS[name](np.diag([1.0, 2.0, 3.0]), bad)


@pytest.mark.parametrize("bad", [2.5, True, "3", 0])
def test_verify_chain_trials_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError):
        verify_chain(np.diag([1.0, 2.0, 3.0]), 2, bad)


def test_numpy_integer_depth_is_accepted():
    a = np.diag([1.0, 2.0, 3.0])
    assert ideal_gmres(a, np.int64(2)).value == ideal_gmres(a, 2).value
    assert bounds.starke_bound(a, np.int32(2)) == bounds.starke_bound(a, 2)


def test_seed_validation():
    a = np.diag([1.0, 2.0])
    for bad in (True, -1, 1.5, "3"):
        with pytest.raises(ValueError):
            verify_chain(a, 1, trials=3, seed=bad)
