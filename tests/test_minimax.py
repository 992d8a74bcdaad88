import json

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    BudgetExceeded,
    ExperimentConfig,
    MatrixSpec,
    generate_matrix,
    ideal_gmres,
    one_step_ideal,
    run_experiment,
    scalar_minimax_oracle,
    spectral_norm,
    verify_chain,
    worst_case_gmres,
)
from gmreslab import bounds, krylov, minimax
from conftest import deep_matrices, random_complex
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
    assert worst_case_gmres(a, 3).value < ideal.value - 0.05


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
    """One gradient and Hessian per Newton step, and one ``lstsq`` each: the
    dual bound projects with the orthonormal basis and solves nothing."""
    counts = {"derivatives": 0, "lstsq": 0, "dual": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module, name, key in [
        (minimax, "_derivatives", "derivatives"),
        (np.linalg, "lstsq", "lstsq"),
        (minimax, "_dual_lower_bound", "dual"),
    ]:
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
    for basis in LINE_SEARCH_CASES:
        minimax._minimize_norm(basis)
    assert counts["dual"] > 0
    assert counts["derivatives"] == counts["lstsq"] > 0


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
    regression.  The ceilings sit about 10% above the 479 and 429 of the
    solver in the orthonormal basis with a plain full-step polish; in the
    monomial basis, with a duality cap and an Armijo polish, it made 679
    and 488, and before stage ends at the rounding level and extrapolated
    starts 1,105 and 784."""
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
    assert counts["_spectrum"] <= 530
    assert counts["_derivatives"] <= 470


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multiple_top_singular_value_closes_in_few_stages(k, monkeypatch):
    """With a multiple top singular value the stage ends lie O(mu) from
    the optimum, and the extrapolated starts close the gap within 7 stages
    (10-11 when each stage started at the last stage end).  A stage is one
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
    assert len(set(mus)) <= 7
    p = oracles.polynomial_from_roots(a, res.roots)
    assert abs(spectral_norm(p) - res.value) <= 1e-10


def test_ideal_sixteen_by_sixteen_depth_eight_certifies():
    """The Newton stages close the bracket far below the 1e-4 certification
    gap at the deepest depth (L-BFGS-B stalled at 1.4e-7 here)."""
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
    assert worst_case_gmres(np.eye(4), 2).value == pytest.approx(0.0, abs=1e-10)


def test_worst_case_two_point():
    expected, _ = oracles.equioscillation_two_points()
    res = worst_case_gmres(np.diag([1.0, 2.0]), 1)
    assert res.value == pytest.approx(expected, abs=EQUALITY_TOL)


def test_worst_case_full_depth_is_zero():
    res = worst_case_gmres(np.diag([1.0, 2.0]), 2)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_worst_case_extra_starts_are_floor():
    a = np.diag([1.0, 2.0, 4.0]).astype(complex)
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    floor, _ = oracles.min_residual_lstsq(a, v, 1)
    res = worst_case_gmres(a, 1, extra_starts=[v])
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
    assert abs(worst_case_gmres(a, k).value - want) <= 1e-6


@pytest.mark.parametrize("name", sorted(deep_matrices()))
def test_deep_ideal_closes_and_bounds_the_worst_case(name):
    """Past the former cap of depth 8: every ideal bracket closes, and the
    worst case stays at or below the ideal value."""
    a = deep_matrices()[name]
    for k in range(9, 17):
        ideal = ideal_gmres(a, k)
        assert ideal.upper_bound - ideal.lower_bound <= 1e-8
        assert worst_case_gmres(a, k, ceiling=ideal.value).value <= ideal.value


def test_verify_chain_passes_at_depth_twelve():
    assert verify_chain(deep_matrices()["rand16"], 12, 20).all_passed


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_worst_case_invariant_under_transpose_and_adjoint(eps):
    """wc(A) = wc(A^T) = wc(A^H) (Faber, Liesen & Tichy, SIMAX 2013), on
    Toh's matrix, where wc < ideal strictly at k = 3."""
    a = toh(eps)
    values = [worst_case_gmres(m, 3).value for m in (a, a.T, a.conj().T)]
    assert max(values) - min(values) <= 1e-10


@pytest.mark.parametrize(
    "name, k", [(name, k) for name in NORMAL_GALLERY for k in (1, 2, 3)]
)
def test_ideal_ceiling_closes_the_bracket_on_normal_gallery(name, k):
    """For normal A, wc = ideal: with the ideal value as ceiling the ascent
    stops within 1e-10 below it, and the bracket is certified."""
    a = generate_matrix(MatrixSpec.from_dict(NORMAL_GALLERY[name]))
    ideal = ideal_gmres(a, k)
    res = worst_case_gmres(a, k, ceiling=ideal.value)
    assert -1e-15 <= ideal.value - res.value <= minimax._BRACKET_GAP
    assert res.upper_bound == ideal.value
    assert res.lower_bound == res.value
    assert res.certified


def test_verify_chain_skips_the_ascent_when_the_pool_meets_the_ideal(monkeypatch):
    """On random_pd_part at k = 2 a start of the pool already attains the
    ideal value, so the worst case makes two kernel passes, the pool and
    the witness's re-evaluation, and no L-BFGS-B evaluation."""
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
    spec = {"family": "random_pd_part", "n": 8, "seed": 3}
    report = verify_chain(generate_matrix(MatrixSpec.from_dict(spec)), 2, 20)
    assert inside == [2]
    assert report.all_passed


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_open_bracket_runs_the_full_ascent(eps):
    """On Toh's matrix at k = 3 phi stays far below the ideal value, so the
    ceiling changes nothing: the same value to the bit, not certified."""
    a = toh(eps)
    ideal = ideal_gmres(a, 3)
    free = worst_case_gmres(a, 3)
    capped = worst_case_gmres(a, 3, ceiling=ideal.value)
    assert capped.value == free.value
    assert capped.upper_bound == ideal.value
    assert not capped.certified
    assert not free.certified


@pytest.mark.parametrize(
    "a, k",
    [(toh(eps), k) for eps in (0.5, 0.1) for k in (2, 3)]
    + [(generate_matrix(MatrixSpec.from_dict(
        {"family": "bidiagonal", "diag": [1.0, 1.5, 2.0, 2.5], "superdiag": 0.6}
    )), 2)],
    ids=["toh0.5-2", "toh0.5-3", "toh0.1-2", "toh0.1-3", "bidiagonal-2"],
)
def test_worst_case_invariant_under_unitary_similarity_and_scaling(a, k):
    """wc(Q A Q^H) = wc(c A) = wc(A) for unitary Q and scalar c != 0: the
    ascent starts from different vectors but must find the same maximum."""
    rng = np.random.default_rng(83)
    n = a.shape[0]
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    want = worst_case_gmres(a, k).value
    for b in [q @ a @ q.conj().T] + [c * a for c in (1e-150, 3.7, 1e150)]:
        assert abs(worst_case_gmres(b, k).value - want) <= 1e-9


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
    worst_case_gmres(a, 3)
    assert 0 < len(calls) <= minimax._ASCENT_EVALS + 2


def test_sandwich_worst_below_ideal():
    rng = np.random.default_rng(51)
    for _ in range(6):
        n = int(rng.integers(2, 8))
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.2)))
        for k in (1, 2):
            worst = worst_case_gmres(a, k).value
            ideal = ideal_gmres(a, k).value
            assert worst <= ideal + SANDWICH_SLACK
            assert ideal <= 1.0 + CEILING_SLACK


def test_depth_one_equality_trio():
    rng = np.random.default_rng(57)
    a = random_complex(rng, 6, spread=0.8)
    worst = worst_case_gmres(a, 1).value
    ideal = ideal_gmres(a, 1).value
    one = one_step_ideal(a).value
    assert abs(worst - ideal) <= EQUALITY_TOL
    assert abs(worst - one) <= EQUALITY_TOL


def test_one_step_identity():
    res = one_step_ideal(np.eye(3))
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert res.alpha == pytest.approx(1.0, abs=1e-8)


def test_one_step_two_point():
    expected, alpha = oracles.equioscillation_two_points()
    res = one_step_ideal(np.diag([1.0, 2.0]))
    assert res.value == pytest.approx(expected, abs=1e-7)
    assert res.alpha == pytest.approx(alpha, abs=1e-5)


def test_one_step_alpha_beyond_the_float_range_is_infinite():
    """At 1e-310 diag(1, 2) the optimal alpha = 2 / 3e-310 lies beyond the
    float range: it reads infinite, without the overflow warning (an error
    under this suite's filterwarnings) that scaling it back raised before."""
    res = one_step_ideal(1e-310 * np.diag([1.0, 2.0]))
    assert abs(res.value - 1.0 / 3.0) <= 1e-8
    assert res.alpha.real == np.inf


def test_one_step_rotation_cannot_improve():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    res = one_step_ideal(a)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert abs(res.alpha) <= 1e-6
    # coarse grid over complex alpha confirms no step beats standing still
    re, im = np.meshgrid(np.linspace(-1, 1, 41), np.linspace(-1, 1, 41))
    for alpha in (re + 1j * im).ravel():
        assert spectral_norm(np.eye(2) - alpha * a) >= 1.0 - 1e-12


def test_relaxation_chain_one_step_power():
    rng = np.random.default_rng(61)
    a = random_complex(rng, 5, spread=0.5)
    one = one_step_ideal(a).value
    for k in (1, 2, 3):
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
    with pytest.raises(BudgetExceeded):
        scalar_minimax_oracle([1.0, 2.0], 4)
    with pytest.raises(BudgetExceeded):
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
    "worst_case_gmres": worst_case_gmres,
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
            worst_case_gmres(a, 1, seed=bad)
        with pytest.raises(ValueError):
            verify_chain(a, 1, trials=3, seed=bad)
