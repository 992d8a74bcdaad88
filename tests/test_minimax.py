import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    BudgetExceeded,
    SolverOptions,
    ideal_gmres,
    one_step_ideal,
    scalar_minimax_oracle,
    spectral_norm,
    worst_case_gmres,
)
from gmreslab.dense_core import evaluate_residual_polynomial
from conftest import random_complex
import oracles

PINNED_TOL = 1e-6
EQUALITY_TOL = 1e-5
SANDWICH_SLACK = 1e-6
CEILING_SLACK = 1e-12


def test_ideal_identity_is_zero():
    assert ideal_gmres(np.eye(3), 1).value == pytest.approx(0.0, abs=1e-10)


def test_ideal_two_point_equioscillation():
    expected, alpha = oracles.equioscillation_two_points()
    res = ideal_gmres(np.diag([1.0, 2.0]), 1)
    assert res.value == pytest.approx(expected, abs=PINNED_TOL)
    assert res.coefficients[0] == pytest.approx(-alpha, abs=1e-5)
    assert res.certified


def test_ideal_three_point_equioscillation():
    expected, coeffs = oracles.equioscillation_three_points()
    res = ideal_gmres(np.diag([1.0, 2.0, 3.0]), 2)
    assert res.value == pytest.approx(expected, abs=PINNED_TOL)
    assert np.allclose(res.coefficients, coeffs, atol=1e-4)


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
    a = np.array(
        [[1, eps, 0, 0], [0, -1, 1 / eps, 0], [0, 0, 1, eps], [0, 0, 0, -1]],
        dtype=np.complex128,
    )
    ideal = ideal_gmres(a, 3)
    assert abs(ideal.value - 0.8) <= 1e-8
    assert ideal.certified
    assert worst_case_gmres(a, 3).value < ideal.value - 0.05


def test_ideal_witness_and_coefficients_recompute():
    """The reported value must match a from-scratch norm evaluation."""
    rng = np.random.default_rng(27)
    a = random_complex(rng, 6)
    res = ideal_gmres(a, 3)
    p = evaluate_residual_polynomial(a, res.coefficients)
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


def test_ideal_deterministic_given_seed():
    rng = np.random.default_rng(39)
    a = random_complex(rng, 5)
    first = ideal_gmres(a, 2, SolverOptions(seed=5))
    second = ideal_gmres(a, 2, SolverOptions(seed=5))
    assert first.value == second.value
    assert np.array_equal(first.coefficients, second.coefficients)
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


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(starts=0)
    with pytest.raises(ValueError):
        SolverOptions(tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(max_halvings=0)
    with pytest.raises(ValueError):
        SolverOptions(starts=2.5)
    with pytest.raises(ValueError):
        SolverOptions(seed=True)
