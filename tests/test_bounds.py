import json
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    elman_bound,
    fov_summary,
    starke_bound,
    verify_chain,
)
from gmreslab import bounds, minimax
from conftest import random_complex, random_nonsingular

SQRT3_OVER_2 = np.sqrt(3.0) / 2.0
SQRT_HALF = np.sqrt(0.5)
ORDER_TOL = 1e-12
UNITARY_TOL = 1e-8


def test_elman_identity():
    assert elman_bound(np.eye(3), 1) == pytest.approx(0.0, abs=1e-14)


def test_elman_two_point_diagonal():
    a = np.diag([1.0, 2.0])
    assert elman_bound(a, 1) == pytest.approx(SQRT3_OVER_2, abs=1e-12)
    assert elman_bound(a, 2) == pytest.approx(0.75, abs=1e-12)


def test_elman_none_without_definite_hermitian_part():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert elman_bound(rotation, 1) is None
    indefinite = np.diag([1.0, -1.0])
    assert elman_bound(indefinite, 1) is None


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 128])
def test_elman_matches_an_eigvalsh_reference(n, kind):
    """Elman's bound from lambda_min of the Hermitian part by eigvalsh and
    ||A|| by the SVD, at every depth."""
    a = random_complex(np.random.default_rng(2000 + n), n)
    if kind == "real":
        a = a.real
    lam_min = np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0]
    assert lam_min > 0.1
    ratio = lam_min / np.linalg.norm(a, 2)
    for k in (1, 2, 3):
        expected = (1.0 - ratio**2) ** (0.5 * k)
        assert elman_bound(a, k) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_starke_identity():
    assert starke_bound(np.eye(2), 1) == pytest.approx(0.0, abs=1e-14)


def test_starke_two_point_diagonal():
    assert starke_bound(np.diag([1.0, 2.0]), 1) == pytest.approx(
        SQRT_HALF, abs=1e-9
    )


def test_starke_is_one_when_origin_in_fov():
    a = np.diag([1.0j, -1.0j])
    assert starke_bound(a, 1) == pytest.approx(1.0, abs=1e-12)
    assert starke_bound(a, 3) == pytest.approx(1.0, abs=1e-12)


def test_starke_jordan_block(jordan_block):
    assert starke_bound(jordan_block, 1) == pytest.approx(
        SQRT3_OVER_2, abs=1e-9
    )


def test_bounds_shrink_with_depth():
    a = np.diag([1.0, 2.0]) + 0.1 * np.eye(2, k=1)
    for fn in (elman_bound, starke_bound):
        values = [fn(a, k) for k in (1, 2, 3, 4)]
        for lo, hi in zip(values[1:], values):
            assert 0.0 <= lo <= hi <= 1.0


@seed(11)
@given(st.integers(min_value=0, max_value=2**31))
def test_starke_never_exceeds_elman(key):
    rng = np.random.default_rng(key)
    a = random_complex(rng, int(rng.integers(2, 7)))
    for k in (1, 2):
        elman = elman_bound(a, k)
        if elman is None:
            continue
        assert starke_bound(a, k) <= elman + ORDER_TOL


@seed(13)
@given(st.integers(min_value=0, max_value=2**31))
def test_bounds_invariant_under_unitary_similarity(key):
    rng = np.random.default_rng(key)
    n = int(rng.integers(2, 6))
    a = random_complex(rng, n)
    q, _ = np.linalg.qr(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )
    b = q @ a @ q.conj().T
    assert starke_bound(b, 2) == pytest.approx(
        starke_bound(a, 2), abs=UNITARY_TOL
    )
    ea, eb = elman_bound(a, 2), elman_bound(b, 2)
    assert (ea is None) == (eb is None)
    if ea is not None:
        assert eb == pytest.approx(ea, abs=UNITARY_TOL)


def test_verify_chain_two_point_diagonal():
    a = np.diag([1.0, 2.0])
    report = verify_chain(a, 1, trials=6)
    assert report.all_passed
    assert report.k == 1
    assert len(report.gmres_ratios) == 6
    assert report.ideal == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert report.starke_rhs == pytest.approx(SQRT_HALF, abs=1e-9)
    assert report.elman_rhs == pytest.approx(SQRT3_OVER_2, abs=1e-12)
    assert report.nu_a == pytest.approx(1.0, abs=1e-9)
    assert report.nu_ainv == pytest.approx(0.5, abs=1e-9)
    assert report.lambda_min_m == pytest.approx(1.0, abs=1e-12)
    assert report.lambda_max_aha == pytest.approx(4.0, abs=1e-10)
    assert set(report.verdicts) == {
        "gmres_le_worst_case",
        "worst_case_le_ideal",
        "ideal_le_starke",
        "ideal_le_elman",
        "starke_le_elman",
    }


def test_verify_chain_jordan_block(jordan_block):
    report = verify_chain(jordan_block, 1, trials=4)
    assert report.all_passed
    assert report.nu_a == pytest.approx(0.5, abs=1e-9)
    assert report.nu_ainv == pytest.approx(0.5, abs=1e-9)
    assert report.starke_rhs == pytest.approx(SQRT3_OVER_2, abs=1e-9)
    assert report.elman_rhs is not None
    assert report.starke_rhs <= report.elman_rhs


def test_verify_chain_skips_elman_verdicts_without_pd_part():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    report = verify_chain(rotation, 1, trials=3)
    assert report.elman_rhs is None
    assert set(report.verdicts) == {
        "gmres_le_worst_case",
        "worst_case_le_ideal",
        "ideal_le_starke",
    }
    assert report.all_passed


def test_verify_chain_margins_match_values():
    a = np.diag([1.0, 2.0, 3.0])
    report = verify_chain(a, 2, trials=5)
    assert report.verdicts["ideal_le_starke"].margin == pytest.approx(
        report.starke_rhs - report.ideal, abs=1e-15
    )
    assert report.verdicts["worst_case_le_ideal"].margin == pytest.approx(
        report.ideal - report.worst_case, abs=1e-15
    )
    assert max(report.gmres_ratios) <= report.worst_case + 1e-6
    assert report.worst_case <= report.ideal + 1e-6
    assert report.ideal_lower <= report.ideal


def test_verify_chain_deterministic():
    rng = np.random.default_rng(71)
    a = random_nonsingular(rng, 5)
    first = verify_chain(a, 2, trials=4)
    second = verify_chain(a, 2, trials=4)
    assert first.gmres_ratios == second.gmres_ratios
    assert first.worst_case == second.worst_case
    assert first.ideal == second.ideal


def test_verify_chain_respects_precomputed_fov():
    a = np.diag([1.0, 2.0])
    data = fov_summary(a)
    report = verify_chain(a, 1, trials=3, fov_data=data)
    assert report.nu_a == data.nu_a
    assert report.nu_ainv == data.nu_ainv


def test_negative_slack_forces_failure(monkeypatch):
    a = np.diag([1.0, 2.0])
    monkeypatch.setattr(bounds, "_SOLVER_SLACK", -1.0)
    report = verify_chain(a, 1, trials=3)
    assert not report.verdicts["gmres_le_worst_case"].passed
    assert not report.all_passed


def test_verify_chain_rejects_bad_arguments():
    a = np.diag([1.0, 2.0])
    with pytest.raises(ValueError):
        verify_chain(a, 0, trials=3)
    with pytest.raises(ValueError):
        verify_chain(a, 1, trials=0)


def test_report_to_dict_shape():
    a = np.diag([1.0, 2.0])
    doc = verify_chain(a, 1, trials=3).to_dict()
    assert doc["k"] == 1
    assert set(doc["gmres"]) == {"ratios", "min", "median", "max"}
    assert doc["gmres"]["min"] <= doc["gmres"]["median"] <= doc["gmres"]["max"]
    assert doc["elman_rhs"] is not None
    for verdict in doc["verdicts"].values():
        assert set(verdict) == {"passed", "margin"}
        assert isinstance(verdict["passed"], bool)


@pytest.mark.parametrize("s", [1e-200, 1e160])
def test_elman_bound_is_scale_free(s):
    """lambda_min(M) / ||A|| does not depend on the scale of A; at 1e160
    the unscaled Hermitian part's Frobenius norm overflows."""
    a = np.diag([1.0, 2.0])
    assert elman_bound(s * a, 2) == pytest.approx(elman_bound(a, 2), abs=1e-15)


@pytest.mark.parametrize("s", [1e-200, 1e160])
@pytest.mark.parametrize("k", [1, 2])
def test_verify_chain_at_extreme_scales(s, k):
    """Every quantity of the chain is scale free; at 1e-200 the Krylov
    powers underflowed (worst case 1 against ideal 1/3), at 1e160 the
    ideal coefficients and ||A||^2 overflowed."""
    report = verify_chain(s * np.diag([1.0, 2.0]), k, 10)
    assert report.all_passed, report.verdicts
    assert report.ideal == pytest.approx(1.0 / 3.0 if k == 1 else 0.0, abs=1e-9)
    assert report.worst_case == pytest.approx(report.ideal, abs=1e-6)
    assert report.lambda_max_aha is None


@pytest.mark.parametrize("s", [1e-200, 1e-170, 1.0, 1e160])
def test_lambda_max_aha_is_null_outside_the_float_range(s):
    """||A||^2 is reported only where it is a normal float: at 1e-200 it
    underflowed to 0, at 1e-170 to a subnormal, at 1e160 it overflows."""
    report = verify_chain(s * np.diag([1.0, 2.0]), 1, 3)
    if s == 1.0:
        assert report.lambda_max_aha == pytest.approx(4.0, abs=1e-12)
    else:
        assert report.lambda_max_aha is None


def test_lambda_max_aha_of_the_zero_matrix_is_zero():
    assert verify_chain(np.zeros((2, 2)), 1, 3).lambda_max_aha == 0.0


# Each verdict of verify_chain as (report field of lhs, of rhs, slack name).
CHAIN_LINKS = {
    "gmres_le_worst_case": ("gmres_max", "worst_case", "_SOLVER_SLACK"),
    "worst_case_le_ideal": ("worst_case", "ideal", "_SOLVER_SLACK"),
    "ideal_le_starke": ("ideal", "starke_rhs", "_BOUND_SLACK"),
    "ideal_le_elman": ("ideal", "elman_rhs", "_BOUND_SLACK"),
    "starke_le_elman": ("starke_rhs", "elman_rhs", "_BOUND_SLACK"),
}


def _pd_part_matrix():
    """A nonnormal 5x5 matrix whose Hermitian part is positive definite."""
    a = random_complex(np.random.default_rng(29), 5, spread=0.6, shift=1.5)
    assert np.linalg.eigvalsh(0.5 * (a + a.conj().T))[0] > 0.1
    return a


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_verdict_is_its_link_exactly(k):
    report = verify_chain(_pd_part_matrix(), k, trials=5)
    assert set(report.verdicts) == set(CHAIN_LINKS)
    for name, (lhs_field, rhs_field, slack_name) in CHAIN_LINKS.items():
        lhs, rhs = getattr(report, lhs_field), getattr(report, rhs_field)
        verdict = report.verdicts[name]
        assert verdict.margin == rhs - lhs, name
        assert verdict.passed == (lhs <= rhs + getattr(bounds, slack_name)), name


def test_verify_chain_makes_two_non_solver_eigensolves_per_depth(monkeypatch):
    """Besides the ideal solver's own (one ``zheevd`` per
    ``minimax._spectrum`` call), a depth costs the Hermitian part's
    eigenvalues, for the Elman bound and ``lambda_min_m``, and the Gram
    matrix's, for ||A||."""
    counts = {"eig": 0, "spectrum": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    a = _pd_part_matrix()
    data = fov_summary(a)
    monkeypatch.setattr(np.linalg, "eigh", counted("eig", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eig", np.linalg.eigvalsh))
    monkeypatch.setattr(minimax.lapack, "zheevd", counted("eig", minimax.lapack.zheevd))
    monkeypatch.setattr(minimax, "_spectrum", counted("spectrum", minimax._spectrum))
    for k in (1, 2, 3):
        counts.update(eig=0, spectrum=0)
        report = verify_chain(a, k, trials=5, fov_data=data)
        assert report.elman_rhs is not None
        assert counts["eig"] - counts["spectrum"] <= 2, (k, counts)


def test_verify_chain_near_the_float_max_is_warning_free():
    """||A||^2 = 2.6 * 1.7e308^2 overflows: lambda_max_aha is None, without
    the RuntimeWarning of an unscaled norm, and the Elman bound is that of
    elman_bound."""
    a = 1.7e308 * np.array([[1.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_chain(a, 1, 3)
    assert report.elman_rhs == elman_bound(a, 1)
    assert report.lambda_max_aha is None


def test_schema_verdict_names_are_the_chain_links():
    schema = json.loads(
        resources.files("gmreslab.schemas").joinpath("report.schema.json").read_text()
    )
    verdicts = schema["definitions"]["depth_report"]["properties"]["verdicts"]
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    all_links = verify_chain(_pd_part_matrix(), 1, 3).verdicts
    assert set(verdicts["properties"]) == set(all_links) == set(CHAIN_LINKS)
    assert set(verdicts["required"]) == set(verify_chain(rotation, 1, 3).verdicts)
    assert verdicts["additionalProperties"] is False
