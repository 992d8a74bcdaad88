import json

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    FileError,
    InvalidSpec,
    MatrixSpec,
    generate_matrix,
    hermitian_part,
    write_matrix_market,
)
from gmreslab.matrices import FAMILIES

NORMALITY_TOL = 1e-12


def test_identity_family():
    a = generate_matrix(MatrixSpec("identity", {"n": 3}))
    assert a.dtype == np.complex128
    assert np.array_equal(a, np.eye(3))


def test_diagonal_family_accepts_complex_pairs():
    spec = MatrixSpec("diagonal", {"entries": [1.0, [0.0, 2.0]]})
    a = generate_matrix(spec)
    assert np.array_equal(a, np.diag([1.0 + 0.0j, 2.0j]))


def test_jordan_family():
    a = generate_matrix(MatrixSpec("jordan", {"n": 3, "lam": 2.0}))
    expected = 2.0 * np.eye(3) + np.eye(3, k=1)
    assert np.array_equal(a, expected)


def test_bidiagonal_family():
    spec = MatrixSpec("bidiagonal", {"diag": [1.0, 2.0, 3.0], "superdiag": 0.5})
    a = generate_matrix(spec)
    assert np.array_equal(a, np.diag([1.0, 2.0, 3.0]) + 0.5 * np.eye(3, k=1))


def test_random_pd_part_has_definite_hermitian_part():
    for seed_value in range(8):
        spec = MatrixSpec(
            "random_pd_part", {"n": 6, "seed": seed_value, "spread": 0.9}
        )
        a = generate_matrix(spec)
        lam_min = float(np.linalg.eigvalsh(hermitian_part(a))[0])
        assert lam_min > 0.0


def test_random_families_are_reproducible():
    for family in ("random_pd_part", "normal_random"):
        spec = MatrixSpec(family, {"n": 5, "seed": 42})
        assert np.array_equal(generate_matrix(spec), generate_matrix(spec))


@seed(17)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_normal_random_commutes_with_adjoint(n, key):
    a = generate_matrix(MatrixSpec("normal_random", {"n": n, "seed": key}))
    lhs = a @ a.conj().T
    rhs = a.conj().T @ a
    scale = max(float(np.abs(lhs).max()), 1.0)
    assert np.abs(lhs - rhs).max() <= NORMALITY_TOL * scale


def test_file_family_round_trips(tmp_path):
    path = tmp_path / "m.mtx"
    original = np.array([[1.0, 2.0j], [0.0, 3.0]])
    write_matrix_market(str(path), original)
    a = generate_matrix(MatrixSpec("file", {"path": str(path)}))
    assert np.array_equal(a, original.astype(np.complex128))


def test_file_family_missing_file():
    spec = MatrixSpec("file", {"path": "/nonexistent/nowhere.mtx"})
    with pytest.raises(FileError):
        generate_matrix(spec)


def test_spec_from_dict_and_back():
    spec = MatrixSpec.from_dict({"family": "jordan", "n": 4, "lam": 1.5})
    assert spec.family == "jordan"
    assert spec.params == {"n": 4, "lam": 1.5}
    assert spec.to_dict() == {"family": "jordan", "n": 4, "lam": 1.5}


@pytest.mark.parametrize(
    "data",
    [
        {"n": 3},
        {"family": "heisenberg"},
        "diagonal",
    ],
)
def test_spec_from_dict_rejects_malformed(data):
    with pytest.raises(InvalidSpec):
        MatrixSpec.from_dict(data)


@pytest.mark.parametrize(
    "spec",
    [
        MatrixSpec("identity", {}),
        MatrixSpec("identity", {"n": 0}),
        MatrixSpec("identity", {"n": 2.5}),
        MatrixSpec("diagonal", {"entries": []}),
        MatrixSpec("diagonal", {"entries": ["one"]}),
        MatrixSpec("bidiagonal", {"diag": [1.0], "superdiag": "big"}),
        MatrixSpec("jordan", {"n": 2, "lam": [1.0]}),
        MatrixSpec("random_pd_part", {"n": 3, "seed": -1}),
        MatrixSpec("file", {}),
        MatrixSpec("nonsense", {}),
    ],
)
def test_generate_rejects_bad_parameters(spec):
    with pytest.raises(InvalidSpec):
        generate_matrix(spec)


@pytest.mark.parametrize(
    "text",
    [
        '{"family": "diagonal", "entries": [1e400]}',
        '{"family": "diagonal", "entries": [[1.0, -1e400]]}',
        '{"family": "diagonal", "entries": [NaN]}',
        '{"family": "diagonal", "entries": [true]}',
        '{"family": "diagonal", "entries": [[false, 1.0]]}',
        '{"family": "jordan", "n": 2, "lam": 1e400}',
        '{"family": "jordan", "n": 2, "lam": 1%s}' % ("0" * 400),
        '{"family": "bidiagonal", "diag": [1.0], "superdiag": -Infinity}',
        '{"family": "random_pd_part", "n": 2, "shift": 1e400}',
        '{"family": "random_pd_part", "n": 2, "spread": true}',
    ],
    ids=[
        "entry_inf", "entry_pair_inf", "entry_nan", "entry_true",
        "entry_pair_false", "lam_inf", "lam_huge_int", "superdiag_inf",
        "shift_inf", "spread_true",
    ],
)
def test_generate_rejects_non_finite_and_boolean_scalars(text):
    """JSON reads 1e400 as inf and true as a bool; neither is a scalar."""
    with pytest.raises(InvalidSpec):
        generate_matrix(MatrixSpec.from_dict(json.loads(text)))


def _valid_params(family, tmp_path):
    """Parameters that ``family`` accepts, one per family in FAMILIES."""
    path = tmp_path / "m.mtx"
    write_matrix_market(str(path), np.diag([1.0, 2.0]))
    return {
        "identity": {"n": 2},
        "diagonal": {"entries": [1.0, 2.0]},
        "jordan": {"n": 2, "lam": 1.0},
        "bidiagonal": {"diag": [1.0, 2.0], "superdiag": 0.5},
        "random_pd_part": {"n": 2, "shift": 1.0, "spread": 0.5, "seed": 1},
        "normal_random": {"n": 2, "seed": 1},
        "file": {"path": str(path)},
    }[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_undeclared_parameter_is_refused(family, tmp_path):
    """A key the family does not declare is refused, not silently dropped,
    at config load and at generation alike."""
    params = _valid_params(family, tmp_path)
    assert generate_matrix(MatrixSpec.from_dict({"family": family, **params})).shape
    params["mystery"] = 1
    message = rf"unknown {family} parameters: \['mystery'\]"
    with pytest.raises(InvalidSpec, match=message):
        MatrixSpec.from_dict({"family": family, **params})
    with pytest.raises(InvalidSpec, match=message):
        generate_matrix(MatrixSpec(family, params))


@pytest.mark.parametrize(
    "data",
    [
        {"family": "jordan", "n": 4, "lamda": 2.0},
        {"family": "identity", "n": 3, "seed": 1},
    ],
    ids=["jordan_lamda", "identity_seed"],
)
def test_typo_parameters_are_refused(data):
    typo = list(data)[-1]
    params = {key: value for key, value in data.items() if key != "family"}
    with pytest.raises(InvalidSpec, match=typo):
        MatrixSpec.from_dict(data)
    with pytest.raises(InvalidSpec, match=typo):
        generate_matrix(MatrixSpec(data["family"], params))
