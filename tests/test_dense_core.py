import numpy as np
import pytest

import oracles
from gmreslab import NoConvergence, hermitian_part, spectral_norm
from conftest import random_complex

RECON_TOL = 1e-9
TRACE_TOL = 1e-10


def test_hermitian_part_identity():
    assert np.array_equal(hermitian_part(np.eye(2)), np.eye(2))


def test_hermitian_part_shear():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(hermitian_part(a), expected)


def test_hermitian_part_cancels_skew():
    a = np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert np.allclose(hermitian_part(a), np.eye(2))


# The eig tests check the Hermitian eigensolve that elman_bound and the
# Gram spectrum of spectral_norm make: LAPACK on an exact hermitian_part.


def test_eig_identity():
    values = np.linalg.eigh(hermitian_part(np.eye(2)))[0]
    assert np.allclose(values, [1.0, 1.0])


def test_eig_swap():
    values = np.linalg.eigh(hermitian_part(np.array([[0.0, 1.0], [1.0, 0.0]])))[0]
    assert np.allclose(values, [-1.0, 1.0])


def test_eig_two_by_two():
    # characteristic polynomial (2-t)^2 - 1 has roots 1 and 3
    values = np.linalg.eigh(hermitian_part(np.array([[2.0, 1.0], [1.0, 2.0]])))[0]
    assert np.allclose(values, [1.0, 3.0], atol=1e-12)


def test_eig_ascending_and_reconstructs():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        m = random_complex(rng, n)
        m = hermitian_part(m)
        values, vectors = np.linalg.eigh(m)
        assert np.all(np.diff(values) >= -1e-13)
        scale = max(spectral_norm(m), 1e-30)
        recon = vectors @ np.diag(values) @ vectors.conj().T
        assert np.linalg.norm(recon - m) <= RECON_TOL * scale
        assert abs(values.sum() - np.trace(m).real) <= TRACE_TOL * scale
        gram = vectors.conj().T @ vectors
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10


def test_spectral_norm_examples():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    assert spectral_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0, abs=1e-14)
    assert spectral_norm(np.array([[0.0, 3.0], [0.0, 0.0]])) == pytest.approx(
        3.0, abs=1e-14
    )


@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_spectral_norm_extreme_magnitudes(c):
    """Power-of-two scaling keeps A^H A clear of overflow and underflow."""
    a = c * np.diag([1.0, 2.0])
    assert spectral_norm(a) == pytest.approx(2.0 * c, rel=1e-15)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64, 128])
def test_spectral_norm_matches_the_svd(n, kind):
    """The eigenvalues-only Gram eigensolve agrees with LAPACK's SVD."""
    a = random_complex(np.random.default_rng(1000 + n), n)
    if kind == "real":
        a = a.real
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13, abs=0.0)


def test_spectral_norm_dominates_sampled_vectors():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 6)
    sigma = spectral_norm(a)
    block = rng.standard_normal((6, 1000)) + 1j * rng.standard_normal((6, 1000))
    block /= np.linalg.norm(block, axis=0)
    sampled = np.linalg.norm(a @ block, axis=0)
    assert sampled.max() <= sigma + 1e-10


# The polynomial tests check the root-product reference of tests/oracles.py.


def test_polynomial_empty_is_identity():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 4)
    assert np.array_equal(
        oracles.polynomial_from_roots(a, np.zeros(0, dtype=complex)), np.eye(4)
    )


def test_polynomial_one_minus_z_kills_identity():
    p = oracles.polynomial_from_roots(np.eye(3), np.array([1.0]))
    assert np.allclose(p, np.zeros((3, 3)))


def test_polynomial_annihilates_both_eigenvalues():
    # (1 - z)(1 - z/2) vanishes at z = 1 and z = 2
    a = np.diag([1.0, 2.0])
    p = oracles.polynomial_from_roots(a, np.array([2.0, 1.0]))
    assert np.allclose(p, np.zeros((2, 2)), atol=1e-14)


def test_noconvergence_is_importable():
    # the FoV eigensolver can in principle fail to converge; the type is public
    assert issubclass(NoConvergence, Exception)
