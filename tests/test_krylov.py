import warnings

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    InvalidSpec,
    ZeroVector,
    gmres_residuals,
    spectral_norm,
    worst_case_gmres,
)
from gmreslab.errors import MAX_DEPTH
from gmreslab.krylov import min_residual_gradients, min_residual_values
from conftest import deep_matrices, random_complex, random_unit
import oracles

RELATION_TOL = 1e-10
ORACLE_TOL = 1e-9


def test_arnoldi_identity_breaks_down_immediately():
    dec = oracles.arnoldi(np.eye(2, dtype=complex), np.array([1.0, 0.0]), 1)
    assert dec.breakdown_step == 1
    assert dec.hbar.shape == (2, 1)
    assert dec.hbar[1, 0] == 0.0


def test_arnoldi_hand_gram_schmidt():
    # one step from (1,1)/sqrt(2) against diag(1,2):
    #   h00 = 3/2, the defect is (-1,1)/(2 sqrt(2)), so h10 = 1/2
    a = np.diag([1.0, 2.0]).astype(complex)
    r0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    dec = oracles.arnoldi(a, r0, 1)
    assert dec.v.shape == (2, 2)
    assert dec.hbar[0, 0] == pytest.approx(1.5, abs=1e-14)
    assert abs(dec.hbar[1, 0]) == pytest.approx(0.5, abs=1e-14)
    second = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(dec.v[:, 1]), np.abs(second))


def test_arnoldi_nilpotent_breakdown():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    dec = oracles.arnoldi(a, np.array([0.0, 1.0]), 2)
    assert dec.breakdown_step == 2


def test_arnoldi_rejects_zero_start():
    with pytest.raises(ValueError):
        oracles.arnoldi(np.eye(3), np.zeros(3), 2)


@seed(13)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**31))
def test_arnoldi_relation_and_orthonormality(n, key):
    rng = np.random.default_rng(key)
    a = random_complex(rng, n)
    r0 = random_unit(rng, n)
    dec = oracles.arnoldi(a, r0, n)
    m = dec.m
    v, hbar = dec.v, dec.hbar
    # after a breakdown the rows of hbar past the stored basis are all zero
    assert np.all(hbar[v.shape[1] :, :] == 0.0)
    scale = spectral_norm(a)
    relation = a @ v[:, :m] - v @ hbar[: v.shape[1], :]
    assert np.linalg.norm(relation) <= RELATION_TOL * max(scale, 1.0)
    gram = v.conj().T @ v
    assert np.linalg.norm(gram - np.eye(v.shape[1])) <= 1e-12


def test_gmres_identity_curve():
    # the kernel leaves rounding-level residue (about 1e-17) after breakdown
    curve = gmres_residuals(np.eye(3), np.array([[1.0], [2.0], [2.0]]), 3)
    assert curve.shape == (4, 1)
    assert curve[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-14)


def test_gmres_two_step_values():
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    curve = gmres_residuals(a, b, 2)[:, 0]
    assert curve[1] == pytest.approx(10.0**-0.5, abs=1e-12)
    assert curve[2] == pytest.approx(0.0, abs=1e-13)


def test_gmres_block_columns_are_independent():
    rng = np.random.default_rng(23)
    a = random_complex(rng, 5)
    block = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    curves = gmres_residuals(a, block, 5)
    assert curves.shape == (6, 4)
    for t in range(4):
        single = gmres_residuals(a, block[:, t : t + 1], 5)[:, 0]
        assert np.allclose(curves[:, t], single, rtol=0.0, atol=1e-14)


@seed(17)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_gmres_matches_polynomial_route(n, key):
    """The package kernel agrees with Arnoldi/Givens and with dense least
    squares at every depth, and both public entry points share it."""
    rng = np.random.default_rng(key)
    a = random_complex(rng, n)
    r0 = random_unit(rng, n)
    curve = gmres_residuals(a, r0[:, None], n)[:, 0]
    assert np.all(np.diff(curve) <= 1e-13)
    assert curve[n] <= 1e-10
    givens = oracles.gmres_givens(a, r0, n)
    for k in range(1, n + 1):
        value, _ = oracles.min_residual_lstsq(a, r0, k)
        assert abs(curve[k] - value) <= ORACLE_TOL
        assert abs(curve[k] - givens[k]) <= ORACLE_TOL
        assert min_residual_values(a, r0[:, None], k)[0] == curve[k]


@pytest.mark.parametrize("name", sorted(deep_matrices()))
def test_deep_kernel_matches_givens(name):
    """At every depth up to 16 the kernel agrees with Arnoldi/Givens; with
    power directions it read 1.7e-10 above it on triu24 at k = 13 and
    6e-9 at k = 16."""
    a = deep_matrices()[name]
    n = a.shape[0]
    rng = np.random.default_rng(41)
    vs = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    kmax = min(n, 16)
    givens = np.column_stack([oracles.gmres_givens(a, v, kmax) for v in vs.T])
    for k in range(1, kmax + 1):
        assert np.abs(min_residual_values(a, vs, k) - givens[k]).max() <= 1e-10


@pytest.mark.parametrize("name", sorted(deep_matrices()))
def test_gradient_is_orthogonal_to_its_vector_at_depth(name):
    """phi is scale-invariant, so its gradient g has Re <v, g> = 0; the
    relative defect |Re <v, g>| / (||g|| ||v||) stays below 1e-10 at every
    depth below n, for five vectors (1.4e-11 at most when measured).  With
    p(A)^H applied by Horner's rule in monomial coefficients it first passed
    1e-10 at k = 12 on both matrices and reached 6.1e-6 on triu24 at k = 16.
    At k = n phi is at rounding level, and so is g."""
    a = deep_matrices()[name]
    n = a.shape[0]
    rngs = [np.random.default_rng(s) for s in range(5)]
    vs = np.column_stack([r.standard_normal(n) + 1j * r.standard_normal(n) for r in rngs])
    for k in range(1, min(n - 1, 16) + 1):
        _, grads = min_residual_gradients(a, vs, k)
        defect = np.abs(np.sum(vs.conj() * grads, axis=0).real)
        scale = np.linalg.norm(grads, axis=0) * np.linalg.norm(vs, axis=0)
        assert (defect / scale).max() <= 1e-10, k


@pytest.mark.parametrize("n", [*range(2, 9), 16])
def test_min_residual_gradient_matches_central_differences(n):
    """The envelope gradient of phi^2 / 2 agrees with central differences
    of phi^2 in all 2n real coordinates (k < n: at k = n phi vanishes).
    At n = 16 the depth is 12, on a wider spectrum that keeps phi far
    enough above rounding for the differences to resolve the gradient."""
    rng = np.random.default_rng(200 + n)
    a = random_complex(rng, n, spread=1.0 if n == 16 else 0.5)
    v = (rng.standard_normal(n) + 1j * rng.standard_normal(n))[:, None]
    h = 1e-6
    steps = np.hstack([h * np.eye(n), 1j * h * np.eye(n)])
    for k in [12] if n == 16 else range(1, min(3, n - 1) + 1):
        values, grads = min_residual_gradients(a, v, k)
        assert values[0] == min_residual_values(a, v, k)[0]
        plus = min_residual_values(a, v + steps, k) ** 2
        minus = min_residual_values(a, v - steps, k) ** 2
        fd = (plus - minus) / (4.0 * h)
        want = fd[:n] + 1j * fd[n:]
        assert np.linalg.norm(grads[:, 0] - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("s", [1e-200, 1e160])
def test_residual_kernel_is_scale_free(s):
    """Ratios and v-gradients do not depend on the scale of A; on the raw A
    the powers A^j v underflowed at 1e-200 (every ratio read 1) and
    overflowed at 1e160."""
    rng = np.random.default_rng(77)
    a = random_complex(rng, 5)
    v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    curves = gmres_residuals(s * a, v, 3)
    assert np.allclose(curves, gmres_residuals(a, v, 3), rtol=1e-10, atol=1e-14)
    phi, grad = min_residual_gradients(s * a, v, 2)
    want_phi, want_grad = min_residual_gradients(a, v, 2)
    assert np.allclose(phi, want_phi, rtol=1e-10, atol=1e-14)
    assert np.allclose(grad, want_grad, rtol=1e-8, atol=1e-12)


def test_min_residual_identity():
    value, coeffs = oracles.min_residual_lstsq(np.eye(3, dtype=complex), np.ones(3), 1)
    assert value == pytest.approx(0.0, abs=1e-13)
    assert coeffs[0] == pytest.approx(-1.0, abs=1e-12)


def test_min_residual_two_point_least_squares():
    a = np.diag([1.0, 2.0]).astype(complex)
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    value, coeffs = oracles.min_residual_lstsq(a, v, 1)
    assert value == pytest.approx(10.0**-0.5, abs=1e-12)
    assert coeffs[0] == pytest.approx(-0.6, abs=1e-12)


def test_min_residual_eigenvector_is_exact():
    a = np.diag([1.0, 2.0]).astype(complex)
    value, _ = oracles.min_residual_lstsq(a, np.array([1.0, 0.0]), 1)
    assert value == pytest.approx(0.0, abs=1e-13)


def test_min_residual_rejects_zero_vector():
    with pytest.raises(ValueError):
        oracles.min_residual_lstsq(np.eye(2), np.zeros(2), 1)


def test_optimal_alpha_scaled_identity():
    v = random_unit(np.random.default_rng(5), 3)
    res = oracles.optimal_alpha(2.0 * np.eye(3), v)
    assert res.alpha_star == pytest.approx(0.5, abs=1e-14)
    assert res.residual_ratio == pytest.approx(0.0, abs=1e-7)


def test_optimal_alpha_two_point():
    a = np.diag([1.0, 2.0]).astype(complex)
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    res = oracles.optimal_alpha(a, v)
    assert res.alpha_star == pytest.approx(0.6, abs=1e-14)
    assert res.residual_ratio == pytest.approx(10.0**-0.5, abs=1e-13)


def test_optimal_alpha_rotation_makes_no_progress():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    res = oracles.optimal_alpha(a, np.array([1.0, 0.0]))
    assert res.alpha_star == 0.0
    assert res.residual_ratio == pytest.approx(1.0, abs=1e-14)


def test_optimal_alpha_degenerate_image():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        oracles.optimal_alpha(a, np.array([1.0, 0.0]))


@seed(19)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_one_step_identity_is_exact(n, key):
    # ratio^2 + |<Av, v>|^2 / (||Av||^2 ||v||^2) = 1 for the optimal step
    rng = np.random.default_rng(key)
    a = random_complex(rng, n)
    v = random_unit(rng, n)
    res = oracles.optimal_alpha(a, v)
    av = a @ v
    cos2 = abs(np.vdot(v, av)) ** 2 / (np.vdot(av, av).real * np.vdot(v, v).real)
    assert abs(res.residual_ratio**2 + cos2 - 1.0) <= 1e-13
    value = min_residual_values(a, v[:, None], 1)[0]
    assert abs(res.residual_ratio - value) <= 1e-12


KERNELS = [gmres_residuals, min_residual_values, min_residual_gradients]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [0, -1, 2.5, 2.0, True, "2", MAX_DEPTH + 1, 40])
def test_kernel_refuses_depths_outside_the_depth_rule(kernel, k):
    with pytest.raises(InvalidSpec, match="invalid depth"):
        kernel(np.diag([1.0, 2.0]), np.ones((2, 1)), k)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_accepts_depths_above_the_order(kernel):
    """k > n is in the rule (the solvers pass it): the ratio is 0."""
    ratios = kernel(np.diag([1.0, 2.0]), np.ones((2, 1)), MAX_DEPTH)
    ratios = ratios[0] if kernel is min_residual_gradients else ratios
    assert np.ravel(ratios)[-1] == pytest.approx(0.0, abs=1e-12)


def test_kernels_are_exactly_zero_once_n_directions_span_the_space():
    """n independent Arnoldi directions ``A v .. A^n v`` span C^n, so the
    ratio at every depth >= n is exactly 0, and so is the gradient; below n
    the kernel matches the Givens oracle."""
    rng = np.random.default_rng(5)
    a = random_complex(rng, 5)
    block = np.column_stack([random_unit(rng, 5) for _ in range(3)])
    curves = gmres_residuals(a, block, 7)
    assert np.all(curves[5:] == 0.0)
    assert curves[4].min() > 1e-3
    for j in range(3):
        assert np.allclose(curves[:5, j], oracles.gmres_givens(a, block[:, j], 4), atol=1e-12)
    for k in (5, 7):
        phi, grads = min_residual_gradients(a, block, k)
        assert np.all(phi == 0.0) and np.all(grads == 0.0)
        assert np.all(min_residual_values(a, block, k) == 0.0)


def test_singular_matrix_keeps_its_residual_at_the_order():
    """A singular A can stall: for ``diag(0, 1, 2)`` the directions ``A v ..
    A^3 v`` span only two dimensions, and the residual keeps v's component
    on the kernel of A, the ratio an independent least-squares solve gives
    and the Givens oracle keeps past its breakdown."""
    a = np.diag([0.0, 1.0, 2.0])
    v = np.array([1.0, 2.0, 3.0])
    ratio = gmres_residuals(a, v[:, None], 3)[3, 0]
    assert ratio == pytest.approx(1.0 / np.sqrt(14.0), abs=1e-14)
    assert abs(ratio - oracles.min_residual_lstsq(a, v, 3)[0]) <= 1e-14
    assert np.allclose(oracles.gmres_givens(a, v, 4)[2:], ratio, rtol=0.0, atol=1e-14)


def test_kernels_at_zero_ratio_below_the_order():
    """phi = 0 below depth n: an eigenvector's Krylov space closes at depth
    1, that of a sum of two eigenvectors at depth 2.  From there all three
    kernels read phi <= 1e-12 and finite gradients of at most 1e-12, without
    a warning, and a generic column in the same block reads as it does
    alone.  The sum's third Arnoldi direction is rounding, but its norm
    (7.8e-15) passes the 1e-14 relative test, so the adjoint recurrence
    divides by it rather than by infinity."""
    rng = np.random.default_rng(61)
    a = random_complex(rng, 7)
    vecs = np.linalg.eig(a)[1]
    g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    block = np.column_stack([vecs[:, 0], vecs[:, 1] + vecs[:, 2], g])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curves = gmres_residuals(a, block, 6)
        assert curves[1:, 0].max() <= 1e-12
        assert curves[2:, 1].max() <= 1e-12
        alone = gmres_residuals(a, g[:, None], 6)[:, 0]
        assert np.abs(curves[:, 2] - alone).max() <= 1e-14
        for k in range(1, 7):
            closed = [0, 1] if k >= 2 else [0]
            values = min_residual_values(a, block, k)
            phi, grads = min_residual_gradients(a, block, k)
            assert values[closed].max() <= 1e-12
            assert phi[closed].max() <= 1e-12
            assert np.isfinite(grads).all()
            assert np.abs(grads[:, closed]).max() <= 1e-12
            phi_g, grad_g = min_residual_gradients(a, g[:, None], k)
            assert abs(values[2] - min_residual_values(a, g[:, None], k)[0]) <= 1e-14
            assert abs(phi[2] - phi_g[0]) <= 1e-14
            assert np.abs(grads[:, 2] - grad_g[:, 0]).max() <= 1e-14


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "block", [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], ids=["ones", "e1"]
)
def test_kernel_refuses_a_zero_column(kernel, block):
    """A zero vector has no residual ratio: every kernel refuses it."""
    with pytest.raises(ZeroVector):
        kernel(np.eye(2), np.array(block), 1)


@pytest.mark.parametrize("c", [1e200, 1e-200], ids=["1e200", "1e-200"])
def test_kernels_and_worst_case_are_scale_safe(c):
    """Each column is divided by its largest part in modulus before a norm
    is squared, so for c v the ratios match those of v and the gradient,
    homogeneous of degree -1, matches once multiplied by c.  Undivided,
    ``[1e200, 1, 1]`` overflowed and ``[1e-200, 1e-200, 0]`` read as a zero
    vector; warnings are errors here."""
    a = np.diag([1.0, 2.0, 3.0])
    v = np.array([[1.0, 1.0, 0.3], [1.0, 1e-200, -2j], [0.0, 1e-200, 0.5 + 1j]])
    assert np.abs(gmres_residuals(a, c * v, 3) - gmres_residuals(a, v, 3)).max() <= 1e-14
    for k in (1, 2):
        values = min_residual_values(a, v, k)
        assert np.abs(min_residual_values(a, c * v, k) - values).max() <= 1e-14
        phi, grads = min_residual_gradients(a, v, k)
        phi_c, grads_c = min_residual_gradients(a, c * v, k)
        assert np.abs(phi_c - phi).max() <= 1e-14
        assert np.abs(c * grads_c - grads).max() <= 1e-14 * np.abs(grads).max()
        worst = worst_case_gmres(a, k, v)
        worst_c = worst_case_gmres(a, k, c * v)
        assert abs(worst_c.value - worst.value) <= 1e-14
