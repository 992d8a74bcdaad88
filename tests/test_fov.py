import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st
from scipy.linalg import lapack

from gmreslab import (
    InvalidSpec,
    NoConvergence,
    fov_boundary,
    fov_summary,
    hermitian_part,
    nu_fov,
    spectral_norm,
    verify_chain,
)
from gmreslab.fov import _zero_tol
from conftest import random_complex, random_nonsingular
import oracles
from oracles import nu_fov_inverse, rayleigh

HULL_TOL = 1e-5


def test_rayleigh_identity():
    v = np.array([2.0, 1.0])
    assert rayleigh(np.eye(2), v) == pytest.approx(1.0)


def test_rayleigh_eigenvector():
    assert rayleigh(np.diag([1.0, 3.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_rayleigh_jordan(jordan_block):
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert rayleigh(jordan_block, v) == pytest.approx(1.5)


def test_rayleigh_rejects_zero():
    with pytest.raises(InvalidSpec, match="zero vector"):
        rayleigh(np.eye(2), np.zeros(2))


def test_support_diag_theta_zero():
    b = fov_boundary(np.diag([1.0, 3.0]), 8)
    assert (b.support_min[0], b.support_max[0]) == pytest.approx((1.0, 3.0))


def test_support_diag_theta_pi():
    b = fov_boundary(np.diag([1.0, 3.0]), 8)
    assert (b.support_min[4], b.support_max[4]) == pytest.approx((-3.0, -1.0))


def test_support_jordan(jordan_block):
    # the rotated Hermitian part at angle zero is [[1, .5], [.5, 1]]
    b = fov_boundary(jordan_block, 8)
    assert (b.support_min[0], b.support_max[0]) == pytest.approx((0.5, 1.5))
    assert (b.support_min[4], b.support_max[4]) == pytest.approx((-1.5, -0.5))


def test_support_witness_touches_boundary():
    a = random_complex(np.random.default_rng(17), 5)
    b = fov_boundary(a, 8)
    support = (np.exp(-1j * b.angles) * b.points).real
    assert np.max(np.abs(support - b.support_max)) <= 1e-10


def test_boundary_of_identity_is_a_point():
    b = fov_boundary(np.eye(3), 8)
    assert np.allclose(b.points, 1.0)


def test_boundary_hermitian_stays_on_segment():
    b = fov_boundary(np.diag([0.0, 2.0]), 8)
    assert np.allclose(b.points.imag, 0.0, atol=1e-12)
    assert np.all(b.points.real >= -1e-12)
    assert np.all(b.points.real <= 2.0 + 1e-12)


def test_boundary_jordan_is_a_disk(jordan_block):
    """The 2x2 Jordan block has a circular numerical range of radius 1/2."""
    b = fov_boundary(jordan_block, 360)
    radii = np.abs(b.points - 1.0)
    assert np.max(np.abs(radii - 0.5)) <= 1e-6
    cloud = oracles.rayleigh_cloud(jordan_block, 4000, seed=2)
    assert np.max(np.abs(cloud - 1.0)) <= 0.5 + 1e-9


def _toh(eps):
    return np.array(
        [[1, eps, 0, 0], [0, -1, 1 / eps, 0], [0, 0, 1, eps], [0, 0, 0, -1]],
        dtype=np.complex128,
    )


def _assert_matches_eigensolves(a, b):
    """Support values within 1e-12 of batched eigvalsh, each point on the
    supporting line of its angle within 1e-10."""
    phases = np.exp(-1j * b.angles)[:, None, None]
    stack = 0.5 * (phases * a + np.conj(phases) * a.conj().T)
    values = np.linalg.eigvalsh(stack)
    assert np.max(np.abs(b.support_min - values[:, 0])) <= 1e-12
    assert np.max(np.abs(b.support_max - values[:, -1])) <= 1e-12
    support = (np.exp(-1j * b.angles) * b.points).real
    assert np.max(np.abs(support - b.support_max)) <= 1e-10


_SMALL_CASES = {
    "normal_kink": np.diag([2 + 1j, 1 - 2j]),
    "segment": np.diag([0.0, 2.0]),
    "jordan_blocks": np.kron(np.eye(3), [[1.0, 1.0], [0.0, 1.0]]),
    "toh_0.1": _toh(0.1),
}


@pytest.mark.parametrize(
    "a, m",
    [
        pytest.param(random_complex(np.random.default_rng(53), 7), 720, id="720"),
        pytest.param(random_complex(np.random.default_rng(53), 7), 9, id="9"),
        pytest.param(
            np.random.default_rng(67).standard_normal((12, 12)), 720, id="real12"
        ),
    ]
    + [pytest.param(a, 720, id=name) for name, a in _SMALL_CASES.items()]
    # copies give the same field of values with a multiple top eigenvalue;
    # n <= 28 solves every angle directly, 15 copies take the warm start
    + [
        pytest.param(np.kron(np.eye(copies), a), 720, id=f"{name}_x{copies}")
        for copies in (5, 15)
        for name, a in _SMALL_CASES.items()
    ],
)
def test_boundary_matches_batched_eigensolves(a, m):
    _assert_matches_eigensolves(a, fov_boundary(a, m))


@seed(71)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["random", "normal", "real"]),
    st.sampled_from([8, 9, 720]),
)
def test_boundary_matches_eigensolves_on_random_inputs(n, key, kind, m):
    rng = np.random.default_rng(key)
    a = random_complex(rng, n, spread=float(rng.uniform(0.2, 1.5)))
    if kind == "normal":
        q = np.linalg.qr(a)[0]
        a = q @ np.diag(np.linalg.eigvals(a)) @ q.conj().T
    elif kind == "real":
        a = a.real
    _assert_matches_eigensolves(a, fov_boundary(a, m))


def _count_calls(monkeypatch, name):
    calls = []
    routine = getattr(lapack, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return routine(*args, **kwargs)

    monkeypatch.setattr(lapack, name, counted)
    return calls


@pytest.mark.parametrize(
    "kind, warm",
    [pytest.param("complex", (719, 1441), id="complex"), pytest.param("real", (360, 721), id="real")],
)
def test_boundary_needs_few_full_eigensolves(kind, warm, monkeypatch):
    """An odd count walks an even grid of 2m angles, so it needs no
    eigensolve per angle for support_min either.  Every angle after the
    first (up to pi for real A) is certified by its own Cholesky
    factorization, so the few full eigensolves are not bought by skipping
    certificates."""
    a = random_complex(np.random.default_rng(73), 64)
    if kind == "real":
        a = a.real
    calls = _count_calls(monkeypatch, "zheevr")
    factorizations = _count_calls(monkeypatch, "zpotrf")
    for m, angles in zip((720, 721), warm):
        calls.clear()
        factorizations.clear()
        b = fov_boundary(a, m)
        assert len(calls) <= 6
        assert len(factorizations) == angles
        _assert_matches_eigensolves(a, b)


def _fail_factorizations(monkeypatch):
    """Every Cholesky factorization fails after scribbling over its input,
    as one that breaks down part way leaves the matrix overwritten."""

    def failing(a, **kwargs):
        a.fill(np.nan)
        return a, 1

    monkeypatch.setattr(lapack, "zpotrf", failing)


def test_boundary_falls_back_when_the_certificate_fails(monkeypatch):
    _fail_factorizations(monkeypatch)
    calls = _count_calls(monkeypatch, "zheevr")
    a = random_complex(np.random.default_rng(79), 32)
    b = fov_boundary(a, 720)
    assert len(calls) == 720
    _assert_matches_eigensolves(a, b)


def _report_failure(monkeypatch, name):
    """``lapack.<name>`` runs but reports ``info = 1``, as a failed call does."""
    routine = getattr(lapack, name)

    def failing(*args, **kwargs):
        return (*routine(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(lapack, name, failing)


def test_boundary_falls_back_when_the_ritz_eigensolve_fails(monkeypatch):
    """A failed heevx on the Rayleigh-Ritz matrix leaves every angle to heevr."""
    _report_failure(monkeypatch, "zheevx")
    calls = _count_calls(monkeypatch, "zheevr")
    a = random_complex(np.random.default_rng(79), 32)
    b = fov_boundary(a, 720)
    assert len(calls) == 720
    _assert_matches_per_angle_eigvalsh(a, b)


def test_boundary_refuses_a_failed_eigensolve(monkeypatch):
    _report_failure(monkeypatch, "zheevr")
    with pytest.raises(NoConvergence, match="heevr failed"):
        fov_boundary(random_complex(np.random.default_rng(79), 8), 8)


@pytest.mark.parametrize("kind, solved", [("complex", 721), ("real", 361)])
def test_boundary_falls_back_with_an_odd_sample_count(kind, solved, monkeypatch):
    """An odd count walks the 2m angles of an even grid (m + 1 of them for
    real A); after each failed factorization the buffer is formed again for
    the top eigenvector."""
    _fail_factorizations(monkeypatch)
    calls = _count_calls(monkeypatch, "zheevr")
    a = random_complex(np.random.default_rng(79), 32)
    if kind == "real":
        a = a.real
    b = fov_boundary(a, 721)
    assert len(calls) == 2 * solved
    _assert_matches_eigensolves(a, b)


def _assert_matches_per_angle_eigvalsh(a, b):
    """Support values within the zero tolerance of a per-angle eigvalsh of
    H(theta)."""
    herm, skew = hermitian_part(a), hermitian_part(-1j * a)
    for theta, top, bottom in zip(b.angles, b.support_max, b.support_min):
        values = np.linalg.eigvalsh(np.cos(theta) * herm + np.sin(theta) * skew)
        assert abs(top - values[-1]) <= _zero_tol(a)
        assert abs(bottom - values[0]) <= _zero_tol(a)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_boundary_below_the_warm_order_matches_per_angle_eigvalsh(kind):
    """At n = 20 every angle takes one heevr; the support values agree with
    a per-angle eigvalsh of H(theta) to the zero tolerance."""
    a = random_complex(np.random.default_rng(83), 20)
    if kind == "real":
        a = a.real
    _assert_matches_per_angle_eigvalsh(a, fov_boundary(a, 720))


@pytest.mark.parametrize("m", [9, 721])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_boundary_warm_odd_count_matches_per_angle_eigvalsh(kind, m):
    """At n = 40 the angles take the warm start, and an odd count reads
    support_min off the opposite angle of a grid of 2m."""
    a = random_complex(np.random.default_rng(89), 40)
    if kind == "real":
        a = a.real
    _assert_matches_per_angle_eigvalsh(a, fov_boundary(a, m))


def test_boundary_rejects_tiny_sample_counts(jordan_block):
    with pytest.raises(ValueError):
        fov_boundary(jordan_block, 4)


@pytest.mark.parametrize("m", [720.0, 9.5])
def test_boundary_rejects_non_integer_sample_counts(jordan_block, m):
    """A float count is refused as input, not passed on to numpy."""
    with pytest.raises(InvalidSpec, match="samples"):
        fov_boundary(jordan_block, m)


def test_boundary_beyond_the_float_range_is_refused(jordan_block):
    """F(1.7e308 [[1, 1], [0, 1]]) reaches Re z = 2.55e308: support_max
    read infinite at 3 of 8 angles, while fov_summary refuses such a value."""
    with pytest.raises(InvalidSpec, match="leaves the float range"):
        fov_boundary(1.7e308 * jordan_block, 8)


def test_nu_identity():
    assert nu_fov(np.eye(4)).value == pytest.approx(1.0, abs=1e-12)


def test_nu_zero_inside():
    res = nu_fov(np.diag([1j, -1j]))
    assert res.value == 0.0


def test_nu_jordan(jordan_block):
    assert nu_fov(jordan_block).value == pytest.approx(0.5, abs=1e-9)


def test_nu_zero_on_the_boundary():
    # F([[1, 2], [0, 1]]) is the disk |z - 1| <= 1: A is invertible, 0 is on its rim
    res = nu_fov(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert res.value == 0.0
    assert res.upper <= 1e-14


def test_nu_normal_kink_is_the_segment_midpoint():
    # F is the segment [2+i, 1-2i]; its point nearest 0 is the midpoint 1.5-0.5i
    res = nu_fov(np.diag([2 + 1j, 1 - 2j]))
    assert res.value == pytest.approx(np.sqrt(2.5), abs=1e-14)
    assert res.upper == pytest.approx(np.sqrt(2.5), abs=1e-14)
    assert res.angle == pytest.approx(np.angle(1.5 - 0.5j) % (2 * np.pi), abs=1e-12)


def test_nu_rotated_jordan(jordan_block):
    res = nu_fov(np.exp(2.0j) * jordan_block)
    assert res.value == pytest.approx(0.5, abs=1e-14)
    assert res.upper - res.value <= _zero_tol(jordan_block)


@seed(59)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
)
def test_nu_bracket_matches_scan_and_hull(n, key, normal):
    rng = np.random.default_rng(key)
    a = random_complex(rng, n, spread=float(rng.uniform(0.2, 1.5)))
    if normal:
        q = np.linalg.qr(a)[0]
        a = q @ np.diag(np.linalg.eigvals(a)) @ q.conj().T
    res = nu_fov(a)
    scan = oracles.nu_scan(a)
    assert res.value <= res.upper
    assert scan - 1e-12 <= res.value <= scan + 1e-9
    assert res.upper - res.value <= _zero_tol(a)
    assert res.value <= oracles.hull_distance(fov_boundary(a, 2000).points) + 1e-12


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 2.0], [0.0, 1.0]]),
        np.diag([2 + 1j, 1 - 2j]),
        np.exp(2.0j) * np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.diag([1 + 0.5j, 2 - 0.5j, 3 + 0.25j]),  # the gallery's diag_complex
        random_complex(np.random.default_rng(61), 128),
    ]
    # 0 on a curved part of the boundary, away from the start angles
    + [np.exp(1j * phi) * np.array([[1.0, 2.0], [0.0, 1.0]]) for phi in (0.3, 1.0, 2.2)]
    # F(A) the rectangle [-1, 0.1] x [0.001, 0.004] turned by 0.1: the best
    # start angle lies across F(A), at a local maximum of g < 0
    + [np.exp(0.1j) * np.diag([-1 + 1e-3j, 0.1 + 1e-3j, 0.1 + 4e-3j, -1 + 4e-3j])],
    ids=["disk_rim", "normal_kink", "rotated_jordan", "diag_complex", "random128"]
    + [f"disk_rim_rotated_{phi}" for phi in (0.3, 1.0, 2.2)] + ["thin_slab"],
)
def test_nu_eigensolve_count(a, monkeypatch):
    """At most 8 eigensolves per call; the inputs take 1 (disk_rim) to 7.
    Where the Hermitian part is definite, g(0) or g(pi) is positive at the
    first eigensolve, so the other start angles are skipped: at most 4
    (normal_kink 3, diag_complex 4, random128 3; 5, 7 and 6 while every
    start angle was evaluated)."""
    herm = np.linalg.eigvalsh(hermitian_part(a))
    definite = max(herm[0], -herm[-1]) > _zero_tol(a)
    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(None)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = nu_fov(a)
    assert len(calls) <= (4 if definite else 8)
    assert res.upper - res.value <= _zero_tol(a)
    if a.shape[0] == 128:
        assert res.value > 0.0


def test_nu_work_on_rotated_disks(monkeypatch):
    """``e^{i phi} [[1 + delta, 2], [0, 1 + delta]]`` has F(A) the unit disk
    about ``(1 + delta) e^{i phi}``, so nu = max(delta, 0): 0 lies on, just
    inside or just outside a curved boundary.  On 24 angles off the start
    grid and 5 offsets every value is exact to the zero tolerance, and the
    eigensolve count, exact and machine-independent, stays near its
    measured 776 in all and 7 per call: each eigensolve evaluates an angle
    and its opposite."""
    counts = []
    eigh = np.linalg.eigh

    def counted(m):
        counts[-1] += 1
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for j in range(24):
        phi = 2.0 * np.pi * (j + 0.37) / 24
        for delta in (0.0, 1e-9, -1e-9, 1e-6, -1e-6):
            a = np.exp(1j * phi) * np.array([[1.0 + delta, 2.0], [0.0, 1.0 + delta]])
            counts.append(0)
            assert abs(nu_fov(a).value - max(delta, 0.0)) <= _zero_tol(a), (phi, delta)
    assert max(counts) <= 8
    assert sum(counts) <= 860


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(None)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_summary_of_a_real_matrix_with_definite_m_takes_two_eigensolves(monkeypatch):
    """For real A with M positive definite, g(0) = lambda_min(M) = nu(F(A))
    and the bottom and top eigenvectors of M give real Rayleigh quotients
    whose segment starts at it, so the first eigensolve closes the bracket;
    A^{-1} is real with a definite Hermitian part too."""
    rng = np.random.default_rng(101)
    a = 1.5 * np.eye(24) + 0.5 * rng.standard_normal((24, 24)) / np.sqrt(24)
    assert np.linalg.eigvalsh(hermitian_part(a))[0] > 0.0
    calls = _count_eigh(monkeypatch)
    data = fov_summary(a)
    assert len(calls) == 2
    assert data.nu_a == pytest.approx(np.linalg.eigvalsh(hermitian_part(a))[0], abs=1e-14)


def test_nu_with_the_origin_deep_inside_takes_at_most_two_eigensolves(monkeypatch):
    """The four Rayleigh quotients of the eigensolves at 0 and pi/4 (with
    their opposite angles pi and 5 pi/4) surround an origin deep inside
    F(A)."""
    a = random_complex(np.random.default_rng(103), 12, shift=0.05)
    calls = _count_eigh(monkeypatch)
    res = nu_fov(a)
    assert len(calls) <= 2
    assert res.value == 0.0


@pytest.mark.parametrize("c", [1e-200, 1e160, 1e200], ids=["1e-200", "1e160", "1e200"])
def test_nu_at_extreme_magnitudes(c):
    """nu_fov works on A scaled by a power of two, so neither the norm of
    its zero tolerance nor the squared distances of its hull leave range,
    and the inverse's zero test runs in the same frame; lambda_min(M) of
    the report is read in that frame too."""
    assert nu_fov(c * np.eye(3)).value == pytest.approx(c, rel=1e-12, abs=0.0)
    a = c * np.diag([1.0, 2.0])
    data = fov_summary(a)
    assert data.nu_a == pytest.approx(c, rel=1e-12, abs=0.0)
    assert data.nu_ainv == pytest.approx(0.5 / c, rel=1e-12, abs=0.0)
    report = verify_chain(a, 1, trials=1, fov_data=data)
    assert report.lambda_min_m == pytest.approx(c, rel=1e-12, abs=0.0)


def test_nu_inverse_examples():
    assert nu_fov_inverse(np.eye(3)) == pytest.approx(1.0, abs=1e-12)
    assert nu_fov_inverse(np.diag([1.0, 3.0])) == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert nu_fov_inverse(2.0 * np.eye(5)) == pytest.approx(0.5, abs=1e-12)


def test_nu_inverse_rejects_singular():
    # a singular A has 0 in F(A): no inverse is formed and the value is 0
    assert nu_fov_inverse(np.diag([1.0, 0.0])) == 0.0
    assert nu_fov_inverse(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.0


@pytest.mark.parametrize(
    "a",
    [
        np.diag([1.0, -1.0]),
        np.array(
            [[1, 0.5, 0, 0], [0, -1, 2, 0], [0, 0, 1, 0.5], [0, 0, 0, -1]],
            dtype=np.complex128,
        ),
    ],
    ids=["diag_pm1", "toh_0.5"],
)
def test_nu_inverse_zero_when_origin_in_fov(a):
    # invertible with eigenvalues +-1, so 0 lies in F(A) and in F(inv(A))
    assert nu_fov(a).value == 0.0
    assert nu_fov_inverse(a) == 0.0
    assert oracles.nu_inverse_pencil(a) <= 1e-10


def test_nu_inverse_jordan(jordan_block):
    # inv([[1, 1], [0, 1]]) = [[1, -1], [0, 1]]: F is the disk |z - 1| <= 1/2
    assert nu_fov_inverse(jordan_block) == pytest.approx(0.5, abs=1e-9)


@seed(47)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_nu_inverse_matches_inverse_free_pencil(n, key):
    rng = np.random.default_rng(key)
    a = random_nonsingular(rng, n, spread=float(rng.uniform(0.2, 1.0)))
    nu = nu_fov_inverse(a)
    grid = oracles.nu_inverse_pencil(a)
    # the grid maximum bounds the supremum from below, and from above to
    # second order in the fine grid spacing
    assert grid - 1e-10 <= nu <= grid + 1e-8


def test_nu_matches_hull_distance_on_random_matrices():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        a = random_complex(rng, n, spread=float(rng.uniform(0.3, 1.5)))
        nu = nu_fov(a).value
        dist = oracles.hull_distance(fov_boundary(a, 2000).points)
        assert abs(nu - dist) <= HULL_TOL


def test_nu_dominates_hermitian_part_minimum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_complex(rng, 6, spread=0.6)
        lam_min = np.linalg.eigvalsh(hermitian_part(a))[0]
        if lam_min <= 0.0:
            continue
        assert lam_min <= nu_fov(a).value + 1e-8


def test_inverse_nu_lower_bound():
    # lambda_min(M) / ||A||^2 never exceeds nu(F(inv(A)))
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = random_nonsingular(rng, 5)
        lam_min = np.linalg.eigvalsh(hermitian_part(a))[0]
        if lam_min <= 0.0:
            continue
        bound = lam_min / spectral_norm(a) ** 2
        assert bound <= nu_fov_inverse(a) + 1e-8


def test_summary_is_consistent():
    """fov_summary against two other paths: nu_fov on A, and nu_fov on the
    inverse of A itself (the oracle) where the summary inverts A / 2^e."""
    rng = np.random.default_rng(43)
    a = random_nonsingular(rng, 4)
    s = fov_summary(a)
    assert s.nu_a == pytest.approx(nu_fov(a).value, abs=1e-12)
    assert s.nu_ainv == pytest.approx(nu_fov_inverse(a), abs=1e-12)
    assert verify_chain(a, 1, trials=1, fov_data=s).lambda_min_m == pytest.approx(
        np.linalg.eigvalsh(hermitian_part(a))[0], abs=1e-12
    )
