"""Dense complex linear algebra kernels for small matrices.

Everything here operates on square ``complex128`` NumPy arrays at sizes
where dense O(n^3) work is instantaneous (n up to a few hundred).  Real
input is accepted everywhere and is promoted to complex storage; there is
no separate real code path.  The inner product convention is
``<x, y> = y^H x`` (conjugate-linear in the second argument) throughout
the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian

__all__ = [
    "EigenSpectrum",
    "as_matrix",
    "binary_scaled",
    "hermitian_part",
    "eig_hermitian",
    "spectral_norm",
    "top_singular_triple",
    "evaluate_residual_polynomial",
]

# Symmetry gate of eig_hermitian, relative to ||M||_F.
_HERMITIAN_CHECK = 1e-12


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending; column ``vectors[:, i]`` is a unit
    eigenvector paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate and promote ``a`` to a square ``complex128`` array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def hermitian_part(a) -> np.ndarray:
    """Return ``(A + A^H) / 2``.

    The result is Hermitian by construction; storage is symmetrized so the
    output passes the symmetry gate of :func:`eig_hermitian` exactly.
    """
    m = as_matrix(a)
    return 0.5 * (m + m.conj().T)


def eig_hermitian(m) -> EigenSpectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian up to a defect ``||M - M^H||_F`` of 1e-12
        relative to ``||M||_F``.

    Returns
    -------
    EigenSpectrum
        Real ascending eigenvalues and orthonormal eigenvector columns.

    Raises
    ------
    NotHermitian
        If the symmetry defect exceeds the gate.
    NoConvergence
        If the underlying LAPACK driver fails to converge.
    """
    a = as_matrix(m)
    # an exact power-of-two scale keeps both norms of the gate in range
    scaled = binary_scaled(a)[0]
    scale = float(np.linalg.norm(scaled, "fro"))
    defect = float(np.linalg.norm(scaled - scaled.conj().T, "fro"))
    if defect > _HERMITIAN_CHECK * max(scale, np.finfo(float).tiny):
        raise NotHermitian(
            f"symmetry defect {defect:.3e} exceeds {_HERMITIAN_CHECK:.1e} * ||M||_F"
        )
    # Symmetrize storage so the tolerated skew part cannot leak into the result.
    a = 0.5 * (a + a.conj().T)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver did not converge: {exc}") from exc
    return EigenSpectrum(values, vectors)


def binary_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(M / 2^e, e)`` for a complex array M, with ``2^e`` the power of two
    just above its largest real or imaginary part, so that squares and
    products of the scaled entries stay in range.  The scaling is exact."""
    e = int(np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])
    return np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e), e


def _scaled_gram_spectrum(a):
    """``(S, e, spectrum of S^H S)`` with ``(S, e) = binary_scaled(A)``."""
    scaled, e = binary_scaled(as_matrix(a))
    return scaled, e, eig_hermitian(scaled.conj().T @ scaled)


def spectral_norm(a) -> float:
    """Spectral norm ``||A||_2 = sqrt(lambda_max(A^H A))``."""
    _, e, spectrum = _scaled_gram_spectrum(a)
    return float(np.ldexp(np.sqrt(max(float(spectrum.values[-1]), 0.0)), e))


def top_singular_triple(a):
    """Dominant singular triple ``(sigma, u, w)`` with ``A w = sigma u``.

    Computed from the eigendecomposition of ``A^H A``, consistent with
    :func:`spectral_norm`.  When ``sigma`` vanishes the left vector ``u``
    defaults to the first coordinate direction.
    """
    scaled, e, spectrum = _scaled_gram_spectrum(a)
    w = spectrum.vectors[:, -1]
    z = scaled @ w
    sigma = float(np.linalg.norm(z))
    if sigma > 0.0:
        u = z / sigma
    else:
        u = np.zeros_like(w)
        u[0] = 1.0
    return float(np.ldexp(sigma, e)), u, w


def evaluate_residual_polynomial(a, coefficients) -> np.ndarray:
    """Evaluate ``p(A) = I + c_1 A + ... + c_k A^k`` by Horner recurrence.

    ``coefficients`` holds ``c_1 .. c_k``; an empty list gives the identity.
    The constant term is pinned to one, which is the normalization
    ``p(0) = 1`` shared by every residual polynomial in this package.
    """
    m = as_matrix(a)
    c = np.asarray(coefficients, dtype=np.complex128).ravel()
    n = m.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    if c.size == 0:
        return eye
    if c.size > 8:
        raise ValueError("monomial-basis evaluation is limited to degree 8")
    q = c[-1] * eye
    for cj in c[-2::-1]:
        q = cj * eye + m @ q
    return eye + m @ q
