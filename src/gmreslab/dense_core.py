"""Dense complex linear algebra kernels for small matrices.

Everything here operates on square ``complex128`` NumPy arrays at sizes
where dense O(n^3) work is instantaneous (n up to a few hundred).  Real
input is accepted everywhere and is promoted to complex storage; there is
no separate real code path.  The inner product convention is
``<x, y> = y^H x`` (conjugate-linear in the second argument) throughout
the package.  Hermitian eigenproblems go to ``np.linalg.eigh`` (``eigvalsh``
for eigenvalues; the ideal solver calls ``zheevd``, ``fov_boundary``
``zheevr``), and their errors reach ``run_experiment`` and ``cli.main``,
which exit 4.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpec

__all__ = [
    "as_matrix",
    "binary_scaled",
    "hermitian_part",
    "scaled_back",
    "spectral_norm",
]


def as_matrix(a) -> np.ndarray:
    """Validate and promote ``a`` to a square ``complex128`` array, or raise
    :class:`InvalidSpec`."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError):  # ragged or not numbers
        raise InvalidSpec("matrix must be a numeric square array") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidSpec(f"expected a square matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise InvalidSpec("matrix entries must be finite")
    return m


def hermitian_part(a) -> np.ndarray:
    """Return ``(A + A^H) / 2``.

    The result is exactly Hermitian in storage (``H[j, i]`` is the
    conjugate of ``H[i, j]`` bit for bit, the diagonal is real), which is
    what ``np.linalg.eigh`` assumes of its input.  Each half is taken
    before the sum, so finite entries near the float maximum stay finite.
    """
    m = as_matrix(a)
    return 0.5 * m + 0.5 * m.conj().T


def binary_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(M / 2^e, e)`` for a complex array M, with ``2^e`` the power of two
    just above its largest real or imaginary part, so that squares and
    products of the scaled entries stay in range.  The scaling is exact."""
    e = int(np.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1])
    return np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e), e


def scaled_back(x, e: int):
    """Real ``x 2^e``, undoing :func:`binary_scaled`: exact in range,
    infinite beyond it, without a warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, e)


def spectral_norm(a) -> float:
    """Spectral norm ``||A||_2 = sqrt(lambda_max(A^H A))``, from the Gram
    matrix of ``(S, e) = binary_scaled(A)``."""
    scaled, e = binary_scaled(as_matrix(a))
    lam = np.linalg.eigvalsh(hermitian_part(scaled.conj().T @ scaled))[-1]
    return float(scaled_back(np.sqrt(max(lam, 0.0)), e))

