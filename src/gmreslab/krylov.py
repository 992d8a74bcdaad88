"""GMRES residual ratios from one batched kernel.

The quantity of interest is the GMRES residual ratio

    ||r_k|| / ||r_0|| = min over p in pi_k of ||p(A) r_0|| / ||r_0||,

where pi_k is the set of polynomials of degree at most k with p(0) = 1.
One kernel computes it for a whole block of vectors at once: Arnoldi
builds orthonormal Krylov directions for every column, and they are
projected out of the residual, so normal equations are never formed.  The
same Arnoldi function builds the ideal solver's matrix-space basis.
:func:`gmres_residuals` returns the ratio at every depth up to ``kmax``,
:func:`min_residual_values` the ratio at one depth, and
:func:`min_residual_gradients` adds its exact gradient in v.  Arnoldi with
Givens rotations and a dense least-squares solve serve as independent
cross-checks in the test suite.
"""

from __future__ import annotations

import numpy as np

from .dense_core import as_matrix, binary_scaled
from .errors import ZeroVector, check_depth, check_int

__all__ = [
    "gmres_residuals",
    "min_residual_gradients",
    "min_residual_values",
]


def _arnoldi(apply, start: np.ndarray, k: int):
    """Arnoldi on each column x of ``start``: ``(Q, T)`` with ``Q[j - 1]``
    the j-th orthonormal direction of ``span{M x, .., M^k x}``, M the map
    ``apply``, and ``Q_j = sum_i T[i - 1, j - 1] M^i x``, T upper triangular;
    the last axis runs over the columns x.  ``Q_j`` comes from ``M Q_(j-1)``
    (``M x`` for j = 1) by two classical Gram-Schmidt passes in the column
    inner product.  A direction below 1e-14 of ``M Q_(j-1)`` lies in the
    span already: it and every later direction of that column stay zero.
    """
    size, cols = start.shape
    # rows 0..size-1 of basis[j] hold Q[j], the k rows below T[j]
    basis = np.zeros((k, size + k, cols), dtype=np.complex128)
    basis[0, :size], basis[0, size] = apply(start), 1.0
    for j in range(k):
        w = basis[j]
        ref = np.linalg.norm(w[:size], axis=0)
        for _ in range(2 if j else 0):
            h = np.einsum("jnb,nb->jb", basis[:j, :size].conj(), w[:size])
            w -= np.einsum("jnb,jb->nb", basis[:j], h)
        norm = np.linalg.norm(w[:size], axis=0)
        w /= np.where(norm > 1e-14 * ref, norm, np.inf)
        if j + 1 < k:
            # T is upper triangular: M Q[j] has the coordinates of Q[j] shifted
            basis[j + 1, :size], basis[j + 1, size + 1 :] = apply(w[:size]), w[size:-1]
    return basis[:, :size], basis[:, size:].swapaxes(0, 1)


def _residual_curves(mat: np.ndarray, batch: np.ndarray, k: int):
    """Residual ratios at depths 0..k for each column of ``batch``.

    Row j holds ``min over p in pi_j of ||p(A) v|| / ||v||``: the Arnoldi
    directions ``Q_1 .. Q_k`` of :func:`_arnoldi` span ``{A v, .., A^k v}``
    and are projected out of the running residual one at a time.  A
    dependent direction stays zero, which leaves the spanned space and hence
    the minimum unchanged.  The projection coefficients h give, through the
    coordinates T of the directions in the powers ``A^i v``, the
    coefficients ``c = -T h`` of the depth-k residual polynomial, ``p(A) v =
    v + c_1 A v + .. + c_k A^k v``, returned with the residual.

    Callers pass ``dense_core.binary_scaled(A)``: the ratios do not depend
    on the scale of A, and the coordinates T, of size ``1 / ||A^i v||``,
    leave the float range on the raw A when ``||A||`` is far from 1.  The
    coefficients are then those of the polynomial in the scaled matrix.
    """
    q, t = _arnoldi(lambda w: mat @ w, batch, k)
    h = np.empty((k, batch.shape[1]), dtype=np.complex128)
    residuals = np.empty((k + 1,) + batch.shape, dtype=np.complex128)
    residuals[0] = batch
    for j in range(k):
        h[j] = np.einsum("nb,nb->b", q[j].conj(), residuals[j])
        residuals[j + 1] = residuals[j] - q[j] * h[j]
    norms = np.linalg.norm(residuals, axis=1)
    curves = norms / np.where(norms[0] > 0.0, norms[0], 1.0)
    return curves, residuals[k], -np.einsum("ijb,jb->ib", t, h)


def gmres_residuals(a, r0s, kmax: int) -> np.ndarray:
    """GMRES residual ratios ``||r_j|| / ||r_0||`` for steps j = 0..kmax.

    ``r0s`` holds one initial residual per column; the result is the
    ``(kmax + 1) x B`` block of ratio curves.  After a lucky breakdown the
    remaining ratios are zero up to rounding.
    """
    mat = binary_scaled(as_matrix(a))[0]
    n = mat.shape[0]
    kmax = check_int(kmax, "kmax", 1, n)
    block = np.asarray(r0s, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != n:
        raise ValueError("initial residual block must be n x B")
    if np.any(np.linalg.norm(block, axis=0) == 0.0):
        raise ZeroVector("initial residual is zero")
    return _residual_curves(mat, block, kmax)[0]


def _candidate_block(a, vs, k) -> tuple[np.ndarray, np.ndarray, int]:
    """A scaled by a power of two (see :func:`_residual_curves`), the
    candidate block and the checked depth."""
    mat = binary_scaled(as_matrix(a))[0]
    batch = np.asarray(vs, dtype=np.complex128)
    if batch.ndim != 2 or batch.shape[0] != mat.shape[0]:
        raise ValueError("candidate block must be n x B")
    return mat, batch, check_depth(k)


def min_residual_values(a, vs: np.ndarray, k: int) -> np.ndarray:
    """Minimize ``||p(A) v|| / ||v||`` over p in pi_k for a block of vectors.

    ``vs`` holds one candidate vector per column; the return value has one
    residual ratio per column.  Zero columns yield ratio 0; callers that
    care should not pass them.
    """
    mat, batch, k = _candidate_block(a, vs, k)
    return _residual_curves(mat, batch, k)[0][k]


def min_residual_gradients(a, vs: np.ndarray, k: int):
    """Ratios ``phi(v)`` as :func:`min_residual_values`, and gradients of ``phi^2 / 2``.

    The gradient (complex form ``d/dRe v + i d/dIm v``) is, by the envelope
    theorem, ``(p(A)^H p(A) v - phi^2 v) / ||v||^2`` with p the minimizing
    polynomial of v held fixed; ``p(A)^H`` is applied to the kernel's
    residual ``p(A) v`` by Horner's rule, on the same power-of-two scaling
    of A as the kernel.  Raises :class:`ZeroVector` for a
    zero column.
    """
    mat, batch, k = _candidate_block(a, vs, k)
    norms_sq = np.sum(np.abs(batch) ** 2, axis=0)
    if np.any(norms_sq == 0.0):
        raise ZeroVector("gradient at the zero vector")
    curves, residual, coeffs = _residual_curves(mat, batch, k)
    adjoint = mat.conj().T
    adjoint_terms = np.zeros_like(residual)  # sum_j conj(c_j) (A^H)^j p(A) v
    for c in coeffs[::-1]:
        adjoint_terms = adjoint @ (np.conj(c) * residual + adjoint_terms)
    phi = curves[k]
    return phi, (residual + adjoint_terms - phi**2 * batch) / norms_sq
