"""GMRES residual ratios from one batched kernel.

The quantity of interest is the GMRES residual ratio

    ||r_k|| / ||r_0|| = min over p in pi_k of ||p(A) r_0|| / ||r_0||,

where pi_k is the set of polynomials of degree at most k with p(0) = 1.
One kernel computes it for a whole block of vectors at once: Arnoldi
builds orthonormal Krylov directions for every column, and they are
projected out of the residual, so normal equations are never formed.  The
residual polynomial lives in the coordinates of the Arnoldi recurrence, its
Hessenberg matrix H, and nowhere in monomials.  The same Arnoldi function
builds the ideal solver's matrix-space basis.  :func:`gmres_residuals`
returns the ratio at every depth up to ``kmax``, :func:`min_residual_values`
the ratio at one depth, and :func:`min_residual_gradients` adds its exact
gradient in v, applying ``p(A)^H`` through H.  All three take an n x B block
of finite nonzero vectors, B >= 1, and a depth in 1..16, which may exceed
n.  Arnoldi with Givens rotations and a dense least-squares solve
cross-check it in the tests.
"""

from __future__ import annotations

import numpy as np

from .dense_core import as_matrix, binary_scaled
from .errors import InvalidSpec, ZeroVector, check_depth

__all__ = [
    "gmres_residuals",
    "min_residual_gradients",
    "min_residual_values",
]


def _arnoldi(apply, start: np.ndarray, k: int):
    """Arnoldi on each column x of ``start``: ``(Q, H)`` with ``Q[j - 1]``
    the j-th orthonormal direction of ``span{M x, .., M^k x}``, M the map
    ``apply``, and H upper triangular with ``M Q_(j-1) = sum_(i <= j)
    H[i - 1, j - 1] Q_i``, ``Q_0 = x``; the last axis runs over the columns
    x.  H holds the summed coefficients of two classical Gram-Schmidt passes
    in the column inner product and, on its diagonal, the divisor: the norm,
    or infinity for a direction below 1e-14 of ``M Q_(j-1)``, which lies in
    the span already and, as every later direction of that column, is zero.
    """
    size, cols = start.shape
    q = np.zeros((k, size, cols), dtype=np.complex128)
    h = np.zeros((k, k, cols), dtype=np.complex128)
    w = apply(start)
    for j in range(k):
        ref = np.linalg.norm(w, axis=0)
        for _ in range(2 if j else 0):
            coeffs = np.einsum("jnb,nb->jb", q[:j].conj(), w)
            w -= np.einsum("jnb,jb->nb", q[:j], coeffs)
            h[:j, j] += coeffs
        norm = np.linalg.norm(w, axis=0)
        h[j, j] = np.where(norm > 1e-14 * ref, norm, np.inf)
        q[j] = w / h[j, j].real
        if j + 1 < k:
            w = apply(q[j])
    return q, h


def _residual_curves(mat: np.ndarray, batch: np.ndarray, k: int):
    """Residual ratios at depths 0..k for each column of ``batch``.

    Row j holds ``min over p in pi_j of ||p(A) v|| / ||v||``: the Arnoldi
    directions ``Q_1 .. Q_k`` of :func:`_arnoldi` span ``{A v, .., A^k v}``
    and are projected out of the running residual one at a time.  A
    dependent direction is zero, which leaves the spanned space and hence
    the minimum unchanged.  A column with n independent directions (n its
    length) spans C^n, so its residual from depth n on is set to exactly
    zero; one whose Krylov space closes earlier keeps its computed
    residual, as a singular A can stall.  With ``Q_j = q_j(A) v`` for the
    polynomials q_j of the Arnoldi recurrence H, the depth-k residual is
    ``p(A) v`` for ``p = 1 - h_1 q_1 - .. - h_k q_k``, h the projection
    coefficients.  Each v is first scaled as ``binary_scaled`` scales a
    matrix; the residual, h, H, the scaled block and e return with the ratios.

    Callers pass ``dense_core.binary_scaled(A)``: the ratios do not depend
    on the scale of A, and H, of the size of ``||A||``, is then that of the
    scaled matrix.  A zero column raises :class:`ZeroVector`.
    """
    e = np.frexp(np.maximum(np.abs(batch.real), np.abs(batch.imag)).max(axis=0))[1]
    batch = np.ldexp(batch.real, -e) + 1j * np.ldexp(batch.imag, -e)
    q, hessenberg = _arnoldi(lambda w: mat @ w, batch, k)
    h = np.empty((k, batch.shape[1]), dtype=np.complex128)
    residuals = np.empty((k + 1,) + batch.shape, dtype=np.complex128)
    residuals[0] = batch
    for j in range(k):
        h[j] = np.einsum("nb,nb->b", q[j].conj(), residuals[j])
        residuals[j + 1] = residuals[j] - q[j] * h[j]
    n = batch.shape[0]
    if k >= n:  # n independent directions span C^n
        full = np.isfinite(hessenberg[range(n), range(n)].real).all(axis=0)
        residuals[n:, :, full] = 0.0
    norms = np.linalg.norm(residuals, axis=1)
    if np.any(norms[0] == 0.0):
        raise ZeroVector("zero vector in the residual kernel's block")
    return norms / norms[0], residuals[k], h, hessenberg, batch, e


def _candidate_block(a, vs, k) -> tuple[np.ndarray, np.ndarray, int]:
    """The one argument check of the kernels: A scaled by a power of two (see
    :func:`_residual_curves`), ``vs`` as a finite n x B block, B >= 1, and
    the depth.  A zero column is left to the kernel's :class:`ZeroVector`."""
    mat = binary_scaled(as_matrix(a))[0]
    try:
        batch = np.asarray(vs, dtype=np.complex128)
    except (TypeError, ValueError):  # ragged or not numbers
        raise InvalidSpec("vector block must be a numeric n x B array") from None
    if batch.ndim != 2 or batch.shape[0] != mat.shape[0] or not batch.shape[1]:
        raise InvalidSpec("vector block must be n x B with B >= 1")
    if not np.isfinite(batch).all():
        raise InvalidSpec("vector block must be finite")
    return mat, batch, check_depth(k)


def gmres_residuals(a, r0s, kmax: int) -> np.ndarray:
    """GMRES residual ratios ``||r_j|| / ||r_0||`` for steps j = 0..kmax.

    ``r0s`` holds one nonzero initial residual per column, and ``kmax`` is a
    depth in 1..16; the result is the ``(kmax + 1) x B`` block of ratio
    curves.  Once n independent directions ``A r_0 .. A^n r_0`` span the
    space the ratios are exactly zero; after an earlier lucky breakdown
    they are zero up to rounding, and a singular A can stall above zero.
    """
    return _residual_curves(*_candidate_block(a, r0s, kmax))[0]


def min_residual_values(a, vs: np.ndarray, k: int) -> np.ndarray:
    """Minimize ``||p(A) v|| / ||v||`` over p in pi_k for a block of vectors.

    ``vs`` holds one nonzero candidate vector per column, and ``k`` is a
    depth in 1..16, which may exceed n; the return value has one residual
    ratio per column.
    """
    return _residual_curves(*_candidate_block(a, vs, k))[0][-1]


def min_residual_gradients(a, vs: np.ndarray, k: int):
    """Ratios ``phi(v)`` as :func:`min_residual_values`, and gradients of ``phi^2 / 2``.

    The gradient (complex form ``d/dRe v + i d/dIm v``) is, by the envelope
    theorem, ``(p(A)^H p(A) v - phi^2 v) / ||v||^2`` with p the minimizing
    polynomial of v held fixed.  ``p(A)^H`` acts on the kernel's residual
    ``r = p(A) v`` through the adjoint of its Arnoldi recurrence, on the same
    power-of-two scaling of A: ``u_0 = r``, ``u_(j+1) = (A^H u_j - sum_(i<j)
    conj(H[i, j]) u_(i+1)) / H[j, j]`` and ``p(A)^H r = r - sum_j conj(h_j)
    u_(j+1)`` (0-based j).
    """
    return _gradients(*_candidate_block(a, vs, k))


def _gradients(mat: np.ndarray, batch: np.ndarray, k: int):
    """:func:`min_residual_gradients` on the output of its argument check."""
    curves, residual, h, hessenberg, batch, e = _residual_curves(mat, batch, k)
    norms_sq = np.sum(np.abs(batch) ** 2, axis=0)
    adjoint = mat.conj().T
    u = np.empty((k + 1,) + batch.shape, dtype=np.complex128)
    u[0] = residual
    for j in range(k):
        u[j + 1] = adjoint @ u[j]
        if j:
            u[j + 1] -= np.einsum("ib,inb->nb", hessenberg[:j, j].conj(), u[1 : j + 1])
        u[j + 1] /= hessenberg[j, j].real
    phi = curves[k]
    gram = residual - np.einsum("jb,jnb->nb", h.conj(), u[1:])  # p(A)^H r
    return phi, (gram - phi**2 * batch) / np.ldexp(norms_sq, e)  # degree -1 in v
