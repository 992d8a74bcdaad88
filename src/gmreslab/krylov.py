"""GMRES residual ratios from one batched kernel.

The quantity of interest is the GMRES residual ratio

    ||r_k|| / ||r_0|| = min over p in pi_k of ||p(A) r_0|| / ||r_0||,

where pi_k is the set of polynomials of degree at most k with p(0) = 1.
One kernel computes it for a whole block of vectors at once: the Krylov
directions are orthonormalized by batched modified Gram-Schmidt and
projected out of the residual, so normal equations are never formed.
:func:`gmres_residuals` returns the ratio at every depth up to ``kmax``,
:func:`min_residual_values` the ratio at one depth, and
:func:`min_residual_gradients` adds its exact gradient in v.  Arnoldi with
Givens rotations and a dense least-squares solve serve as independent
cross-checks in the test suite.
"""

from __future__ import annotations

import numpy as np

from .dense_core import as_matrix, binary_scaled
from .errors import ZeroVector

__all__ = [
    "gmres_residuals",
    "min_residual_gradients",
    "min_residual_values",
]


def _residual_curves(mat: np.ndarray, batch: np.ndarray, k: int):
    """Residual ratios at depths 0..k for each column of ``batch``.

    Row j holds ``min over p in pi_j of ||p(A) v|| / ||v||``: the unit-scaled
    Krylov directions ``A v, .., A^k v`` are orthonormalized by batched
    modified Gram-Schmidt with one reorthogonalization pass, and each new
    direction is projected out of the running residual.  Dependent
    directions are dropped, which leaves the spanned space and hence the
    minimum unchanged.  Each vector carries its coordinates in the basis
    ``A v, .., A^k v`` as k extra rows, so the depth-k residual ``p(A) v``
    is returned with the coefficients ``c_1 .. c_k`` of its polynomial.

    Callers pass ``dense_core.binary_scaled(A)``: the ratios do not depend
    on the scale of A, and on the raw A the powers ``A^j v`` underflow or
    overflow when ``||A||`` is far from 1.  The coefficients are then those
    of the polynomial in the scaled matrix.
    """
    n = mat.shape[0]
    norms = np.linalg.norm(batch, axis=0)
    safe_norms = np.where(norms > 0.0, norms, 1.0)
    curves = np.empty((k + 1, batch.shape[1]))
    curves[0] = norms / safe_norms

    ortho = []
    residual = np.vstack([batch, np.zeros((k, batch.shape[1]), batch.dtype)])
    w = batch
    for j in range(1, k + 1):
        w = mat @ w
        scale = np.linalg.norm(w, axis=0)
        scale = np.where(scale > 0.0, scale, 1.0)
        q = np.zeros_like(residual)
        q[:n] = w / scale
        q[n + j - 1] = 1.0 / scale
        for _ in range(2):
            for qi in ortho:
                q = q - qi * np.sum(np.conj(qi[:n]) * q[:n], axis=0)
        nq = np.linalg.norm(q[:n], axis=0)
        keep = nq > 1e-12
        q = np.where(keep[None, :], q / np.where(keep, nq, 1.0)[None, :], 0.0)
        ortho.append(q)
        residual = residual - q * np.sum(np.conj(q[:n]) * residual[:n], axis=0)
        curves[j] = np.linalg.norm(residual[:n], axis=0) / safe_norms
    return curves, residual[:n], residual[n:]


def gmres_residuals(a, r0s, kmax: int) -> np.ndarray:
    """GMRES residual ratios ``||r_j|| / ||r_0||`` for steps j = 0..kmax.

    ``r0s`` holds one initial residual per column; the result is the
    ``(kmax + 1) x B`` block of ratio curves.  After a lucky breakdown the
    remaining ratios are zero up to rounding.
    """
    mat = binary_scaled(as_matrix(a))[0]
    n = mat.shape[0]
    if not 1 <= kmax <= n:
        raise ValueError(f"kmax must satisfy 1 <= kmax <= {n}, got {kmax}")
    block = np.asarray(r0s, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != n:
        raise ValueError("initial residual block must be n x B")
    if np.any(np.linalg.norm(block, axis=0) == 0.0):
        raise ZeroVector("initial residual is zero")
    return _residual_curves(mat, block, kmax)[0]


def _candidate_block(a, vs) -> tuple[np.ndarray, np.ndarray]:
    """A scaled by a power of two (see :func:`_residual_curves`) and the
    candidate block."""
    mat = binary_scaled(as_matrix(a))[0]
    batch = np.asarray(vs, dtype=np.complex128)
    if batch.ndim != 2 or batch.shape[0] != mat.shape[0]:
        raise ValueError("candidate block must be n x B")
    return mat, batch


def min_residual_values(a, vs: np.ndarray, k: int) -> np.ndarray:
    """Minimize ``||p(A) v|| / ||v||`` over p in pi_k for a block of vectors.

    ``vs`` holds one candidate vector per column; the return value has one
    residual ratio per column.  Zero columns yield ratio 0; callers that
    care should not pass them.
    """
    mat, batch = _candidate_block(a, vs)
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
    mat, batch = _candidate_block(a, vs)
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
