"""Field-of-values residual bounds and the inequality chain verdicts.

Two classical convergence bounds for GMRES are evaluated:

* the Elman bound ``(1 - lambda_min(M)^2 / lambda_max(A^H A))^(k/2)`` with
  ``M`` the Hermitian part of A, defined whenever M is positive definite;
* the Starke bound ``(1 - nu(F(A)) nu(F(A^{-1})))^(k/2)``, where ``nu`` is
  the distance from the origin to the field of values; it is 1 when the
  origin lies in F(A), which covers every singular A.

``verify_chain`` checks both bounds, at the requested depth, not just
against sampled GMRES residual ratios but against the computed worst-case
and ideal GMRES values.  The chain is one table of links ``(name, lhs,
rhs, slack)``, each the verdict ``lhs <= rhs + slack`` with margin ``rhs -
lhs``; an undefined Elman bound drops its links.  The slacks are constants
of the method: 1e-6 where a solver value is compared, 1e-8 where only
bounds are.  Per depth, one eigensolve of M gives the Elman bound its
``lambda_min(M)`` and the report its ``lambda_min_m``, and one Gram
eigensolve gives ``||A||`` to the Elman bound and ``lambda_max(A^H A)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import dense_core, fov
from .dense_core import as_matrix
from .errors import InvalidSpec, check_depth, check_int
from .krylov import gmres_residuals
from .minimax import ideal_gmres, worst_case_gmres

__all__ = [
    "Verdict",
    "BoundsReport",
    "elman_bound",
    "starke_bound",
    "verify_chain",
]


# The verdicts accept ``lhs <= rhs + slack``.  Comparisons with a solver
# value (iterative optimization) get the first slack; comparisons between
# the ideal value and the bounds, or between the bounds (eigensolves and
# square roots only), get the second.
_SOLVER_SLACK = 1e-6
_BOUND_SLACK = 1e-8
# Positive definiteness gate of the Hermitian part, relative to its norm.
_PD_FLOOR = 1e-12


@dataclass(frozen=True)
class Verdict:
    """One inequality check: ``margin = rhs - lhs`` and the slacked outcome."""

    passed: bool
    margin: float


@dataclass
class BoundsReport:
    """Everything computed for one matrix at one depth; the statistics of
    the sampled ratios are set from them on construction.  Where the worst
    case meets the ideal value it may exceed it by a few ulps (different
    computations), so the ``worst_case_le_ideal`` margin may read -2e-16."""

    k: int
    gmres_ratios: List[float]
    worst_case: float
    ideal: float
    ideal_lower: float
    ideal_certified: bool
    starke_rhs: float
    elman_rhs: Optional[float]
    nu_a: float
    nu_ainv: float
    lambda_min_m: float
    lambda_max_aha: Optional[float]  # ||A||^2; None where it leaves the float range
    verdicts: Dict[str, Verdict]
    gmres_min: float = field(init=False)
    gmres_median: float = field(init=False)
    gmres_max: float = field(init=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.gmres_ratios, dtype=float)
        self.gmres_min, self.gmres_max = float(arr.min()), float(arr.max())
        self.gmres_median = float(np.median(arr))

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def to_dict(self) -> dict:
        fields = dataclasses.asdict(self)
        stats = ("ratios", "min", "median", "max")
        gmres = {stat: fields.pop(f"gmres_{stat}") for stat in stats}
        return {"k": fields.pop("k"), "gmres": gmres, **fields}


def _decay(x: float, k: int) -> float:
    """``(1 - x)^(k/2)`` with x clamped to [0, 1]: the form of both bounds."""
    return float((1.0 - min(max(x, 0.0), 1.0)) ** (0.5 * k))


def _elman(scaled: np.ndarray, k: int, norm: Optional[float] = None):
    """:func:`elman_bound` of a binary-scaled A, whose norm ``norm`` is
    solved here, if not given, only when M passes the gate, and the
    ``lambda_min(M)`` it read, in the scaled frame."""
    lam_min, lam_max = np.linalg.eigvalsh(dense_core.hermitian_part(scaled))[[0, -1]]
    scale = max(abs(lam_min), abs(lam_max))
    if scale == 0.0 or lam_min <= _PD_FLOOR * scale:
        return None, lam_min
    if norm is None:
        norm = dense_core.spectral_norm(scaled)
    return _decay((lam_min / norm) ** 2, k), lam_min


def elman_bound(a, k: int) -> Optional[float]:
    """Elman bound at depth k, or None when the Hermitian part is not
    positive definite (gated at ``lambda_min(M) > 1e-12 ||M||``).  A is
    scaled by a power of two first, which leaves ``lambda_min(M) / ||A||``
    unchanged and keeps the eigensolves in range."""
    k = check_depth(k)
    return _elman(dense_core.binary_scaled(as_matrix(a))[0], k)[0]


def starke_bound(a, k: int, fov_data: Optional[fov.FovSummary] = None) -> float:
    """Starke bound at depth k.  Equals 1 when the origin lies in F(A),
    singular A included.  It takes the lower ends of the nu brackets
    (``NuResult.value``), so it is an upper bound up to eigensolver
    rounding."""
    k = check_depth(k)
    if fov_data is None:
        fov_data = fov.fov_summary(as_matrix(a))
    return _decay(fov_data.nu_a * fov_data.nu_ainv, k)


def verify_chain(
    a,
    k: int,
    trials: int,
    seed: int = 0,
    fov_data: Optional[fov.FovSummary] = None,
) -> BoundsReport:
    """Verify the residual inequality chain at depth k.

    Samples ``trials`` random initial residuals as one block, computes
    their GMRES ratios in a single kernel call, the worst-case and ideal
    values, and both bounds, then records one verdict per link of the chain

        gmres <= worst_case <= ideal <= starke_rhs (<= elman_rhs),

    the Elman links only where that bound is defined.

    The sampled residuals are the worst-case solver's starts, so the first
    verdict cannot fail merely because the ascent missed the sampled
    directions, and the ideal value its ceiling, so the ascent stops once it
    meets that value.  The ideal witness is the last start; where it attains
    the ideal value no ascent runs.  Deterministic given ``seed``, a
    non-negative int that roots the sampling, the one random stream per
    depth.  ``lambda_min_m`` is the Elman bound's own ``lambda_min(M)``;
    :class:`InvalidSpec` where it, or a value of ``fov_summary``, leaves
    the float range.
    """
    mat = as_matrix(a)
    k = check_depth(k)
    check_int(trials, "trials", 1)
    check_int(seed, "seed", 0)
    n = mat.shape[0]

    if fov_data is None:
        fov_data = fov.fov_summary(mat)
    starke = starke_bound(mat, k, fov_data)
    scaled, e = dense_core.binary_scaled(mat)
    norm = dense_core.spectral_norm(scaled)
    elman, lam_min = _elman(scaled, k, norm)
    lambda_min_m = float(dense_core.scaled_back(lam_min, e))
    if not np.isfinite(lambda_min_m):
        raise InvalidSpec("a field-of-values value, lambda_min(M), leaves the float range")
    aha = float(dense_core.scaled_back(norm * norm, 2 * e))  # ||A||^2
    in_range = norm == 0.0 or np.finfo(float).tiny <= aha < np.inf

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101, k)))
    r0_block = rng.standard_normal((n, trials)) + 1j * rng.standard_normal((n, trials))
    ratios = gmres_residuals(mat, r0_block, k)[k].tolist()

    ideal = ideal_gmres(mat, k)
    starts = np.column_stack([r0_block, ideal.witness_vector])
    worst = worst_case_gmres(mat, k, starts, ceiling=ideal.value)

    links = (
        ("gmres_le_worst_case", max(ratios), worst.value, _SOLVER_SLACK),
        ("worst_case_le_ideal", worst.value, ideal.value, _SOLVER_SLACK),
        ("ideal_le_starke", ideal.value, starke, _BOUND_SLACK),
        ("ideal_le_elman", ideal.value, elman, _BOUND_SLACK),
        ("starke_le_elman", starke, elman, _BOUND_SLACK),
    )
    verdicts = {
        name: Verdict(lhs <= rhs + slack, rhs - lhs)
        for name, lhs, rhs, slack in links
        if rhs is not None
    }

    return BoundsReport(
        k=k,
        gmres_ratios=ratios,
        worst_case=worst.value,
        ideal=ideal.value,
        ideal_lower=ideal.lower_bound,
        ideal_certified=ideal.certified,
        starke_rhs=starke,
        elman_rhs=elman,
        nu_a=fov_data.nu_a,
        nu_ainv=fov_data.nu_ainv,
        lambda_min_m=lambda_min_m,
        lambda_max_aha=aha if in_range else None,
        verdicts=verdicts,
    )
