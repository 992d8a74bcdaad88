"""Field-of-values residual bounds and the inequality chain verdicts.

Two classical convergence bounds for GMRES are evaluated:

* the Elman bound ``(1 - lambda_min(M)^2 / lambda_max(A^H A))^(k/2)`` with
  ``M`` the Hermitian part of A, defined whenever M is positive definite;
* the Starke bound ``(1 - nu(F(A)) nu(F(A^{-1})))^(k/2)``, where ``nu`` is
  the distance from the origin to the field of values; it is 1 when the
  origin lies in F(A), which covers every singular A.

``verify_chain`` checks both bounds, at the requested depth, not just
against sampled GMRES residual ratios but against the computed worst-case
and ideal GMRES values, and records a signed margin per inequality.  The
slacks of the verdicts are constants of the method: 1e-6 where a solver
value is compared, 1e-8 where only bounds are.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import dense_core, fov
from .dense_core import as_matrix
from .errors import check_int
from .krylov import gmres_residuals
from .minimax import _check_depth, ideal_gmres, worst_case_gmres

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
    """Everything computed for one matrix at one depth."""

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

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def gmres_stats(self) -> Dict[str, float]:
        arr = np.asarray(self.gmres_ratios, dtype=float)
        return {
            "min": float(arr.min()),
            "median": float(np.median(arr)),
            "max": float(arr.max()),
        }

    def to_dict(self) -> dict:
        fields = dataclasses.asdict(self)
        gmres = {"ratios": fields.pop("gmres_ratios"), **self.gmres_stats()}
        return {"k": fields.pop("k"), "gmres": gmres, **fields}


def elman_bound(a, k: int) -> Optional[float]:
    """Elman bound at depth k, or None when the Hermitian part is not
    positive definite (gated at ``lambda_min(M) > 1e-12 ||M||``).  A is
    scaled by a power of two first, which leaves ``lambda_min(M) / ||A||``
    unchanged and keeps the eigensolve in range."""
    k = _check_depth(k)
    mat = dense_core.binary_scaled(as_matrix(a))[0]
    lam = np.linalg.eigh(dense_core.hermitian_part(mat))[0]
    lam_min = float(lam[0])
    scale = max(abs(lam_min), abs(float(lam[-1])))
    if scale == 0.0 or lam_min <= _PD_FLOOR * scale:
        return None
    norm_a = dense_core.spectral_norm(mat)
    arg = 1.0 - (lam_min / norm_a) ** 2
    arg = min(max(arg, 0.0), 1.0)
    return float(arg ** (0.5 * k))


def starke_bound(a, k: int, fov_data: Optional[fov.FovSummary] = None) -> float:
    """Starke bound at depth k.  Equals 1 when the origin lies in F(A),
    singular A included.  It takes the lower ends of the nu brackets
    (``NuResult.value``), so it is an upper bound up to eigensolver
    rounding."""
    k = _check_depth(k)
    if fov_data is None:
        fov_data = fov.fov_summary(as_matrix(a))
    prod = fov_data.nu_a * fov_data.nu_ainv
    prod = min(max(prod, 0.0), 1.0)
    return float((1.0 - prod) ** (0.5 * k))


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


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
    values, and both bounds, then records one verdict per inequality:

        gmres <= worst_case <= ideal <= starke_rhs (<= elman_rhs).

    The sampled residuals are fed to the worst-case solver as extra starts,
    so the first verdict cannot fail merely because the ascent missed the
    sampled directions, and the ideal value as its ceiling, so the ascent
    stops once it meets that value.  Deterministic given ``seed``, a
    non-negative int from which the sampling and the ascent draw separate
    streams.
    """
    mat = as_matrix(a)
    k = _check_depth(k)
    check_int(trials, "trials", 1)
    check_int(seed, "seed", 0)
    n = mat.shape[0]

    if fov_data is None:
        fov_data = fov.fov_summary(mat)
    elman = elman_bound(mat, k)
    starke = starke_bound(mat, k, fov_data)
    norm_a = dense_core.spectral_norm(mat)
    aha = norm_a * norm_a  # a Python float: inf or subnormal, not an error
    in_range = norm_a == 0.0 or np.finfo(float).tiny <= aha < np.inf

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101, k)))
    r0_block = rng.standard_normal((n, trials)) + 1j * rng.standard_normal((n, trials))
    k_eff = min(k, n)
    ratios = gmres_residuals(mat, r0_block, k_eff)[k_eff].tolist()

    ideal = ideal_gmres(mat, k)
    extra = [r0_block[:, t] for t in range(trials)]
    extra.append(ideal.witness_vector)
    if fov_data.witness_vector is not None:
        extra.append(fov_data.witness_vector)
    worst = worst_case_gmres(
        mat, k, _derived_seed(seed, 202, k), extra_starts=extra, ceiling=ideal.value
    )

    gmres_max = max(ratios)
    verdicts = {
        "gmres_le_worst_case": Verdict(
            gmres_max <= worst.value + _SOLVER_SLACK,
            worst.value - gmres_max,
        ),
        "worst_case_le_ideal": Verdict(
            worst.value <= ideal.value + _SOLVER_SLACK,
            ideal.value - worst.value,
        ),
        "ideal_le_starke": Verdict(
            ideal.value <= starke + _BOUND_SLACK,
            starke - ideal.value,
        ),
    }
    if elman is not None:
        verdicts["ideal_le_elman"] = Verdict(
            ideal.value <= elman + _BOUND_SLACK,
            elman - ideal.value,
        )
        verdicts["starke_le_elman"] = Verdict(
            starke <= elman + _BOUND_SLACK,
            elman - starke,
        )

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
        lambda_min_m=fov_data.lambda_min_m,
        lambda_max_aha=aha if in_range else None,
        verdicts=verdicts,
    )
