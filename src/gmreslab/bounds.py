"""Field-of-values residual bounds and the inequality chain verdicts.

Two classical convergence bounds for GMRES are evaluated:

* the Elman bound ``(1 - lambda_min(M)^2 / lambda_max(A^H A))^(k/2)`` with
  ``M`` the Hermitian part of A, defined whenever M is positive definite;
* the Starke bound ``(1 - nu(F(A)) nu(F(A^{-1})))^(k/2)`` for nonsingular
  A, where ``nu`` is the distance from the origin to the field of values.

``verify_chain`` checks both bounds, at the requested depth, not just
against sampled GMRES residual ratios but against the computed worst-case
and ideal GMRES values, and records a signed margin per inequality.  The
permitted slacks are configuration, not constants buried in code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from . import dense_core, fov
from .dense_core import as_matrix
from .krylov import gmres_residuals
from .minimax import MinimaxResult, SolverOptions, ideal_gmres, worst_case_gmres

__all__ = [
    "ChainSlacks",
    "DEFAULT_SLACKS",
    "Verdict",
    "BoundsReport",
    "elman_bound",
    "starke_bound",
    "verify_chain",
]


@dataclass(frozen=True)
class ChainSlacks:
    """Additive slacks for the inequality verdicts plus the PD gate.

    The finite-precision checks accept ``lhs <= rhs + slack``.  The solver
    comparisons get 1e-6 (they involve iterative optimization); the bound
    comparisons get 1e-8 (they involve only eigensolves and square roots).
    ``pd_floor`` gates positive definiteness of the Hermitian part,
    relative to its spectral norm.
    """

    gmres_vs_worst: float = 1e-6
    worst_vs_ideal: float = 1e-6
    ideal_vs_starke: float = 1e-8
    ideal_vs_elman: float = 1e-8
    starke_vs_elman: float = 1e-8
    pd_floor: float = 1e-12


DEFAULT_SLACKS = ChainSlacks()


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
    lambda_max_aha: float
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
        stats = self.gmres_stats()
        return {
            "k": self.k,
            "gmres": {
                "ratios": [float(r) for r in self.gmres_ratios],
                "min": stats["min"],
                "median": stats["median"],
                "max": stats["max"],
            },
            "worst_case": self.worst_case,
            "ideal": self.ideal,
            "ideal_lower": self.ideal_lower,
            "ideal_certified": self.ideal_certified,
            "starke_rhs": self.starke_rhs,
            "elman_rhs": self.elman_rhs,
            "nu_a": self.nu_a,
            "nu_ainv": self.nu_ainv,
            "lambda_min_m": self.lambda_min_m,
            "lambda_max_aha": self.lambda_max_aha,
            "verdicts": {
                name: {"passed": v.passed, "margin": v.margin}
                for name, v in self.verdicts.items()
            },
        }


def elman_bound(a, k: int, slacks: ChainSlacks = DEFAULT_SLACKS) -> Optional[float]:
    """Elman bound at depth k, or None when the Hermitian part is not
    positive definite (gated at ``lambda_min(M) > pd_floor * ||M||``)."""
    mat = as_matrix(a)
    m_part = dense_core.hermitian_part(mat)
    spectrum = dense_core.eig_hermitian(m_part)
    lam_min = float(spectrum.values[0])
    scale = max(abs(float(spectrum.values[0])), abs(float(spectrum.values[-1])))
    if scale == 0.0 or lam_min <= slacks.pd_floor * scale:
        return None
    norm_a = dense_core.spectral_norm(mat)
    arg = 1.0 - (lam_min / norm_a) ** 2
    arg = min(max(arg, 0.0), 1.0)
    return float(arg ** (0.5 * k))


def starke_bound(a, k: int, fov_data: Optional[fov.FovSummary] = None) -> float:
    """Starke bound at depth k.  Equals 1 when the origin lies in F(A) or
    in F(A^{-1}); propagates SingularMatrix for singular input."""
    if fov_data is None:
        fov_data = fov.fov_summary(as_matrix(a))
    prod = fov_data.nu_a * fov_data.nu_ainv
    prod = min(max(prod, 0.0), 1.0)
    return float((1.0 - prod) ** (0.5 * int(k)))


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


def verify_chain(
    a,
    k: int,
    trials: int,
    opts: Optional[SolverOptions] = None,
    slacks: ChainSlacks = DEFAULT_SLACKS,
    fov_data: Optional[fov.FovSummary] = None,
) -> BoundsReport:
    """Verify the residual inequality chain at depth k.

    Samples ``trials`` random initial residuals as one block, computes
    their GMRES ratios in a single kernel call, the worst-case and ideal
    values, and both bounds, then records one verdict per inequality:

        gmres <= worst_case <= ideal <= starke_rhs (<= elman_rhs).

    The sampled residuals are fed to the worst-case solver as extra starts,
    so the first verdict cannot fail merely because the ascent missed the
    sampled directions.  Deterministic given ``opts.seed``.
    """
    mat = as_matrix(a)
    k = int(k)
    if k < 1:
        raise ValueError("depth must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial residual")
    opts = opts or SolverOptions()
    n = mat.shape[0]

    if fov_data is None:
        fov_data = fov.fov_summary(mat)
    elman = elman_bound(mat, k, slacks)
    starke = starke_bound(mat, k, fov_data)
    norm_a = dense_core.spectral_norm(mat)

    rng = np.random.default_rng(
        np.random.SeedSequence(opts.seed, spawn_key=(101, k))
    )
    r0_block = rng.standard_normal((n, trials)) + 1j * rng.standard_normal((n, trials))
    k_eff = min(k, n)
    ratios = gmres_residuals(mat, r0_block, k_eff)[k_eff].tolist()

    ideal = ideal_gmres(mat, k, opts)
    extra = [r0_block[:, t] for t in range(trials)]
    extra.append(ideal.witness_vector)
    if fov_data.witness_vector is not None:
        extra.append(fov_data.witness_vector)
    worst = worst_case_gmres(
        mat,
        k,
        replace(opts, seed=_derived_seed(opts.seed, 202, k)),
        extra_starts=extra,
    )

    gmres_max = max(ratios)
    verdicts = {
        "gmres_le_worst_case": Verdict(
            gmres_max <= worst.value + slacks.gmres_vs_worst,
            worst.value - gmres_max,
        ),
        "worst_case_le_ideal": Verdict(
            worst.value <= ideal.value + slacks.worst_vs_ideal,
            ideal.value - worst.value,
        ),
        "ideal_le_starke": Verdict(
            ideal.value <= starke + slacks.ideal_vs_starke,
            starke - ideal.value,
        ),
    }
    if elman is not None:
        verdicts["ideal_le_elman"] = Verdict(
            ideal.value <= elman + slacks.ideal_vs_elman,
            elman - ideal.value,
        )
        verdicts["starke_le_elman"] = Verdict(
            starke <= elman + slacks.starke_vs_elman,
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
        lambda_max_aha=float(norm_a**2),
        verdicts=verdicts,
    )
