"""Numerical laboratory for GMRES convergence bounds.

Computes, for small dense matrices, the actual GMRES residual curve, the
worst-case GMRES value over initial residuals, and the ideal GMRES value
(polynomial norm minimization), together with field-of-values data, and
checks the classical convergence bounds against all three.
"""

from .bounds import (
    BoundsReport,
    Verdict,
    elman_bound,
    starke_bound,
    verify_chain,
)
from .dense_core import hermitian_part, spectral_norm
from .errors import (
    FileError,
    InvalidSpec,
    LabError,
    NoConvergence,
    ParseError,
    UnsupportedFormat,
)
from .experiment import ExperimentConfig, load_config, run_experiment
from .fov import (
    FovBoundary,
    FovSummary,
    NuResult,
    fov_boundary,
    fov_summary,
    nu_fov,
)
from .krylov import gmres_residuals
from .matrices import MatrixSpec, generate_matrix
from .minimax import (
    MinimaxResult,
    ideal_gmres,
    scalar_minimax_oracle,
    worst_case_gmres,
)
from .mmio import read_matrix_market, write_matrix_market

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LabError",
    "NoConvergence",
    "InvalidSpec",
    "ParseError",
    "UnsupportedFormat",
    "FileError",
    # dense kernels
    "hermitian_part",
    "spectral_norm",
    # field of values
    "FovBoundary",
    "FovSummary",
    "NuResult",
    "fov_boundary",
    "nu_fov",
    "fov_summary",
    # Krylov / GMRES
    "gmres_residuals",
    # minimization
    "MinimaxResult",
    "ideal_gmres",
    "worst_case_gmres",
    "scalar_minimax_oracle",
    # bounds
    "Verdict",
    "BoundsReport",
    "elman_bound",
    "starke_bound",
    "verify_chain",
    # matrices and I/O
    "MatrixSpec",
    "generate_matrix",
    "read_matrix_market",
    "write_matrix_market",
    # experiments
    "ExperimentConfig",
    "load_config",
    "run_experiment",
]
