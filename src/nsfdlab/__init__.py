"""Exact and nonstandard finite-difference schemes for X' = A X + B.

The package is organized in four layers: matkit (Cayley-Hamilton
coefficient machinery), models (benchmark systems with exact solutions),
schemes (time steppers), and bench (error measurement and figure data).
"""
from .bench import (
    COMPONENT_X,
    EUCLIDEAN_FULL,
    ConvergenceStudy,
    ErrorSeries,
    ExperimentReport,
    convergence_study,
    observed_order,
    relative_error_series,
    run_experiment,
    run_figure,
)
from .matkit import (
    CorrectionFactors,
    StepCoefficients,
    alpha_coeffs,
    char_poly,
    correction_factors,
    gamma_coeffs,
    phi1,
    power_reduction,
)
from .models import (
    OdeModel,
    elliptic_k,
    jacobi_sn,
    jacobi_sn_cn_dn,
    make_model,
    oscillator_energy,
    oscillator_params,
    oscillator_period,
)
from .schemes import (
    SCHEME_KINDS,
    SchemeSpec,
    StepContext,
    Trajectory,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "COMPONENT_X",
    "EUCLIDEAN_FULL",
    "ConvergenceStudy",
    "CorrectionFactors",
    "ErrorSeries",
    "ExperimentReport",
    "OdeModel",
    "SCHEME_KINDS",
    "SchemeSpec",
    "StepCoefficients",
    "StepContext",
    "Trajectory",
    "alpha_coeffs",
    "char_poly",
    "convergence_study",
    "correction_factors",
    "elliptic_k",
    "gamma_coeffs",
    "integrate",
    "jacobi_sn",
    "jacobi_sn_cn_dn",
    "make_model",
    "observed_order",
    "oscillator_energy",
    "oscillator_params",
    "oscillator_period",
    "phi1",
    "power_reduction",
    "relative_error_series",
    "run_experiment",
    "run_figure",
    "__version__",
]
