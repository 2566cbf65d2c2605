"""Linear viscoelastic models with Bessel-function memory kernels.

The model class is parametrized by a real order nu > -1.  In the Laplace
domain the creep- and relaxation-rate memory functions are ratios of
modified Bessel functions of contiguous order at sqrt(s); in the time
domain they are Dirichlet series over squared Bessel-function zeros, and
the material functions follow by termwise integration.
"""

from .asymptotics import approximants, crossover_report
from .errors import (
    BelowMinTimeError,
    BesselViscError,
    ConvergenceError,
    ExtrapolationError,
    InsufficientZerosError,
    PoleError,
)
from .hereditary import LoadHistory, strain_response, stress_response
from .laplace import TalbotConfig, check_reciprocity, invert_numeric, phi_tilde, psi_tilde
from .specfun import Order, bessel_i_ratio, bessel_j, bessel_j_deriv
from .timedomain import (
    MaterialCurve,
    SeriesPolicy,
    creep_compliance,
    phi,
    prony_modes,
    psi,
    relaxation_modulus,
    sample_curve,
)
from .zeros import RayleighResult, ZeroTable, compute_zeros, mcmahon_zero, rayleigh_sum

__version__ = "0.1.0"

__all__ = [
    "BelowMinTimeError",
    "BesselViscError",
    "ConvergenceError",
    "ExtrapolationError",
    "InsufficientZerosError",
    "LoadHistory",
    "MaterialCurve",
    "Order",
    "PoleError",
    "RayleighResult",
    "SeriesPolicy",
    "TalbotConfig",
    "ZeroTable",
    "approximants",
    "bessel_i_ratio",
    "bessel_j",
    "bessel_j_deriv",
    "check_reciprocity",
    "compute_zeros",
    "creep_compliance",
    "crossover_report",
    "invert_numeric",
    "mcmahon_zero",
    "phi",
    "phi_tilde",
    "prony_modes",
    "psi",
    "psi_tilde",
    "rayleigh_sum",
    "relaxation_modulus",
    "sample_curve",
    "strain_response",
    "stress_response",
    "__version__",
]
