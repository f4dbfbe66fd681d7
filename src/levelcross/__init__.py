"""
levelcross: exact level-crossing statistics for stationary Gaussian processes.

Closed-form mean rates, finite-horizon count variances, asymptotic variance
rates, and Fano factors for up-, down-, and total crossings of an arbitrary
level, for smooth stationary Gaussian processes described by their covariance
kernel.  Includes exact-discretization Monte Carlo simulation and brute-force
integration oracles for independent verification.

The simulator and the oracles live in :mod:`levelcross.montecarlo`, which
needs ``scipy.integrate`` and ``scipy.linalg``.  It is imported on first
access to one of its names here (PEP 562 module ``__getattr__``), so
``import levelcross`` loads only what the closed forms use.
"""

from importlib import import_module as _import_module

from .crossings import (
    CrossingMode,
    CrossingParams,
    CrossingStats,
    DegenerateLagError,
    NegativeVarianceError,
    ValidityError,
    abg_params,
    dimensionless_fano,
    fano,
    integrand_total,
    integrand_up,
    mean_count,
    mean_rate,
    variance_count,
    variance_rate_asymptotic,
    zero_level_stats,
)
from .kernels import (
    Kernel,
    KernelDerivatives,
    KernelError,
    ValidityReport,
    check_validity,
    make_ou_mean_revert,
    make_rational_quadratic,
    make_sdho,
    make_squared_exponential,
    map_ou_to_sdho,
)
from .quadrature import IntegrationError, QuadratureResult, QuadratureSpec
from .special import erf, erfc, owens_t

__version__ = "0.1.0"

# Monte Carlo and oracle names, resolved from .montecarlo on first access.
_MONTECARLO_NAMES = frozenset({
    "LEMMA_CHECKS",
    "SimConfig",
    "SimEstimate",
    "SimulationConfigError",
    "bruteforce_integrand_total",
    "bruteforce_integrand_up",
    "bruteforce_theorem_integrals",
    "bruteforce_variance",
    "count_crossings",
    "estimate_stats",
    "lemma_residuals",
    "sampled_mean_exact",
    "simulate_kernel_paths",
    "simulate_ou_system_paths",
    "simulate_sdho_paths",
    "theorem_total_closed_form",
    "theorem_up_closed_form",
})

__all__ = sorted(_MONTECARLO_NAMES | {
    "CrossingMode",
    "CrossingParams",
    "CrossingStats",
    "DegenerateLagError",
    "IntegrationError",
    "Kernel",
    "KernelDerivatives",
    "KernelError",
    "NegativeVarianceError",
    "QuadratureResult",
    "QuadratureSpec",
    "ValidityError",
    "ValidityReport",
    "abg_params",
    "check_validity",
    "dimensionless_fano",
    "erf",
    "erfc",
    "fano",
    "integrand_total",
    "integrand_up",
    "make_ou_mean_revert",
    "make_rational_quadratic",
    "make_sdho",
    "make_squared_exponential",
    "map_ou_to_sdho",
    "mean_count",
    "mean_rate",
    "owens_t",
    "variance_count",
    "variance_rate_asymptotic",
    "zero_level_stats",
})


def __getattr__(name: str):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        montecarlo = _import_module(".montecarlo", __name__)  # also binds it here
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MONTECARLO_NAMES | {"montecarlo"})
