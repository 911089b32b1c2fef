"""Numerical laboratory for the vector Dyson equation -1/m = z + Sm.

Solves the equation under symmetric non-negative variance profiles,
classifies zero-block structure, extracts the power-law singularity of the
solution and of the self-consistent density of states at E = 0, and
cross-validates against sampled random block matrices.

Submodules load lazily so the command-line entry point can configure BLAS
thread pools before any numerical import runs.  Only the Monte Carlo count
uses scipy, and it loads scipy with its first count.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # profiles
    "ProfileError": "profiles",
    "EnumerationCapError": "profiles",
    "StaircasePatternError": "profiles",
    "VarianceProfile": "profiles",
    "ZeroRectangle": "profiles",
    "StaircaseViolation": "profiles",
    "StructureReport": "profiles",
    "parse_profile": "profiles",
    "load_profile": "profiles",
    "staircase_profile": "profiles",
    "random_staircase_profile": "profiles",
    "maximal_zero_rectangles": "profiles",
    "check_assumption_staircase": "profiles",
    "recover_staircase_permutation": "profiles",
    "antidiagonal_irreducibility": "profiles",
    "classify_regime": "profiles",
    "expand_profile": "profiles",
    "RECTANGLE_SEARCH_CAP": "profiles",
    "RECTANGLE_COUNT_CAP": "profiles",
    "DIMENSION_CAP": "profiles",
    "REGIME_BOUNDED": "profiles",
    "REGIME_CRITICAL": "profiles",
    "REGIME_RANK_DEFICIENT": "profiles",
    # solver
    "SolverError": "solver",
    "AnomalyError": "solver",
    "SpectralPoint": "solver",
    "SolverOptions": "solver",
    "VdeSolution": "solver",
    "solve": "solver",
    "solve_path": "solver",
    "stability_matrix": "solver",
    "saturation_identity_residual": "solver",
    "suggested_tol": "solver",
    "RADIUS_FLOOR": "solver",
    # asymptotics
    "ConstantSystem": "asymptotics",
    "constant_system": "asymptotics",
    "limit_constants": "asymptotics",
    "constant_system_residuals": "asymptotics",
    "AsymptoticFit": "asymptotics",
    "fit_exponents": "asymptotics",
    "PairProduct": "asymptotics",
    "pair_product_check": "asymptotics",
    "ReduceDiagnostics": "asymptotics",
    "vde_like_reduce": "asymptotics",
    "SweepRow": "asymptotics",
    "SweepResult": "asymptotics",
    "uniform_bound_sweep": "asymptotics",
    "predicted_exponent": "asymptotics",
    "predicted_phase": "asymptotics",
    # density
    "DEFAULT_ETA_SCHEDULE": "density",
    "DEFAULT_FIT_WINDOW": "density",
    "DensityProfile": "density",
    "PointDensity": "density",
    "rho_at": "density",
    "rho_at_detailed": "density",
    "rho_grid": "density",
    "default_energy_grid": "density",
    "DivergenceFit": "density",
    "divergence_fit": "density",
    "support_bound": "density",
    # montecarlo
    "EnsembleSpec": "montecarlo",
    "sample_matrix": "montecarlo",
    "entry_value": "montecarlo",
    "sample_spectrum": "montecarlo",
    "empirical_near_zero": "montecarlo",
    "predicted_near_zero_mass": "montecarlo",
    "NearZeroResult": "montecarlo",
    "REAL_SYMMETRIC": "montecarlo",
    "COMPLEX_HERMITIAN": "montecarlo",
    # cli
    "RunConfig": "cli",
    "run": "cli",
    "main": "cli",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(__all__)
