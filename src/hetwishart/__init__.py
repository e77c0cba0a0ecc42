"""Heteroskedastic Wishart-type concentration toolkit.

Bounds and rates for E||ZZ' - E ZZ'|| when Z has independent mean-zero
entries with entrywise scales sigma_ij, an exact bipartite-cycle trace-moment
oracle for the underlying moment machinery, deterministic Monte Carlo
verification, and the spectral clustering application.

Each name below loads its submodule on first use (PEP 562), so a process
imports only the submodules it touches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "bounds": (
        "BoundReport", "ClusteringRates", "baseline_bounds", "c1_constant", "c2_constant",
        "clustering_rates", "gaussian_upper_bound", "lower_bound_rate", "moment_and_tail",
        "structured_rates", "unified_bound",
    ),
    "errors": (
        "ContractError", "HetWishartError", "NumericalError", "ParameterError", "SizeGuardError",
    ),
    "experiments": (
        "ClusteringInstance", "ConcentrationEstimate", "estimate_concentration",
        "generate_mixture", "misclassification", "phase_diagram", "rate_sweep",
        "spectral_cluster", "tail_empirics",
    ),
    "moment_oracle": (
        "check_diagonal_deletion", "check_gaussian_comparison", "check_paired_moment",
        "check_variance_contraction", "exact_deleted_diagonal_trace_moment",
        "exact_trace_moment", "gaussian_moment", "heavy_tail_moment",
    ),
    "profiles": (
        "ProfileSummary", "VarianceProfile", "homoskedastic_columns", "homoskedastic_rows",
        "lower_bound_profile", "profile_from_json", "profile_to_json", "summarize",
    ),
    "samplers": (
        "Bernoulli", "Bounded", "Gaussian", "HeavyTail", "NoiseModel", "SampleSeed",
        "ScaledRademacher", "heavy_tail_scale", "sample",
    ),
    "spectral": ("centered_operator", "spectral_norm", "trace_power"),
}
# public name -> its submodule; a submodule name maps to itself
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_OWNER.update({module: module for module in _EXPORTS})

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    value = module if name == _OWNER[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_OWNER})
