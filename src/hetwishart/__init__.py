"""Heteroskedastic Wishart-type concentration toolkit.

Bounds and rates for E||ZZ' - E ZZ'|| when Z has independent mean-zero
entries with entrywise scales sigma_ij, an exact bipartite-cycle trace-moment
oracle for the underlying moment machinery, deterministic Monte Carlo
verification, and the spectral clustering application.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    ClusteringRates,
    MomentTail,
    baseline_bounds,
    c1_constant,
    c2_constant,
    clustering_rates,
    gaussian_upper_bound,
    lower_bound_rate,
    moment_and_tail,
    structured_rates,
    unified_bound,
)
from .errors import (
    ContractError,
    HetWishartError,
    NumericalError,
    ParameterError,
    SizeGuardError,
)
from .experiments import (
    ClusteringInstance,
    ConcentrationEstimate,
    estimate_concentration,
    generate_mixture,
    misclassification,
    phase_diagram,
    rate_sweep,
    spectral_cluster,
    tail_empirics,
)
from .moment_oracle import (
    check_diagonal_deletion,
    check_gaussian_comparison,
    check_paired_moment,
    check_variance_contraction,
    exact_deleted_diagonal_trace_moment,
    exact_trace_moment,
    gaussian_moment,
    heavy_tail_moment,
    subgaussian_moment_envelope,
)
from .profiles import (
    ProfileSummary,
    VarianceProfile,
    homoskedastic_columns,
    homoskedastic_rows,
    lower_bound_profile,
    profile_from_json,
    profile_to_json,
    summarize,
)
from .samplers import (
    Bernoulli,
    Bounded,
    Gaussian,
    HeavyTail,
    NoiseModel,
    SampleSeed,
    ScaledRademacher,
    heavy_tail_scale,
    sample,
)
from .spectral import centered_operator, spectral_norm, trace_power
