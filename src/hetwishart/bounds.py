"""Closed-form concentration bounds and rates for E||ZZ' - E ZZ'||.

All bounds are pure functions of the profile scales (sigma_C, sigma_R,
sigma_*), the dimensions, and explicit constants.  Natural logarithms
throughout; log(p1 ^ p2) is taken literally, so every bound degenerates
correctly at p1 ^ p2 = 1 (log 1 = 0, never floored).

Unspecified universal constants are surfaced as caller-supplied parameters
defaulting to 1, and any bound carrying one is flagged ``rate_only``: it
pins the growth rate, not the constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .profiles import (ProfileSummary, VarianceProfile, _check_admissible, _finite, _integer,
                       _Table, summarize)

__all__ = [
    "BoundReport",
    "MomentTail",
    "ClusteringRates",
    "c1_constant",
    "c2_constant",
    "gaussian_upper_bound",
    "baseline_bounds",
    "unified_bound",
    "moment_and_tail",
    "structured_rates",
    "lower_bound_rate",
    "clustering_rates",
    "BOUNDS",
]


@dataclass(frozen=True)
class BoundReport:
    bound_id: str
    value: float
    terms: dict[str, float]
    params: dict = field(default_factory=dict)
    rate_only: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ParameterError(f"bound value must be nonnegative, got {self.value}")


def c1_constant(eps1: float) -> float:
    """C1(eps1) = 10 (1 + eps1) sqrt(ceil(1 / log(1 + eps1)))."""
    eps1 = _finite(eps1, "eps1", 0.0, open_low=True)
    return 10.0 * (1.0 + eps1) * math.sqrt(math.ceil(1.0 / math.log1p(eps1)))


def c2_constant(eps1: float, eps2: float) -> float:
    """C2(eps1, eps2) = (1 + eps1) ceil(1 / log(1 + eps1)) (25/eps2 + 24)."""
    eps1 = _finite(eps1, "eps1", 0.0, open_low=True)
    eps2 = _finite(eps2, "eps2", 0.0, open_low=True)
    return (1.0 + eps1) * math.ceil(1.0 / math.log1p(eps1)) * (25.0 / eps2 + 24.0)


def gaussian_upper_bound(s: ProfileSummary, eps1: float, eps2: float) -> BoundReport:
    """Gaussian upper bound with explicit constants:

        (1+eps1) { 2 sigma_C sigma_R + (1+eps2) sigma_C^2
                   + C1(eps1) sigma_R sigma_* sqrt(log(p1^p2))
                   + C2(eps1,eps2) sigma_*^2 log(p1^p2) }.
    """
    c1 = c1_constant(eps1)
    c2 = c2_constant(eps1, eps2)
    log_p = math.log(s.p_min)
    pre = 1.0 + eps1
    terms = {
        "cross": pre * 2.0 * s.sigma_C * s.sigma_R,
        "column": pre * (1.0 + eps2) * s.sigma_C**2,
        "sqrt_log": pre * c1 * s.sigma_R * s.sigma_star * math.sqrt(log_p),
        "log": pre * c2 * s.sigma_star**2 * log_p,
    }
    return BoundReport(
        "gaussian",
        sum(terms.values()),
        terms,
        params={"eps1": eps1, "eps2": eps2, "C1": c1, "C2": c2, "p_min": s.p_min},
    )


def baseline_bounds(s: ProfileSummary, p2: int) -> tuple[BoundReport, BoundReport]:
    """The two pre-existing rates this library improves on, with constant 1.

    Symmetrization:  (sigma_C + sigma_R + sigma_* sqrt(log(p1^p2)))^2
    Matrix-sum:      sigma_C sigma_R sqrt(log p2) + sigma_C^2 (log p2)^2
    """
    p2 = _integer(p2, "p2", 1)
    root = s.sigma_C + s.sigma_R + s.sigma_star * math.sqrt(math.log(s.p_min))
    symmetrization = BoundReport(
        "symmetrization",
        root**2,
        {"square_root": root},
        params={"p_min": s.p_min},
        rate_only=True,
    )
    log_p2 = math.log(p2)
    terms = {
        "cross": s.sigma_C * s.sigma_R * math.sqrt(log_p2),
        "column": s.sigma_C**2 * log_p2**2,
    }
    matrix_sum = BoundReport(
        "matrix_sum", sum(terms.values()), terms, params={"p2": p2}, rate_only=True
    )
    return symmetrization, matrix_sum


_FAMILY_ALIASES = _Table("family", {
    "gaussian": "gaussian",
    "sub_gaussian": "sub_gaussian",
    "rademacher": "sub_gaussian",
    "heavy_tail": "heavy_tail",
    "bounded": "bounded",
    "bernoulli": "bounded",
})


def unified_bound(
    s: ProfileSummary,
    family: str,
    *,
    alpha: float | None = None,
    B: float | None = None,
    p_max: int | None = None,
    c0: float = 1.0,
) -> BoundReport:
    """Family-unified form C0 { (sigma_C + sigma_R + K)^2 - sigma_R^2 } with

        sub-Gaussian  K = sigma_* sqrt(log(p1^p2))       (Gaussian too)
        heavy tail    K = sigma_* sqrt(log(p1^p2)) (log(p1 v p2))^(1/alpha - 1/2)
        bounded       K = B sqrt(log(p1^p2))            (Bernoulli: B = 1)

    The heavy-tail family needs the larger dimension p_max; alpha in (0, 2].
    C0 is a calibration knob (default 1), so every report is rate-only.
    """
    kind = _FAMILY_ALIASES[family]
    c0 = _finite(c0, "c0", 0.0, open_low=True)
    sqrt_log = math.sqrt(math.log(s.p_min))
    params: dict = {"family": family, "c0": c0}
    if kind in ("sub_gaussian", "gaussian"):
        K = s.sigma_star * sqrt_log
    elif kind == "heavy_tail":
        if alpha is None or p_max is None:
            raise ParameterError("heavy-tail family needs alpha and p_max")
        alpha = _finite(alpha, "alpha", 0.0, 2.0, open_low=True)
        if p_max < s.p_min:
            raise ParameterError("p_max must be >= p_min")
        K = s.sigma_star * sqrt_log * math.log(p_max) ** (1.0 / alpha - 0.5)
        params.update(alpha=alpha, p_max=p_max)
    elif kind == "bounded":
        bound = 1.0 if family == "bernoulli" else B
        if bound is None:
            raise ParameterError("bounded family needs B")
        K = bound * sqrt_log
        params.update(B=bound)
    value = c0 * ((s.sigma_C + s.sigma_R + K) ** 2 - s.sigma_R**2)
    return BoundReport(
        "unified_" + family, value, {"K": K, "inner": value / c0}, params=params, rate_only=True
    )


@dataclass(frozen=True)
class MomentTail:
    moment_bound: float
    tail_threshold: float
    tail_prob: float

    @property
    def value(self) -> float:
        return self.moment_bound


def moment_and_tail(s: ProfileSummary, b: float, x: float, C: float) -> MomentTail:
    """b-th moment rate and tail pair:

        (E ||.||^b)^(1/b)  <~  (sigma_C + sigma_R + sigma_* sqrt(b v log(p1^p2)))^2 - sigma_C^2
        P{ ||.|| >= C ((sigma_C + sigma_R + sigma_* sqrt(log(p1^p2)) + x)^2 - sigma_C^2) }
            <= exp(-x^2)

    C is a caller-supplied stand-in for the unspecified universal constant.
    Note the subtracted square here is sigma_C^2 while the family-unified form
    subtracts sigma_R^2; transposing Z swaps the two roles, so both pin the
    same rate family.  Each is kept exactly as stated.
    """
    b = _finite(b, "b", 0.0, open_low=True)
    x = _finite(x, "x", 0.0)
    C = _finite(C, "C", 0.0, open_low=True)
    log_p = math.log(s.p_min)
    moment = (s.sigma_C + s.sigma_R + s.sigma_star * math.sqrt(max(b, log_p))) ** 2 - s.sigma_C**2
    threshold = C * (
        (s.sigma_C + s.sigma_R + s.sigma_star * math.sqrt(log_p) + x) ** 2 - s.sigma_C**2
    )
    return MomentTail(moment, threshold, math.exp(-x * x))


def structured_rates(kind: str, sigmas, other_dim: int) -> BoundReport:
    """Two-term exact rates for structured profiles (upper and lower coincide):

        rows     sum_i sigma_i^2 + sqrt(p2 sum_i sigma_i^2) max_i sigma_i
        columns  sqrt(p1 sum_j sigma_j^4) + p1 max_j sigma_j^2

    ``sigmas`` is the per-row (or per-column) scale vector; ``other_dim`` is
    the free dimension (p2 for rows, p1 for columns).
    """
    if kind not in ("rows", "columns"):
        raise ParameterError(f"kind must be 'rows' or 'columns', got {kind!r}")
    vec = _finite(sigmas, "sigmas", 0.0, ndim=1)
    other_dim = _integer(other_dim, "other_dim", 1)
    if kind == "rows":
        total = float(np.sum(vec**2))
        terms = {
            "variance_sum": total,
            "cross": math.sqrt(other_dim * total) * float(vec.max()),
        }
    else:
        terms = {
            "fourth_moment": math.sqrt(other_dim * float(np.sum(vec**4))),
            "entry": other_dim * float(vec.max()) ** 2,
        }
    return BoundReport(
        f"structured_{kind}", sum(terms.values()), terms,
        params={"other_dim": other_dim}, rate_only=True,
    )


def lower_bound_rate(s: ProfileSummary, p1: int, p2: int) -> BoundReport:
    """Minimax lower-bound rate over all profiles with the given scales:

        sigma_C^2 + sigma_C sigma_R + sigma_R sigma_* sqrt(log p) + sigma_*^2 log p,
        p = p1 ^ p2,

    valid for admissible tuples
    min(sigma_C, sigma_R) >= sigma_* >= max(sigma_C/sqrt(p1), sigma_R/sqrt(p2)).
    """
    p1, p2 = _check_admissible(s.sigma_star, s.sigma_C, s.sigma_R, p1, p2)
    log_p = math.log(min(p1, p2))
    terms = {
        "column": s.sigma_C**2,
        "cross": s.sigma_C * s.sigma_R,
        "sqrt_log": s.sigma_R * s.sigma_star * math.sqrt(log_p),
        "log": s.sigma_star**2 * log_p,
    }
    return BoundReport(
        "lower_bound", sum(terms.values()), terms, params={"p1": p1, "p2": p2}, rate_only=True
    )


def _param(params: dict, name: str, default: float | None = None) -> float | None:
    """Take the parameter ``name`` out of ``params``: what is left was not read."""
    value = params.pop(name, default)
    return None if value is None else _finite(value, f"bound parameter {name!r}")


def _structured(kind: str):
    """structured_rates on a profile that must be homoskedastic along ``kind``."""

    def rate(profile: VarianceProfile, params: dict) -> BoundReport:
        sigma = profile.sigma if kind == "rows" else profile.sigma.T
        if not (sigma == sigma[:, :1]).all():
            raise ParameterError(f"profile is not {kind}-homoskedastic")
        return structured_rates(kind, sigma[:, 0], sigma.shape[1])

    return rate


def _unified(family: str):
    """unified_bound of ``family``, which reads c0, and alpha (heavy tail) or
    B (bounded, but not Bernoulli, whose B is 1)."""
    read = {"heavy_tail": "alpha", "bounded": "B"}.get(family)
    return lambda profile, params: unified_bound(
        summarize(profile),
        family,
        **({read: _param(params, read)} if read else {}),
        p_max=max(profile.p1, profile.p2),
        c0=_param(params, "c0", 1.0),
    )


def _reading(bound_id: str, rate):
    """``rate`` as the BOUNDS entry ``bound_id``: it takes the parameters it
    reads out of a copy of params, and any left over is a ParameterError."""

    def entry(profile: VarianceProfile, params: dict):
        unread = dict(params)
        report = rate(profile, unread)
        if unread:
            raise ParameterError(f"bound id {bound_id!r} does not read parameter {next(iter(unread))!r}")
        return report

    return entry


# Every bound by id: a function of (profile, params) returning the library's
# report (a BoundReport, or MomentTail for moment_tail).  Parameter defaults
# live here and nowhere else; looking up an unknown id, or passing a
# parameter the id does not read, raises ParameterError.
BOUNDS: dict = _Table("bound id", {bound_id: _reading(bound_id, rate) for bound_id, rate in {
    "gaussian": lambda profile, params: gaussian_upper_bound(
        summarize(profile), _param(params, "eps1", 0.1), _param(params, "eps2", 0.1)
    ),
    "symmetrization": lambda profile, params: baseline_bounds(summarize(profile), profile.p2)[0],
    "matrix_sum": lambda profile, params: baseline_bounds(summarize(profile), profile.p2)[1],
    "lower_bound": lambda profile, params: lower_bound_rate(
        summarize(profile), profile.p1, profile.p2
    ),
    "structured_rows": _structured("rows"),
    "structured_columns": _structured("columns"),
    "moment_tail": lambda profile, params: moment_and_tail(
        summarize(profile),
        _param(params, "b", 2.0),
        _param(params, "x", 1.0),
        _param(params, "C", 1.0),
    ),
    **{f"unified_{family}": _unified(family) for family in _FAMILY_ALIASES},
}.items()})


@dataclass(frozen=True)
class ClusteringRates:
    upper_rate: float
    snr_threshold: float


def clustering_rates(
    mu_norm: float, n: int, sigma_star: float, sigma_tilde: float
) -> ClusteringRates:
    """Misclassification rate bound and consistency threshold for two-component
    spectral clustering with per-coordinate noise scales:

        rate <= min{ 1, (n ||mu|| sigma_* + n sigma_*^2 + sqrt(n) sigma_tilde^2)
                        / (n ||mu||^2) }
        threshold = sigma_* v sigma_tilde / n^(1/4)

    sigma_tilde^4 = sum_i sigma_i^4.  Clustering is consistent iff ||mu||
    exceeds the threshold by a growing factor.
    """
    n = _integer(n, "n", 1)
    mu_norm, sigma_star, sigma_tilde = (_finite(v, "norms", 0.0)
                                        for v in (mu_norm, sigma_star, sigma_tilde))
    threshold = max(sigma_star, sigma_tilde / n**0.25)
    if mu_norm == 0.0:
        raise ParameterError("upper rate undefined for mu = 0")
    numerator = n * mu_norm * sigma_star + n * sigma_star**2 + math.sqrt(n) * sigma_tilde**2
    rate = min(1.0, numerator / (n * mu_norm**2))
    return ClusteringRates(rate, threshold)
