"""Variance profiles: per-entry standard deviation grids and their summaries.

A profile assigns every entry (i, j) of a p1-by-p2 random matrix a standard
deviation sigma_ij >= 0.  The three scales that drive all concentration rates
are

    sigma_C^2 = max_j sum_i sigma_ij^2   (largest column sum of variances)
    sigma_R^2 = max_i sum_j sigma_ij^2   (largest row sum of variances)
    sigma_*   = max_ij sigma_ij          (largest single entry)

Profiles store standard deviations, not variances; squares are taken on
demand.  Instances are immutable after construction and safe to share across
worker threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParameterError

__all__ = [
    "VarianceProfile",
    "ProfileSummary",
    "summarize",
    "homoskedastic_rows",
    "homoskedastic_columns",
    "lower_bound_profile",
    "profile_to_json",
    "profile_from_json",
    "load_profile",
]

# floor/ceil with a relative slack so that e.g. (sqrt(3))**2 = 2.999...96
# still floors to 3; user-facing parameters routinely arrive as squared roots
_REL_SLACK = 1e-12


def _floor_tol(x: float) -> int:
    return int(math.floor(x * (1.0 + _REL_SLACK) + _REL_SLACK))


def _ceil_tol(x: float) -> int:
    return int(math.ceil(x * (1.0 - _REL_SLACK) - _REL_SLACK))


def _holds_bool(value) -> bool:
    """Whether a list or tuple holds a bool at any depth.  numpy reads a bool
    among numbers as 1.0 or 0.0, so list input is scanned, one level of
    nesting at a time; an ndarray is not."""
    level = [value]
    while True:
        kinds = set(map(type, level))
        if bool in kinds:
            return True
        if not kinds & {list, tuple}:
            return False
        level = list(chain.from_iterable(v for v in level if type(v) in (list, tuple)))


def _finite(value, what: str, low: float = -math.inf, high: float = math.inf, *,
            open_low: bool = False, ndim: int = 0):
    """The one check for numbers coming in: ``value`` as a float, or as a
    nonempty float array of ``ndim`` > 0 dimensions, whose every entry is a
    JSON number (an integer or a float: not a string, a boolean or null) that
    is finite and in [low, high] ((low, high] with ``open_low``).  Anything
    else raises ParameterError naming ``what``.  A NaN entry makes the least
    and the greatest entry NaN, and NaN compares false, so it never passes."""
    got = f", got {value!r}" if ndim == 0 else ""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must be numeric: {exc}") from None
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ParameterError(f"{what} must be numeric{got}")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim or arr.size == 0:
        shape = "a number" if ndim == 0 else f"a nonempty {ndim}-d array"
        raise ParameterError(f"{what} must be {shape}, got shape {arr.shape}")
    least, most = float(arr.min()), float(arr.max())
    above = least > low if open_low else least >= low
    if not (above and most <= high and math.isfinite(least) and math.isfinite(most)):
        raise ParameterError(f"{what} must be finite and in {'(' if open_low else '['}{low:g}, {high:g}]{got}")
    return least if ndim == 0 else arr


def _integer(value, what: str, low: float = -math.inf) -> int:
    """The one check for integers coming in: ``value`` as an exact int, from a
    Python or numpy integer that is not a bool, or a float of integral value,
    and at least ``low``.  Anything else raises ParameterError naming
    ``what``.  Integers never pass through float, so a 64-bit seed stays exact."""
    integral = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                or isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not integral:
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise ParameterError(f"{what} must be >= {low}, got {int(value)}")
    return int(value)


class _Table(dict):
    """A table of named entries: ``table[name]`` of an unknown name, or of a
    name that is not a string, raises ParameterError listing the known ones."""

    def __init__(self, what: str, entries: dict):
        super().__init__(entries)
        self.what = what

    def __getitem__(self, name):
        try:
            return super().__getitem__(name)
        except (KeyError, TypeError):
            raise ParameterError(f"unknown {self.what} {name!r}; expected one of {sorted(self)}") from None


@dataclass(frozen=True)
class VarianceProfile:
    """Immutable p1-by-p2 grid of entrywise standard deviations."""

    sigma: np.ndarray

    def __post_init__(self):
        arr = _finite(self.sigma, "sigma", 0.0, ndim=2).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "sigma", arr)

    @property
    def p1(self) -> int:
        return self.sigma.shape[0]

    @property
    def p2(self) -> int:
        return self.sigma.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.sigma.shape

    def variances(self) -> np.ndarray:
        return self.sigma**2

    def transpose(self) -> "VarianceProfile":
        return VarianceProfile(self.sigma.T)


@dataclass(frozen=True)
class ProfileSummary:
    """The (sigma_C, sigma_R, sigma_*) scales of a profile plus p1 ^ p2."""

    sigma_C: float
    sigma_R: float
    sigma_star: float
    p_min: int

    def __post_init__(self):
        object.__setattr__(self, "p_min", _integer(self.p_min, "p_min", 1))


def summarize(profile: VarianceProfile) -> ProfileSummary:
    """Column-sum-wise, row-sum-wise and entrywise maximum standard deviations.

    Sums are exactly rounded (fsum), so the summary is bitwise invariant under
    row and column permutations.
    """
    var = profile.variances()
    sigma_c = math.sqrt(max(math.fsum(col) for col in var.T))
    sigma_r = math.sqrt(max(math.fsum(row) for row in var))
    sigma_star = float(profile.sigma.max())
    return ProfileSummary(sigma_c, sigma_r, sigma_star, min(profile.p1, profile.p2))


def homoskedastic_rows(sigmas, p2: int) -> VarianceProfile:
    """Profile with sigma_ij = sigmas[i] for every column j."""
    vec = _finite(sigmas, "sigmas", 0.0, ndim=1)
    return VarianceProfile(np.tile(vec[:, None], (1, _integer(p2, "p2", 1))))


def homoskedastic_columns(sigmas, p1: int) -> VarianceProfile:
    """Profile with sigma_ij = sigmas[j] for every row i."""
    vec = _finite(sigmas, "sigmas", 0.0, ndim=1)
    return VarianceProfile(np.tile(vec[None, :], (_integer(p1, "p1", 1), 1)))


def _check_admissible(sigma_star: float, sigma_C: float, sigma_R: float, p1: int, p2: int) -> tuple[int, int]:
    """Reject dimensions below 1 and scale tuples outside the minimax lower
    bound's range, min(sigma_C, sigma_R) >= sigma_* >= max(sigma_C/sqrt(p1),
    sigma_R/sqrt(p2)), up to the relative slack _REL_SLACK, and return the
    dimensions as ints.  The ParameterError names the inequality that fails."""
    p1, p2 = _integer(p1, "p1", 1), _integer(p2, "p2", 1)
    slack = 1.0 + _REL_SLACK
    if sigma_star > min(sigma_C, sigma_R) * slack:
        raise ParameterError(
            f"inadmissible: sigma_star > min(sigma_C, sigma_R) ({sigma_star} > {min(sigma_C, sigma_R)})"
        )
    if sigma_star * slack < sigma_C / math.sqrt(p1):
        raise ParameterError(
            f"inadmissible: sigma_star < sigma_C/sqrt(p1) ({sigma_star} < {sigma_C / math.sqrt(p1)})"
        )
    if sigma_star * slack < sigma_R / math.sqrt(p2):
        raise ParameterError(
            f"inadmissible: sigma_star < sigma_R/sqrt(p2) ({sigma_star} < {sigma_R / math.sqrt(p2)})"
        )
    return p1, p2


LOWER_BOUND_KINDS = ("single_column", "block", "block_diagonal")


def lower_bound_profile(
    kind: str,
    *,
    sigma_star: float,
    sigma_C: float,
    sigma_R: float,
    p1: int,
    p2: int,
) -> VarianceProfile:
    """Adversarial profiles that attain each term of the minimax lower-bound rate.

    ``single_column``   puts sigma_C/sqrt(p1) in the first column, zero elsewhere
                        (drives the sigma_C^2 term).
    ``block``           puts sigma_* on a k1-by-k2 top-left block with
                        k1 = floor(sigma_C^2/sigma_*^2), k2 = floor(sigma_R^2/sigma_*^2)
                        (drives sigma_C * sigma_R).
    ``block_diagonal``  repeats that k1-by-k2 block m = floor(p1/k1 ^ p2/k2) times
                        down the diagonal (drives the logarithmic terms).

    The parameter tuple must be admissible:
    min(sigma_C, sigma_R) >= sigma_* >= max(sigma_C/sqrt(p1), sigma_R/sqrt(p2)).
    Inadmissible parameters are rejected, never clamped.
    """
    if kind not in LOWER_BOUND_KINDS:
        raise ParameterError(f"unknown lower-bound kind {kind!r}; expected one of {LOWER_BOUND_KINDS}")
    sigma_star, sigma_C, sigma_R = (_finite(v, "sigma_star, sigma_C, sigma_R", 0.0)
                                    for v in (sigma_star, sigma_C, sigma_R))
    p1, p2 = _check_admissible(sigma_star, sigma_C, sigma_R, p1, p2)

    grid = np.zeros((p1, p2))
    if kind == "single_column":
        grid[:, 0] = sigma_C / math.sqrt(p1)
        return VarianceProfile(grid)

    if sigma_star == 0.0:
        # admissibility then forces sigma_C = sigma_R = 0: the zero profile
        return VarianceProfile(grid)

    k1 = max(1, _floor_tol((sigma_C / sigma_star) ** 2))
    k2 = max(1, _floor_tol((sigma_R / sigma_star) ** 2))
    if kind == "block":
        grid[:k1, :k2] = sigma_star
        return VarianceProfile(grid)

    m = max(1, _floor_tol(min(p1 / k1, p2 / k2)))
    for block in range(m):
        grid[block * k1 : (block + 1) * k1, block * k2 : (block + 1) * k2] = sigma_star
    return VarianceProfile(grid)


def _profile_payload(profile: VarianceProfile) -> dict:
    """The explicit JSON form as a dict of Python floats."""
    return {"kind": "explicit", "sigma": profile.sigma.tolist()}


def profile_to_json(profile: VarianceProfile) -> str:
    """Serialize to the explicit JSON form; floats round-trip bit-exactly."""
    return json.dumps(_profile_payload(profile))


def _lower_bound_from_json(payload: dict) -> VarianceProfile:
    params = payload["params"]
    return lower_bound_profile(
        payload["variant"],
        sigma_star=params["sigma_star"],
        sigma_C=params["sigma_C"],
        sigma_R=params["sigma_R"],
        p1=params["p1"],
        p2=params["p2"],
    )


# profile JSON "kind" -> builder of the grid from the parsed JSON object
_PROFILE_KINDS = _Table("profile kind", {
    "explicit": lambda payload: VarianceProfile(payload["sigma"]),
    "homoskedastic_rows": lambda payload: homoskedastic_rows(payload["sigmas"], payload["other_dim"]),
    "homoskedastic_columns": lambda payload: homoskedastic_columns(
        payload["sigmas"], payload["other_dim"]
    ),
    "lower_bound": _lower_bound_from_json,
})


def profile_from_json(text: str) -> VarianceProfile:
    """Parse any of the accepted profile JSON forms into a concrete grid.

    Accepted values of "kind": explicit, homoskedastic_rows,
    homoskedastic_columns, lower_bound.
    """
    return _profile_from_payload(_parse_json(text, "profile JSON"))


def _profile_from_payload(payload) -> VarianceProfile:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParameterError('profile JSON must be an object with a "kind" field')
    build = _PROFILE_KINDS[payload["kind"]]
    try:
        return build(payload)
    except KeyError as exc:
        raise ParameterError(f"profile JSON missing field {exc}") from exc
    except ParameterError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"profile JSON field of the wrong type or shape: {exc}") from None


def _reject_constant(name: str):
    raise ParameterError(f"{name} is not a finite number")


def _parse_json(text: str, what: str):
    """``text`` parsed as standard JSON, which has no NaN or Infinity: either
    of those, or malformed text, is a ParameterError naming ``what``."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or the ParameterError above
        raise ParameterError(f"invalid {what}: {exc}") from None


def _read_json(path, what: str):
    """The JSON file at path, parsed by ``_parse_json``; an unreadable or
    malformed file is a ParameterError naming it and the ``what`` it holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParameterError(f"invalid {what} file {path!r}: {exc}") from None
    return _parse_json(text, f"{what} file {path!r}")


def load_profile(path) -> VarianceProfile:
    return _profile_from_payload(_read_json(path, "profile"))
