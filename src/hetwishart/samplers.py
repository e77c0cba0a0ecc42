"""Random matrix samplers with deterministic, parallel-safe seeding.

Every entry stream is a pure function of (master_seed, replicate_index): each
replicate gets its own counter-based Philox generator keyed by the pair, and
all draws happen in a fixed vectorized order.  Two calls with the same seed
produce bitwise-identical matrices no matter how replicates are scheduled
across workers.

Supported entry families (all independent, mean zero):

  Gaussian          N(0, sigma_ij^2)
  ScaledRademacher  sigma_ij * (+-1), the extreme-kurtosis symmetric sub-Gaussian
  Bounded(B)        sigma_ij * Uniform[-sqrt(3), sqrt(3)], so |entry| <= B
                    whenever sigma_* sqrt(3) <= B
  Bernoulli(theta)  A_ij - theta_ij with A_ij ~ Bernoulli(theta_ij)
  HeavyTail(b)      sigma_ij * G|H|^(b-1) / s_b with G, H independent N(0,1)
                    and s_b^2 = E|H|^(2b-2) = 2^(b-1) Gamma(b-1/2) / Gamma(1/2),
                    variance exactly sigma_ij^2; tail exponent alpha = 2/b
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import ParameterError
from .profiles import VarianceProfile, _fields, _finite, _integer, _Table

__all__ = [
    "SampleSeed",
    "Gaussian",
    "ScaledRademacher",
    "Bounded",
    "Bernoulli",
    "HeavyTail",
    "NoiseModel",
    "MODELS",
    "generator",
    "derive_seed",
    "heavy_tail_scale",
    "sample",
    "model_to_json_dict",
    "model_from_json_dict",
]

_MASK64 = (1 << 64) - 1
_SQRT3 = math.sqrt(3.0)
# A blockwise draw (heavy tail, Rademacher) takes a p1-by-p2 stream in row
# blocks of about this many bytes, so it holds one float grid, not two
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class SampleSeed:
    master_seed: int
    replicate_index: int

    def __post_init__(self):
        object.__setattr__(self, "replicate_index", _integer(self.replicate_index, "replicate_index", 0))


def generator(seed: SampleSeed) -> np.random.Generator:
    """Philox generator keyed by (master_seed, replicate_index)."""
    key = np.array([seed.master_seed & _MASK64, seed.replicate_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(master_seed: int, salt: int) -> int:
    """Splitmix64 step: decorrelated 64-bit seed for an auxiliary stream."""
    z = (master_seed + salt * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _row_blocks(shape: tuple[int, int]):
    """Slices of consecutive rows of a p1-by-p2 grid, each about
    ``_BLOCK_BYTES`` of 8-byte entries (one row at the least).  A Philox
    generator continues its stream from one call to the next, so drawing
    block after block gives the bits of one whole-grid draw."""
    p1, p2 = shape
    step = max(1, _BLOCK_BYTES // (8 * p2))
    return (slice(start, start + step) for start in range(0, p1, step))


def heavy_tail_scale(b: float) -> float:
    """s_b = sqrt(E|H|^(2b-2)) = sqrt(2^(b-1) Gamma(b-1/2) / Gamma(1/2))."""
    return math.sqrt(2.0 ** (b - 1.0) * math.gamma(b - 0.5) / math.gamma(0.5))


@dataclass(frozen=True)
class NoiseModel:
    """An entry family.  Each subclass draws its entries, reports their
    variances, checks the profile it is paired with, and checks its
    dataclass fields (its JSON params) with ``profiles._finite``."""

    kind: ClassVar[str]

    def draw(self, rng: np.random.Generator, sigma: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def variances(self, profile: VarianceProfile) -> np.ndarray:
        return profile.variances()

    def check(self, profile: VarianceProfile) -> None:
        """Reject a profile this model cannot be paired with."""

    def params(self) -> dict:
        return {f.name: np.asarray(getattr(self, f.name), float).tolist() for f in fields(self)}

    @classmethod
    def from_params(cls, params: dict) -> NoiseModel:
        with _fields(f"noise model {cls.kind!r} params"):
            values = {f.name: params[f.name] for f in fields(cls)}
        return cls(**values)


@dataclass(frozen=True)
class Gaussian(NoiseModel):
    kind = "gaussian"

    def draw(self, rng, sigma):
        """sigma * N(0, 1), scaled in place in the draws."""
        z = rng.standard_normal(sigma.shape)
        z *= sigma
        return z


@dataclass(frozen=True)
class ScaledRademacher(NoiseModel):
    kind = "rademacher"

    def draw(self, rng, sigma):
        """sigma * (+-1): each row block of 0/1 integers is mapped to signs
        and scaled into one float output, bitwise the whole-grid formula."""
        z = np.empty(sigma.shape)
        for rows in _row_blocks(z.shape):
            block = z[rows]
            np.multiply(rng.integers(0, 2, size=block.shape), 2.0, out=block)
            block -= 1.0
            block *= sigma[rows]
        return z


@dataclass(frozen=True)
class Bounded(NoiseModel):
    B: float
    kind = "bounded"

    def __post_init__(self):
        object.__setattr__(self, "B", _finite(self.B, "B", 0.0, open_low=True))

    def check(self, profile):
        sigma_star = float(profile.sigma.max())
        if sigma_star * _SQRT3 > self.B * (1.0 + 1e-12):
            raise ParameterError(
                f"bounded model needs sigma_* * sqrt(3) <= B ({sigma_star * _SQRT3} > {self.B})"
            )

    def draw(self, rng, sigma):
        """sigma * Uniform[-sqrt(3), sqrt(3)], scaled in place in the draws."""
        u = rng.uniform(-_SQRT3, _SQRT3, size=sigma.shape)
        u *= sigma
        return u


@dataclass(frozen=True, eq=False)
class Bernoulli(NoiseModel):
    """Entries A_ij - theta_ij; the paired profile only fixes the dimensions."""

    theta: np.ndarray = field(repr=False)
    kind = "bernoulli"

    def __post_init__(self):
        arr = _finite(self.theta, "theta", 0.0, 1.0, ndim=2).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    def __eq__(self, other):
        return type(other) is Bernoulli and np.array_equal(self.theta, other.theta)

    def check(self, profile):
        if self.theta.shape != profile.shape:
            raise ParameterError(
                f"theta grid {self.theta.shape} does not match profile shape {profile.shape}"
            )

    def draw(self, rng, sigma):
        """A_ij - theta_ij, with theta subtracted in place from the 0/1 draws."""
        draws = (rng.random(sigma.shape) < self.theta).astype(float)
        draws -= self.theta
        return draws

    def variances(self, profile):
        return self.theta * (1.0 - self.theta)


@dataclass(frozen=True)
class HeavyTail(NoiseModel):
    b: float
    kind = "heavy_tail"

    def __post_init__(self):
        object.__setattr__(self, "b", _finite(self.b, "b", 1.0))

    def draw(self, rng, sigma):
        """sigma * (G |H|^(b-1) / heavy_tail_scale(b)), written into G: G is
        drawn whole, then H row block by row block, each block finished in
        place and copied into G.  No p1-by-p2 temporary beyond G, and
        bitwise the out-of-place formula."""
        g = rng.standard_normal(sigma.shape)
        scale = heavy_tail_scale(self.b)
        for rows in _row_blocks(g.shape):
            h = rng.standard_normal(g[rows].shape)
            np.abs(h, out=h)
            h **= self.b - 1.0
            h *= g[rows]
            h /= scale
            h *= sigma[rows]
            g[rows] = h
        return g


MODELS: dict[str, type[NoiseModel]] = _Table("noise model name", {
    cls.kind: cls for cls in (Gaussian, ScaledRademacher, Bounded, Bernoulli, HeavyTail)
})


def sample(profile: VarianceProfile, model: NoiseModel, seed: SampleSeed) -> np.ndarray:
    """Draw one p1-by-p2 matrix; deterministic for a fixed seed.

    Variances are exactly sigma_ij^2 for all families except Bernoulli, whose
    entries are A_ij - theta_ij with variance theta_ij (1 - theta_ij); there the
    profile only fixes the dimensions.
    """
    model.check(profile)
    return model.draw(generator(seed), profile.sigma)


def model_to_json_dict(model: NoiseModel) -> dict:
    return {"model": model.kind, "params": model.params()}


def model_from_json_dict(payload: dict) -> NoiseModel:
    if not isinstance(payload, dict) or "model" not in payload:
        raise ParameterError('noise model JSON must be an object with a "model" field')
    return MODELS[payload["model"]].from_params(payload.get("params", {}))
