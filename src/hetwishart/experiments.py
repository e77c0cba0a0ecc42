"""Monte Carlo harness: concentration estimates, tail empirics, rate sweeps,
and the two-component heteroskedastic clustering application.

Everything is deterministic given a master seed.  Replicates are the unit of
parallelism: replicate r of a run always uses the stream keyed by
(master seed, r) and results are aggregated in replicate order, so a run's
output is byte-identical whether it used 1 worker or 8.  Replicates run on one
BLAS thread (``spectral._one_blas_thread``), so the bits of a product or an
eigensolve do not depend on how many threads the host's OpenBLAS would use
either.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import astuple, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import bounds as bounds_mod
from .errors import NumericalError, ParameterError
from .profiles import VarianceProfile, _finite, _integer, summarize
from .samplers import NoiseModel, SampleSeed, derive_seed, generator, sample
from .spectral import _CenteredOperator, _extreme_eigenpair, _one_blas_thread, spectral_norm

__all__ = [
    "DEFAULT_QUANTILES",
    "ConcentrationEstimate",
    "concentration_norms",
    "estimate_concentration",
    "TailRow",
    "tail_empirics",
    "SweepRow",
    "rate_sweep",
    "sweep_rows_to_csv",
    "ClusteringInstance",
    "generate_mixture",
    "spectral_cluster",
    "misclassification",
    "PhaseRow",
    "phase_diagram",
    "phase_rows_to_csv",
]

DEFAULT_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

# salt tags keep the derived seed spaces of unrelated streams apart
_SALT_SWEEP_ROW = 1 << 32
_SALT_PHASE_LAMBDA = 2 << 32
_SALT_NOISE = 3 << 32

# Residual tolerance of spectral_cluster's Lanczos route.  The certificate
# bounds the eigenvector error by about tol |lam| / spectral gap, and only
# that bound is guaranteed: an ARPACK solve at 1e-8 reached an error of 3e-6
# on below-threshold 400 x 1000 mixtures whose smallest |v_j| was 4.2e-7.
CLUSTER_TOL = 1e-12


def _run_replicates(fn: Callable[[int], float], n_reps: int, threads: int) -> np.ndarray:
    """Evaluate fn(0..n_reps-1) with a worker pool; output order is by index.

    The whole run, at every ``threads`` value, holds OpenBLAS to one thread
    (``_one_blas_thread``): a product or eigensolve then gives the same bits
    whatever the host's BLAS threading, and the workers do not oversubscribe
    the CPUs with BLAS threads of their own.  Pool workers take the caller's
    numpy floating-point error handling (``np.errstate`` is per thread).
    The pool has at most one worker per CPU and per replicate, whatever
    ``threads`` asks for.
    """
    n_reps, threads = _integer(n_reps, "n_reps", 1), _integer(threads, "threads", 1)
    workers = min(threads, n_reps, os.cpu_count() or 1)
    with _one_blas_thread():
        if workers == 1:
            # The calling thread is the one worker.  A pool thread would
            # allocate from its own malloc arena, apart from the memory the
            # caller has freed: 4.7 MB more peak RSS (49.6 -> 54.3 MB) on a
            # sweep to p1 = 3000, x86_64 glibc.
            values = [fn(r) for r in range(n_reps)]
        else:
            from concurrent.futures import ThreadPoolExecutor

            errors = functools.partial(np.seterr, **np.geterr())
            with ThreadPoolExecutor(workers, initializer=errors) as pool:
                values = list(pool.map(fn, range(n_reps)))
    return np.asarray(values, dtype=float)


@dataclass(frozen=True)
class ConcentrationEstimate:
    mean: float
    std_err: float
    n_reps: int
    quantiles: dict[float, float]


def concentration_norms(
    profile: VarianceProfile,
    model: NoiseModel,
    n_reps: int,
    master_seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Per-replicate values of ||ZZ' - E ZZ'||, indexed by replicate.

    The model is checked against the profile, and the row sums d of E ZZ' =
    diag(d) are formed, once per run; each replicate builds the operator of
    ``spectral.centered_operator`` on its own sample and this d.
    """
    model.check(profile)
    d = model.variances(profile).sum(axis=1)

    def one(rep: int) -> float:
        Z = sample(profile, model, SampleSeed(master_seed, rep))
        return spectral_norm(_CenteredOperator(Z, d))

    return _run_replicates(one, n_reps, threads)


def estimate_concentration(
    profile: VarianceProfile,
    model: NoiseModel,
    n_reps: int,
    master_seed: int,
    threads: int = 1,
) -> ConcentrationEstimate:
    """Monte Carlo summary of E||ZZ' - E ZZ'|| over n_reps replicates."""
    n_reps = _integer(n_reps, "n_reps", 2)
    norms = concentration_norms(profile, model, n_reps, master_seed, threads)
    quantiles = {p: float(np.quantile(norms, p)) for p in DEFAULT_QUANTILES}
    return ConcentrationEstimate(
        mean=float(norms.mean()),
        std_err=float(norms.std(ddof=1) / math.sqrt(n_reps)),
        n_reps=n_reps,
        quantiles=quantiles,
    )


@dataclass(frozen=True)
class TailRow:
    x: float
    threshold: float
    frequency: float
    tail_prob: float


def tail_empirics(
    profile: VarianceProfile,
    model: NoiseModel,
    n_reps: int,
    x_grid: Sequence[float],
    C: float,
    master_seed: int,
    threads: int = 1,
) -> list[TailRow]:
    """Empirical exceedance frequency of the tail threshold at each x.

    The threshold is C ((sigma_C + sigma_R + sigma_* sqrt(log(p1^p2)) + x)^2
    - sigma_C^2); the predicted tail probability is exp(-x^2).
    """
    s = summarize(profile)
    norms = concentration_norms(profile, model, n_reps, master_seed, threads)
    rows = []
    for x in x_grid:
        mt = bounds_mod.moment_and_tail(s, b=1.0, x=float(x), C=C)
        freq = float(np.mean(norms > mt.tail_threshold))
        rows.append(TailRow(float(x), mt.tail_threshold, freq, mt.tail_prob))
    return rows


@dataclass(frozen=True)
class SweepRow:
    name: str
    p1: int
    p2: int
    model: str
    n_reps: int
    mean: float
    std_err: float
    bound_id: str
    bound: float
    ratio: float


def rate_sweep(
    named_profiles: Iterable[tuple[str, VarianceProfile]],
    model: NoiseModel,
    n_reps: int,
    bound_id: str,
    master_seed: int,
    threads: int = 1,
    bound_params: dict | None = None,
) -> list[SweepRow]:
    """One Monte Carlo estimate + bound evaluation per grid point.

    Each grid point runs on its own derived seed, so adding or removing rows
    never perturbs the others.  The bound is the ``bounds.BOUNDS`` entry
    ``bound_id`` (the moment bound for ``moment_tail``); an unknown id raises
    ParameterError before any replicate runs, even over an empty family, and
    each row's bound is evaluated before its replicates.  A row whose mean,
    std_err or bound is not finite raises NumericalError.
    """
    bound_fn = bounds_mod.BOUNDS[bound_id]
    rows = []
    for index, (name, profile) in enumerate(named_profiles):
        bound = bound_fn(profile, bound_params or {}).value
        row_seed = derive_seed(master_seed, _SALT_SWEEP_ROW | index)
        est = estimate_concentration(profile, model, n_reps, row_seed, threads)
        if not all(map(math.isfinite, (est.mean, est.std_err, bound))):
            raise NumericalError(f"sweep row {name!r}: mean, std_err or bound is not a finite number")
        ratio = est.mean / bound if bound > 0 else float("nan")
        rows.append(
            SweepRow(
                name=name,
                p1=profile.p1,
                p2=profile.p2,
                model=model.kind,
                n_reps=n_reps,
                mean=est.mean,
                std_err=est.std_err,
                bound_id=bound_id,
                bound=bound,
                ratio=ratio,
            )
        )
    return rows


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _to_csv(header: Sequence[str], rows: Iterable[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(map(_fmt, row))
    return buf.getvalue()


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    return _to_csv([f.name for f in fields(SweepRow)], map(astuple, rows))


@dataclass(frozen=True)
class ClusteringInstance:
    """Two-component mixture: observation j is labels[j] * mu + noise, with
    independent N(0, sigmas[i]^2) noise in coordinate i."""

    n: int
    p: int
    mu: np.ndarray
    labels: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        labels = np.asarray(self.labels)
        sigmas = _finite(self.sigmas, "sigmas", 0.0, ndim=1)
        n, p = _integer(self.n, "n", 1), _integer(self.p, "p", 1)
        if mu.shape != (p,):
            raise ParameterError(f"mu must have length p = {p}")
        if labels.shape != (n,) or not np.all(np.isin(labels, (-1, 1))):
            raise ParameterError("labels must be a length-n vector with entries in {-1, +1}")
        if sigmas.shape != (p,):
            raise ParameterError(f"sigmas must have length p = {p}")
        for name, arr in (("mu", mu), ("labels", labels.astype(int)), ("sigmas", sigmas)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)


def generate_mixture(instance: ClusteringInstance, seed: SampleSeed) -> np.ndarray:
    """n-by-p observation matrix: row j is labels[j] * mu + heteroskedastic noise.

    Written in place into the drawn matrix, with no n-by-p temporary: labels
    are +-1, so the shift adds mu to the rows labelled +1 and subtracts it
    from the others.  Since x - m == x + (-m) exactly, the result is bitwise
    ``labels[:, None] * mu[None, :] + noise * sigmas[None, :]``, signed zeros
    included.
    """
    Y = generator(seed).standard_normal((instance.n, instance.p))
    Y *= instance.sigmas[None, :]
    plus = (instance.labels > 0)[:, None]
    np.add(Y, instance.mu, out=Y, where=plus)
    np.subtract(Y, instance.mu, out=Y, where=~plus)
    return Y


def spectral_cluster(Y: np.ndarray) -> np.ndarray:
    """Signs of the leading eigenvector of YY' (zero maps to +1).

    The vector is that of ``spectral._extreme_eigenpair`` on the formed YY',
    which is positive semidefinite, so largest |lam| is its top eigenpair:
    for small n the top column of the dense ``eigh``, for large n a Lanczos
    vector accepted only under the residual certificate ||YY'v - lam v|| <=
    CLUSTER_TOL |lam| with lam != 0 and CLUSTER_TOL = 1e-12, and the dense
    ``eigh`` again when no certified pair comes out (a zero Y, for one, has
    lam = 0).  The tolerance is tight because the output is the sign of each
    coordinate and the error of v is about the residual over the spectral
    gap.  A failed dense solve raises NumericalError.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 2:
        raise ParameterError("Y must be a 2-d matrix with n >= 2 rows")
    _, leading = _extreme_eigenpair(Y @ Y.T, CLUSTER_TOL, vector=True)
    return np.where(leading >= 0.0, 1, -1)


def misclassification(labels: np.ndarray, estimate: np.ndarray) -> float:
    """Normalized Hamming distance minimized over a global sign flip; in [0, 1/2]."""
    l = np.asarray(labels)
    lhat = np.asarray(estimate)
    if l.shape != lhat.shape or l.ndim != 1:
        raise ParameterError("label vectors must be 1-d and of equal length")
    if not (np.all(np.isin(l, (-1, 1))) and np.all(np.isin(lhat, (-1, 1)))):
        raise ParameterError("label entries must be -1 or +1")
    disagreements = int(np.sum(l != lhat))
    return min(disagreements, l.size - disagreements) / l.size


@dataclass(frozen=True)
class PhaseRow:
    lam: float
    mean_misclassification: float
    std_err: float
    n_reps: int


def phase_diagram(
    n: int,
    p: int,
    sigmas,
    lambda_grid: Sequence[float],
    n_reps: int,
    master_seed: int,
    threads: int = 1,
) -> tuple[list[PhaseRow], float]:
    """Mean misclassification per signal strength lambda, plus the SNR threshold.

    mu = lambda * e_1, e_1 the first coordinate axis; labels are drawn
    uniformly at random for each replicate.  Returns the rows and the
    threshold sigma_* v sigma_tilde / n^(1/4).
    """
    sigmas = _finite(sigmas, "sigmas", 0.0, ndim=1)
    if sigmas.shape != (p,):
        raise ParameterError(f"sigmas must have length p = {p}")
    lambda_grid = _finite(lambda_grid, "lambdas", 0.0, ndim=1)
    direction = np.zeros(p)
    direction[0] = 1.0

    sigma_star = float(sigmas.max())
    sigma_tilde = float(np.sum(sigmas**4) ** 0.25)
    if math.isinf(sigma_tilde):
        raise NumericalError("sigma_tilde = (sum_i sigma_i^4)^(1/4) overflows")
    threshold = bounds_mod.clustering_rates(1.0, n, sigma_star, sigma_tilde).snr_threshold

    rows = []
    for lam_index, lam in enumerate(lambda_grid):
        lam_seed = derive_seed(master_seed, _SALT_PHASE_LAMBDA | lam_index)
        noise_seed = derive_seed(lam_seed, _SALT_NOISE)
        mu = float(lam) * direction

        def one(rep: int) -> float:
            labels = generator(SampleSeed(lam_seed, rep)).integers(0, 2, size=n) * 2 - 1
            instance = ClusteringInstance(n=n, p=p, mu=mu, labels=labels, sigmas=sigmas)
            Y = generate_mixture(instance, SampleSeed(noise_seed, rep))
            return misclassification(labels, spectral_cluster(Y))

        values = _run_replicates(one, n_reps, threads)
        rows.append(
            PhaseRow(
                lam=float(lam),
                mean_misclassification=float(values.mean()),
                std_err=float(values.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0,
                n_reps=n_reps,
            )
        )
    return rows, threshold


def phase_rows_to_csv(rows: Sequence[PhaseRow], threshold: float) -> str:
    return _to_csv(["lambda", "mean_misclassification", "std_err", "n_reps", "snr_threshold"],
                   (astuple(r) + (threshold,) for r in rows))
