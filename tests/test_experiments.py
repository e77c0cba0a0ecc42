import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from hetwishart import (
    Bernoulli,
    ClusteringInstance,
    Gaussian,
    NumericalError,
    ParameterError,
    SampleSeed,
    VarianceProfile,
    clustering_rates,
    estimate_concentration,
    generate_mixture,
    misclassification,
    phase_diagram,
    rate_sweep,
    spectral_cluster,
    tail_empirics,
)
from hetwishart import experiments, spectral
from hetwishart.bounds import BOUNDS
from hetwishart.experiments import (
    PhaseRow,
    SweepRow,
    concentration_norms,
    phase_rows_to_csv,
    sweep_rows_to_csv,
)
from hetwishart.profiles import homoskedastic_rows
from hetwishart.samplers import generator
from hetwishart.spectral import DENSE_CUTOFF


def test_estimate_zero_profile():
    est = estimate_concentration(VarianceProfile(np.zeros((4, 4))), Gaussian(), 5, 1)
    assert est.mean == 0.0
    assert est.std_err == 0.0
    assert est.n_reps == 5


def test_estimate_scalar_case_matches_quadrature():
    # 1x1, sigma = 1: the norm is |z^2 - 1|; oracle via 1-d quadrature
    oracle, _ = integrate.quad(lambda x: abs(x * x - 1.0) * norm.pdf(x), -np.inf, np.inf)
    est = estimate_concentration(VarianceProfile(np.ones((1, 1))), Gaussian(), 4000, 99)
    assert abs(est.mean - oracle) <= 5 * est.std_err


def test_estimate_deterministic_and_thread_independent():
    prof = VarianceProfile(np.random.default_rng(3).uniform(0, 1, (20, 15)))
    a = concentration_norms(prof, Gaussian(), 12, 777, threads=1)
    b = concentration_norms(prof, Gaussian(), 12, 777, threads=4)
    assert np.array_equal(a, b)
    e1 = estimate_concentration(prof, Gaussian(), 12, 777, threads=1)
    e2 = estimate_concentration(prof, Gaussian(), 12, 777, threads=4)
    assert e1 == e2


def test_estimate_quantiles_nondecreasing():
    prof = VarianceProfile(np.ones((10, 10)))
    est = estimate_concentration(prof, Gaussian(), 30, 5)
    probs = sorted(est.quantiles)
    values = [est.quantiles[p] for p in probs]
    assert values == sorted(values)
    assert min(probs) >= 0.0 and max(probs) <= 1.0


def test_estimate_permutation_invariant_to_mc_error():
    rng = np.random.default_rng(17)
    sigma = rng.uniform(0, 1, (25, 30))
    prof = VarianceProfile(sigma)
    perm = sigma[rng.permutation(25), :][:, rng.permutation(30)]
    prof_p = VarianceProfile(perm)
    e1 = estimate_concentration(prof, Gaussian(), 80, 31)
    e2 = estimate_concentration(prof_p, Gaussian(), 80, 32)
    gap = abs(e1.mean - e2.mean)
    assert gap <= 3.0 * math.hypot(e1.std_err, e2.std_err)


def test_std_err_sqrt_law():
    prof = VarianceProfile(np.ones((20, 20)))
    small = estimate_concentration(prof, Gaussian(), 200, 9)
    big = estimate_concentration(prof, Gaussian(), 400, 10)
    ratio = big.std_err / small.std_err
    assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.3 / math.sqrt(2.0)


def test_tail_empirics_basics():
    prof = VarianceProfile(np.ones((15, 15)))
    rows = tail_empirics(prof, Gaussian(), 40, [0.0, 0.5, 1.0, 2.0], C=1e9, master_seed=2)
    assert rows[0].frequency == 0.0  # astronomically large threshold
    freqs = [r.frequency for r in rows]
    assert freqs == sorted(freqs, reverse=True)
    assert [r.threshold for r in rows] == sorted(r.threshold for r in rows)
    assert rows[0].tail_prob == 1.0


def test_evaluate_bound_dispatch():
    prof = homoskedastic_rows(np.array([1.0, 0.5, 0.25]), 8)
    assert BOUNDS["structured_rows"](prof, {}).value > 0
    with pytest.raises(ParameterError):
        BOUNDS["structured_columns"](prof, {})
    assert BOUNDS["gaussian"](prof, {"eps1": 0.2, "eps2": 0.2}).value > 0
    assert BOUNDS["symmetrization"](prof, {}).value > 0
    assert BOUNDS["unified_sub_gaussian"](prof, {}).value > 0
    with pytest.raises(ParameterError):
        BOUNDS["nonsense"]


@pytest.mark.parametrize("bound_id, params", [
    ("gaussian", {"eps_1": 5.0}), ("gaussian", {"alpha": 1.5}), ("structured_rows", {"b": 3.0}),
    ("unified_gaussian", {"B": 2.0}), ("unified_bernoulli", {"B": 2.0}),
])
def test_a_bound_rejects_a_parameter_it_does_not_read(bound_id, params):
    prof = homoskedastic_rows(np.array([1.0, 0.5]), 3)
    with pytest.raises(ParameterError, match=repr(next(iter(params)))):
        BOUNDS[bound_id](prof, params)
    assert params  # the caller's dict is left as it was


def test_rate_sweep_evaluates_the_bound_before_the_replicates():
    """A bound parameter typo stops the sweep before its first replicate: the
    model here would fail its profile check as soon as a replicate ran."""
    prof = VarianceProfile(np.full((2, 2), 0.5))
    mismatched = Bernoulli(theta=np.full((3, 3), 0.5))
    with pytest.raises(ParameterError, match="eps_1"):
        rate_sweep([("only", prof)], mismatched, 2, "gaussian", 1, bound_params={"eps_1": 5.0})


@pytest.mark.parametrize("sigma, bound_id, bound_params", [
    (1e200, "structured_rows", {}),  # mean inf, std_err nan, bound inf
    (0.5, "gaussian", {"eps1": 1e308}),  # bound inf
])
def test_rate_sweep_rejects_a_row_that_is_not_finite(sigma, bound_id, bound_params):
    prof = homoskedastic_rows(np.full(2, sigma), 2)
    with pytest.raises(NumericalError, match="not a finite number"):
        rate_sweep([("big", prof)], Gaussian(), 2, bound_id, 1, bound_params=bound_params)


def test_rate_sweep_single_point_and_csv_determinism():
    prof = VarianceProfile(np.full((8, 8), 0.5))
    rows1 = rate_sweep([("only", prof)], Gaussian(), 6, "gaussian", 101, threads=1)
    rows2 = rate_sweep([("only", prof)], Gaussian(), 6, "gaussian", 101, threads=3)
    assert rows1 == rows2
    assert len(rows1) == 1
    row = rows1[0]
    assert row.bound > 0 and math.isfinite(row.ratio)
    est = estimate_concentration(prof, Gaussian(), 6, rows_seed(101, 0))
    assert row.mean == est.mean

    csv1 = sweep_rows_to_csv(rows1)
    csv2 = sweep_rows_to_csv(rows2)
    assert csv1 == csv2
    assert csv1.splitlines()[0].startswith("name,p1,p2")


def test_rate_sweep_rejects_an_unknown_bound_before_any_replicate():
    profiles = iter([("only", VarianceProfile(np.full((4, 4), 0.5)))])
    with pytest.raises(ParameterError, match="bogus"):
        rate_sweep(profiles, Gaussian(), 2, "bogus", 1)
    assert next(profiles)[0] == "only"  # the family was never read


@pytest.mark.parametrize("threads", [1, 3])
def test_replicates_run_on_one_blas_thread(threads, bundled_openblas):
    """Each replicate reads OpenBLAS's thread count as 1, and the count the
    process had on entry comes back after the run, also when a replicate raises."""
    lib = spectral._openblas()
    assert lib is not None
    set_threads, get_threads = lib.scipy_openblas_set_num_threads64_, lib.scipy_openblas_get_num_threads64_
    initial = get_threads()
    set_threads(2)
    try:
        seen = experiments._run_replicates(lambda rep: get_threads(), 4, threads)
        assert seen.tolist() == [1.0] * 4
        assert get_threads() == 2

        def failing(rep):
            if rep == 2:
                raise NumericalError("replicate 2 failed")
            return 0.0

        with pytest.raises(NumericalError):
            experiments._run_replicates(failing, 4, threads)
        assert get_threads() == 2
    finally:
        set_threads(initial)


def test_run_replicates_starts_at_most_one_worker_per_cpu(monkeypatch):
    """A huge ``threads`` asks the pool for no more workers than CPUs; the
    values are those of the one-thread run."""
    import concurrent.futures
    import os

    pools = []
    real = concurrent.futures.ThreadPoolExecutor

    def recording(max_workers=None, *args, **kwargs):
        pools.append(max_workers)
        return real(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    values = experiments._run_replicates(lambda rep: float(rep), 50, 10**6)
    assert all(workers <= (os.cpu_count() or 1) for workers in pools)
    assert values.tolist() == experiments._run_replicates(lambda rep: float(rep), 50, 1).tolist()


@pytest.mark.parametrize("threads", [1, 3])
def test_run_replicates_rejects_no_replicates(threads):
    with pytest.raises(ParameterError, match="n_reps"):
        experiments._run_replicates(lambda rep: 0.0, 0, threads)


def test_csv_text_of_sweep_and_phase_rows():
    """Floats print as repr, integers as str, and csv quotes a comma."""
    sweep = SweepRow("a,b", 8, 4, "gaussian", 6, 0.1 + 0.2, 1e-20, "gaussian", 3.0, 0.1)
    assert sweep_rows_to_csv([sweep]) == (
        "name,p1,p2,model,n_reps,mean,std_err,bound_id,bound,ratio\n"
        '"a,b",8,4,gaussian,6,0.30000000000000004,1e-20,gaussian,3.0,0.1\n'
    )
    phase = PhaseRow(0.5, 1 / 3, 0.0, 4)
    assert phase_rows_to_csv([phase], 2.0 ** 0.5) == (
        "lambda,mean_misclassification,std_err,n_reps,snr_threshold\n"
        "0.5,0.3333333333333333,0.0,4,1.4142135623730951\n"
    )


def rows_seed(master, index):
    from hetwishart.experiments import _SALT_SWEEP_ROW
    from hetwishart.samplers import derive_seed

    return derive_seed(master, _SALT_SWEEP_ROW | index)


def test_generate_mixture_exact_and_reproducible():
    n, p = 6, 4
    mu = np.arange(1.0, p + 1.0)
    labels = np.array([1, -1, 1, 1, -1, -1])
    inst = ClusteringInstance(n=n, p=p, mu=mu, labels=labels, sigmas=np.zeros(p))
    Y = generate_mixture(inst, SampleSeed(1, 0))
    assert np.array_equal(Y, labels[:, None] * mu[None, :])

    noisy = ClusteringInstance(n=n, p=p, mu=np.zeros(p), labels=labels, sigmas=np.full(p, 2.0))
    Y1 = generate_mixture(noisy, SampleSeed(5, 3))
    Y2 = generate_mixture(noisy, SampleSeed(5, 3))
    assert np.array_equal(Y1, Y2)


def test_generate_mixture_is_bitwise_the_out_of_place_sum():
    """The in-place shift must match the outer-product formula byte for byte,
    signed zeros included: with mu = lam * e_1 every other coordinate adds
    labels * 0.0 = +-0.0, and the sigma = 0 column holds +-0.0 noise."""
    rng = np.random.default_rng(4)
    n, p = 30, 17
    labels = rng.choice([-1, 1], size=n)
    assert set(labels) == {-1, 1}
    dense = rng.standard_normal(p)
    one_hot = np.zeros(p)
    one_hot[0] = 1.7
    sigmas = rng.uniform(0.0, 2.0, p)
    sigmas[3] = 0.0
    seed = SampleSeed(9, 2)
    noise = generator(seed).standard_normal((n, p))
    for mu in (dense, one_hot):
        inst = ClusteringInstance(n=n, p=p, mu=mu, labels=labels, sigmas=sigmas)
        expected = labels[:, None] * mu[None, :] + noise * sigmas[None, :]
        assert generate_mixture(inst, seed).tobytes() == expected.tobytes()
    negative_zero = np.signbit(expected[:, 3])  # the one-hot case holds both zeros
    assert negative_zero.any() and not negative_zero.all()


def test_mixture_pure_noise_column_variances():
    p = 5
    sigmas = np.array([0.5, 1.0, 1.5, 2.0, 0.25])
    inst = ClusteringInstance(
        n=4000, p=p, mu=np.zeros(p), labels=np.ones(4000, dtype=int), sigmas=sigmas
    )
    Y = generate_mixture(inst, SampleSeed(7, 0))
    sample_var = Y.var(axis=0)
    assert np.allclose(sample_var, sigmas**2, rtol=0.15)


def test_spectral_cluster_recovers_noiseless_labels():
    rng = np.random.default_rng(12)
    n, p = 20, 7
    labels = rng.choice([-1, 1], size=n)
    mu = rng.standard_normal(p)
    inst = ClusteringInstance(n=n, p=p, mu=mu, labels=labels, sigmas=np.zeros(p))
    Y = generate_mixture(inst, SampleSeed(0, 0))
    found = spectral_cluster(Y)
    assert misclassification(labels, found) == 0.0

    two = spectral_cluster(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert set(two) == {-1, 1}


def _count_lanczos_solves(monkeypatch) -> list:
    """Record the result of every certified Lanczos solve spectral_cluster makes."""
    results = []
    solve = spectral._certified_lanczos_pair

    def counted(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(spectral, "_certified_lanczos_pair", counted)
    return results


def test_spectral_cluster_outputs_signs(monkeypatch):
    out = spectral_cluster(np.zeros((3, 2)))
    assert set(np.unique(out)) <= {-1, 1}
    # a zero Y above the cutoff: the solve breaks down at lam = 0, which the
    # certificate rejects, and the dense route gives all +1
    solves = _count_lanczos_solves(monkeypatch)
    assert spectral_cluster(np.zeros((DENSE_CUTOFF + 8, 3))).tolist() == [1] * (DENSE_CUTOFF + 8)
    assert solves == [None]
    with pytest.raises(ParameterError):
        spectral_cluster(np.zeros((1, 5)))


def test_spectral_cluster_dense_failure_is_numerical_error(monkeypatch):
    def failing_eigh(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    Y = np.random.default_rng(4).standard_normal((20, 5))
    with pytest.raises(NumericalError, match="eigendecomposition failed"):
        spectral_cluster(Y)


def _mixture(n, p, lam_over_threshold, seed):
    """Mixture with sigmas uniform on [0.5, 1.5] and ||mu|| a multiple of the SNR threshold."""
    rng = np.random.default_rng(seed)
    sigmas = rng.uniform(0.5, 1.5, p)
    threshold = clustering_rates(1.0, n, sigmas.max(), np.sum(sigmas**4) ** 0.25).snr_threshold
    mu = np.zeros(p)
    mu[0] = lam_over_threshold * threshold
    labels = rng.choice([-1, 1], size=n)
    instance = ClusteringInstance(n=n, p=p, mu=mu, labels=labels, sigmas=sigmas)
    return generate_mixture(instance, SampleSeed(seed, 0))


@pytest.mark.parametrize(
    "n, p, lam_over_threshold, seed",
    [(DENSE_CUTOFF + 1, 50, 2.0, 0), (400, 1000, 0.5, 1), (400, 1000, 0.5, 2), (400, 1000, 0.5, 3)],
    ids=["cutoff_plus_one", "below_threshold_1", "below_threshold_2", "below_threshold_3"],
)
def test_spectral_cluster_lanczos_matches_dense_eigh(monkeypatch, n, p, lam_over_threshold, seed):
    Y = _mixture(n, p, lam_over_threshold, seed)
    dense = np.where(np.linalg.eigh(Y @ Y.T)[1][:, -1] >= 0.0, 1, -1)
    solves = _count_lanczos_solves(monkeypatch)
    found = spectral_cluster(Y)
    assert len(solves) == 1 and solves[0] is not None  # certified, not the fallback
    assert np.array_equal(found, dense) or np.array_equal(found, -dense)


def test_misclassification_examples():
    l = np.array([1, -1, 1, -1])
    assert misclassification(l, l) == 0.0
    assert misclassification(l, -l) == 0.0
    flipped_two = np.array([1, -1, -1, 1])
    assert misclassification(l, flipped_two) == 0.5
    with pytest.raises(ParameterError):
        misclassification(l, l[:3])
    with pytest.raises(ParameterError):
        misclassification(l, np.array([1, 0, 1, -1]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=24), st.randoms())
def test_misclassification_invariances(raw, pyrandom):
    l = np.array(raw)
    lhat = np.array([pyrandom.choice([-1, 1]) for _ in raw])
    base = misclassification(l, lhat)
    assert 0.0 <= base <= 0.5
    assert misclassification(-l, lhat) == base
    assert misclassification(l, -lhat) == base
    perm = np.array(pyrandom.sample(range(len(raw)), len(raw)))
    assert misclassification(l[perm], lhat[perm]) == base


@pytest.mark.parametrize(
    "n, p", [(40, 20), (DENSE_CUTOFF + 32, 60)], ids=["dense", "lanczos"]
)
def test_phase_diagram_smoke(n, p):
    rows, threshold = phase_diagram(
        n=n, p=p, sigmas=np.ones(p), lambda_grid=[0.05, 6.0], n_reps=6, master_seed=55
    )
    assert threshold == pytest.approx(max(1.0, (p / n) ** 0.25))
    assert rows[1].mean_misclassification < rows[0].mean_misclassification
    assert rows[1].mean_misclassification < 0.05

    csv_text = phase_rows_to_csv(rows, threshold)
    assert csv_text.splitlines()[0].startswith("lambda,")
    rows_again, _ = phase_diagram(
        n=n, p=p, sigmas=np.ones(p), lambda_grid=[0.05, 6.0], n_reps=6, master_seed=55,
        threads=3,
    )
    assert rows == rows_again
