import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg

from hetwishart import (
    Bernoulli,
    Bounded,
    ContractError,
    Gaussian,
    HeavyTail,
    NumericalError,
    ParameterError,
    SampleSeed,
    ScaledRademacher,
    VarianceProfile,
    centered_operator,
    sample,
    spectral_norm,
    trace_power,
)
from hetwishart import spectral
from hetwishart.experiments import (
    CLUSTER_TOL,
    ClusteringInstance,
    concentration_norms,
    generate_mixture,
    spectral_cluster,
)
from hetwishart.spectral import DENSE_CUTOFF, _certified_lanczos_pair


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def test_centered_gram_zero_matrix():
    prof = VarianceProfile(np.ones((3, 4)))
    A = centered_operator(np.zeros((3, 4)), prof, Gaussian()).toarray()
    assert np.array_equal(A, -4.0 * np.eye(3))

    zero_prof = VarianceProfile(np.zeros((3, 4)))
    A = centered_operator(np.zeros((3, 4)), zero_prof, Gaussian()).toarray()
    assert np.array_equal(A, np.zeros((3, 3)))
    # Bernoulli variances come from theta, not from the profile: 4 * 0.5 * 0.5 per row
    coins = Bernoulli(theta=np.full((3, 4), 0.5))
    A = centered_operator(np.zeros((3, 4)), zero_prof, coins).toarray()
    assert np.array_equal(A, -np.eye(3))


def test_centered_gram_scalar_case():
    prof = VarianceProfile(np.ones((1, 1)))
    z = 1.7
    A = centered_operator(np.array([[z]]), prof, Gaussian()).toarray()
    assert A[0, 0] == pytest.approx(z * z - 1.0)


def test_centered_gram_diagonal_and_symmetry():
    rng = np.random.default_rng(1)
    prof = VarianceProfile(rng.uniform(0, 1, (6, 9)))
    Z = rng.standard_normal((6, 9)) * prof.sigma
    A = centered_operator(Z, prof, Gaussian()).toarray()
    assert np.array_equal(A, A.T)
    expected_diag = (Z**2).sum(axis=1) - (prof.sigma**2).sum(axis=1)
    assert np.allclose(np.diag(A), expected_diag, rtol=1e-12)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_toarray_is_bitwise_symmetric(layout):
    """The dense route's matrix needs no symmetrizing pass: it is bitwise
    symmetric for every memory layout of Z."""
    rng = np.random.default_rng(11)
    Z = {
        "C": lambda: rng.standard_normal((100, 70)),
        "F": lambda: np.asfortranarray(rng.standard_normal((100, 70))),
        "strided": lambda: rng.standard_normal((200, 210))[::2, ::3],
    }[layout]()
    profile = VarianceProfile(np.full(Z.shape, 0.5))
    A = centered_operator(Z, profile, Gaussian()).toarray()
    assert np.array_equal(A, A.T)


def test_centered_gram_dim_mismatch():
    with pytest.raises(ParameterError):
        centered_operator(np.zeros((2, 2)), VarianceProfile(np.ones((3, 4))), Gaussian())


def test_spectral_norm_examples():
    assert spectral_norm(np.diag([3.0, -5.0, 1.0])) == 5.0
    assert spectral_norm(np.eye(10)) == 1.0
    assert spectral_norm(np.eye(100)) == pytest.approx(1.0, rel=1e-8)


def test_spectral_norm_rank_one():
    rng = np.random.default_rng(2)
    for n in (30, 150):
        x = rng.standard_normal(n)
        A = np.outer(x, x)
        assert spectral_norm(A) == pytest.approx(float(x @ x), rel=1e-8)


def test_spectral_norm_negative_extreme_dominates():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(120)
    A = -np.outer(x, x)  # single large negative eigenvalue
    assert spectral_norm(A) == pytest.approx(float(x @ x), rel=1e-8)


def test_spectral_norm_scalar_homogeneity():
    rng = np.random.default_rng(4)
    A = random_symmetric(rng, 40)
    base = spectral_norm(A)
    for c in (-2.5, 0.0, 3.0):
        assert spectral_norm(c * A) == pytest.approx(abs(c) * base, rel=1e-10)


def test_spectral_norm_matches_dense_on_random_matrices():
    rng = np.random.default_rng(5)
    tol = 1e-8
    for _ in range(100):
        n = int(rng.integers(2, 201))
        A = random_symmetric(rng, n)
        dense = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert spectral_norm(A) == pytest.approx(dense, rel=tol)


def test_spectral_norm_rejects_asymmetric():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        spectral_norm(A)


def test_spectral_norm_zero_matrix_large():
    assert spectral_norm(np.zeros((128, 128))) == 0.0


@pytest.mark.parametrize("n", [1, 2, 17, 100, 127, 128])
def test_eigvalsh_equals_numpy_bitwise(n):
    """The dense norm solve gives numpy's bits, on symmetric matrices and on
    the lower triangle of asymmetric ones, in C order, in Fortran order and
    as a strided view."""
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    strided = rng.standard_normal((2 * n, 3 * n))[::2, 1::3]
    for layout in (A, np.asfortranarray(A), strided):
        for M in (layout, layout + layout.T):
            assert np.array_equal(spectral._eigvalsh(M), np.linalg.eigvalsh(M))


def _dense_route_outputs():
    rng = np.random.default_rng(12)
    profile = VarianceProfile(rng.uniform(0.0, 1.0, (100, 100)))
    norms = concentration_norms(profile, Gaussian(), 6, master_seed=13, threads=2)
    return [spectral_norm(random_symmetric(rng, n)) for n in (1, 3, 64, 128)], norms.tobytes()


def test_dense_route_without_bundled_openblas_gives_the_same_bytes(monkeypatch):
    """Without the bundled library the dense solve is numpy's, with the same bits.
    The lookup also drives the thread pin, so the pin is held from before the
    patch: both runs then form Z @ Z.T on the same number of BLAS threads."""
    with spectral._one_blas_thread():
        expected = _dense_route_outputs()
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
        assert _dense_route_outputs() == expected


@pytest.mark.parametrize("library", ["bundled", "absent"])
def test_dense_route_raises_numerical_error_on_nan(monkeypatch, library):
    if library == "absent":
        monkeypatch.setattr(spectral, "_openblas", lambda: None)
    with pytest.raises(np.linalg.LinAlgError):
        spectral._eigvalsh(np.full((5, 5), np.nan))
    with pytest.raises(NumericalError):
        spectral_norm(np.full((5, 5), np.nan))


def test_dense_route_does_not_call_numpy_with_bundled_openblas(monkeypatch, bundled_openblas):
    """The dense norm solve goes through the bundled LAPACK, not np.linalg.eigvalsh."""
    A = random_symmetric(np.random.default_rng(14), 50)
    expected = float(np.abs(np.linalg.eigvalsh(A)).max())

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert spectral_norm(A) == expected


def _bernoulli_with_constant_rows(p1, p2):
    theta = np.random.default_rng(9).uniform(0.05, 0.95, (p1, p2))
    theta[0] = 0.0
    theta[1] = 1.0  # both rows are identically zero: zero-variance rows
    return VarianceProfile(np.ones((p1, p2))), Bernoulli(theta=theta)


MATRIX_FREE_CASES = {
    "tall": (VarianceProfile(np.ones((2000, 20))), Gaussian()),
    "wide": (VarianceProfile(np.ones((20, 2000))), Gaussian()),
    "square_at_cutoff": (VarianceProfile(np.ones((DENSE_CUTOFF, DENSE_CUTOFF))), Gaussian()),
    "square_above_cutoff":
        (VarianceProfile(np.ones((DENSE_CUTOFF + 1, DENSE_CUTOFF + 1))), Gaussian()),
    "heavy_tail": (VarianceProfile(np.linspace(0.5, 2.0, 300 * 60).reshape(300, 60)),
                   HeavyTail(b=1.5)),
    "bernoulli_zero_variance_rows": _bernoulli_with_constant_rows(300, 40),
}


@pytest.mark.parametrize("case", sorted(MATRIX_FREE_CASES))
def test_replicate_norm_matches_dense_gram(case):
    profile, model = MATRIX_FREE_CASES[case]
    norms = concentration_norms(profile, model, n_reps=3, master_seed=11)
    for rep, value in enumerate(norms):
        Z = sample(profile, model, SampleSeed(11, rep))
        A = centered_operator(Z, profile, model).toarray()
        dense = float(np.abs(np.linalg.eigvalsh(A)).max())
        assert value == pytest.approx(dense, rel=1e-8)


def test_centered_operator_is_centered_gram():
    rng = np.random.default_rng(10)
    profile = VarianceProfile(rng.uniform(0, 1, (7, 5)))
    Z = rng.standard_normal((7, 5))
    op = centered_operator(Z, profile, Gaussian())
    A = Z @ Z.T - np.diag((profile.sigma**2).sum(axis=1))
    assert np.array_equal(op.toarray(), A)
    v = rng.standard_normal(7)
    assert np.allclose(op @ v, A @ v, rtol=1e-12, atol=1e-12)
    assert np.allclose(op @ np.eye(7), A, rtol=1e-12, atol=1e-12)
    assert np.array_equal(scipy.sparse.linalg.aslinearoperator(op) @ v, op @ v)
    with pytest.raises(ParameterError):
        centered_operator(np.zeros((5, 7)), profile, Gaussian())


def test_zero_profile_above_cutoff_is_exactly_zero():
    norms = concentration_norms(VarianceProfile(np.zeros((300, 50))), Gaussian(), 2, master_seed=1)
    assert norms.tolist() == [0.0, 0.0]


def _fallback_inputs():
    profile = VarianceProfile(np.ones((DENSE_CUTOFF + 40, 30)))
    Z = sample(profile, Gaussian(), SampleSeed(3, 0))
    op = centered_operator(Z, profile, Gaussian())
    A = op.toarray()
    return A, op, float(np.abs(np.linalg.eigvalsh(A)).max())


def _never_converges(op, V, tol):
    """A run that ends without a final Ritz pair: the start vector, unconverged."""
    v = V[0].copy()
    return float(v @ (op @ v)), v, False


def _uncertified_eigenpair(op, V, tol):
    vec = np.zeros(op.shape[0])
    vec[0] = 1.0
    return 1.0, vec, True  # ||A e_0 - e_0|| is far above tol * 1


@pytest.mark.parametrize("fake_run", [_never_converges, _uncertified_eigenpair])
def test_dense_fallback_when_lanczos_is_not_certified(monkeypatch, fake_run):
    A, op, dense = _fallback_inputs()
    Y = np.random.default_rng(8).standard_normal((DENSE_CUTOFF + 40, 30))
    Y[:, 0] += np.where(np.arange(Y.shape[0]) % 2 == 0, 2.0, -2.0)
    gram = Y @ Y.T
    signs = np.where(np.linalg.eigh((gram + gram.T) / 2.0)[1][:, -1] >= 0.0, 1, -1)
    calls = []

    def lanczos_run(*args):
        calls.append(args)
        return fake_run(*args)

    monkeypatch.setattr(spectral, "_lanczos_run", lanczos_run)
    assert spectral_norm(A) == dense
    assert spectral_norm(op) == dense
    assert np.array_equal(spectral_cluster(Y), signs)
    # a run that never converges is restarted from its Ritz vector, a bounded number of times
    runs_per_solve = 1 if fake_run is _uncertified_eigenpair else spectral._LANCZOS_RESTARTS + 1
    assert len(calls) == 3 * runs_per_solve


class _CountingOperator:
    """A symmetric matrix seen only through ``shape`` and ``@``; counts products."""

    def __init__(self, A):
        self.A = A
        self.shape = A.shape
        self.calls = 0

    def __matmul__(self, x):
        self.calls += 1
        return self.A @ x


def _linspace_operator(p1, p2):
    profile = VarianceProfile(np.linspace(0.5, 1.5, p1 * p2).reshape(p1, p2))
    return centered_operator(sample(profile, Gaussian(), SampleSeed(12, 0)), profile, Gaussian())


def _clustering_gram():
    rng = np.random.default_rng(13)
    mu = np.zeros(1000)
    mu[0] = 6.0
    instance = ClusteringInstance(n=400, p=1000, mu=mu, labels=rng.choice([-1, 1], size=400),
                                  sigmas=rng.uniform(0.5, 1.5, 1000))
    Y = generate_mixture(instance, SampleSeed(13, 0))
    return Y @ Y.T


AGREEMENT_CASES = {
    "tall_2000x20": lambda: (_linspace_operator(2000, 20), 1e-8),
    "square_300x300": lambda: (_linspace_operator(300, 300), 1e-8),
    "cluster_gram_400x1000": lambda: (_clustering_gram(), CLUSTER_TOL),
}


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_lanczos_pair_agrees_with_arpack(case):
    op, tol = AGREEMENT_CASES[case]()
    n = op.shape[0]
    vals, vecs = scipy.sparse.linalg.eigsh(scipy.sparse.linalg.aslinearoperator(op), k=1, which="LM",
                                           v0=np.full(n, 1.0 / np.sqrt(n)), tol=tol)
    lam, vec = _certified_lanczos_pair(op, tol)
    assert lam == pytest.approx(float(vals[0]), rel=1e-12)
    signs, arpack_signs = np.where(vec >= 0.0, 1, -1), np.where(vecs[:, 0] >= 0.0, 1, -1)
    assert np.array_equal(signs, arpack_signs) or np.array_equal(signs, -arpack_signs)


def test_lanczos_stops_on_an_invariant_subspace():
    """The Krylov space of a rank-30 Gram has at most 32 dimensions (31, and
    one more where roundoff splits its zero eigenvalue), so the solve stops
    there, far below its 128-vector basis, with an exact Ritz pair."""
    Y = np.random.default_rng(8).standard_normal((DENSE_CUTOFF + 40, 30))
    gram = Y @ Y.T
    op = _CountingOperator(gram)
    assert _certified_lanczos_pair(op, CLUSTER_TOL) is not None
    assert op.calls <= Y.shape[1] + 3  # Lanczos steps plus the certificate's product
    dense = np.where(np.linalg.eigh(gram)[1][:, -1] >= 0.0, 1, -1)
    found = spectral_cluster(Y)
    assert np.array_equal(found, dense) or np.array_equal(found, -dense)


def test_lanczos_restarts_on_close_top_eigenvalues():
    """Top two eigenvalues 5e-4 apart, relative, over a bulk up to 0.995: the
    first 128-vector basis does not resolve them, and a restart from its Ritz
    vector does."""
    rng = np.random.default_rng(0)
    n = 400
    eigenvalues = np.concatenate([[1.0, 1.0 - 5e-4], np.linspace(-0.999, 0.995, n - 2)])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * eigenvalues) @ Q.T
    A = (A + A.T) / 2.0
    dense = float(np.abs(np.linalg.eigvalsh(A)).max())
    op = _CountingOperator(A)
    lam, _ = _certified_lanczos_pair(op, 1e-8)
    assert op.calls > spectral._LANCZOS_BASIS + 1
    assert abs(lam) == pytest.approx(dense, rel=1e-8)
    assert spectral_norm(A) == pytest.approx(dense, rel=1e-8)


def _traced_peak(fn):
    """(result, tracemalloc peak in bytes) of fn(), after one warm call."""
    fn()
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_replicate_memory_is_linear_in_the_sample():
    """One 4000 x 20 replicate through ``concentration_norms`` must peak far
    below the 128 MB of a single 4000 x 4000 float array.  The bound is 16 MB;
    the earlier route, which formed the Gram, peaked at 386 MB on this input."""
    profile = VarianceProfile(np.ones((4000, 20)))
    _, peak = _traced_peak(lambda: concentration_norms(profile, Gaussian(), 1, master_seed=5))
    assert peak < 16e6


def test_generate_mixture_shifts_in_place():
    """The mean shift writes into the drawn matrix: the peak stays near one
    n x p array instead of the two that an outer-product shift needs."""
    n, p = 400, 1000
    rng = np.random.default_rng(2)
    mu = np.zeros(p)
    mu[0] = 2.0
    inst = ClusteringInstance(
        n=n, p=p, mu=mu, labels=rng.choice([-1, 1], size=n), sigmas=rng.uniform(0.5, 1.5, p)
    )
    Y, peak = _traced_peak(lambda: generate_mixture(inst, SampleSeed(3, 0)))
    assert peak <= 1.25 * Y.nbytes


def test_heavy_tail_draw_builds_in_place():
    """A heavy-tail draw holds its whole G draw and one row block of H, which
    it finishes in place and copies into G: the peak is near one p1 x p2
    array, not G and H; at b = 1 it holds its one draw."""
    profile = VarianceProfile(np.ones((3000, 100)))
    Z, peak = _traced_peak(lambda: sample(profile, HeavyTail(1.5), SampleSeed(4, 0)))
    assert peak <= 1.25 * Z.nbytes
    Z, peak = _traced_peak(lambda: sample(profile, HeavyTail(1.0), SampleSeed(4, 0)))
    assert peak <= 1.25 * Z.nbytes


def test_rademacher_draw_builds_in_place():
    """A Rademacher draw maps and scales each row block of its integer draws
    into one float output: the peak is that output, not the integers, their
    float copy and the scaled product."""
    profile = VarianceProfile(np.ones((3000, 100)))
    Z, peak = _traced_peak(lambda: sample(profile, ScaledRademacher(), SampleSeed(4, 0)))
    assert peak <= 1.25 * Z.nbytes


@pytest.mark.parametrize("model", [Gaussian(), Bounded(B=2.0)])
def test_draw_scales_by_sigma_in_place(model):
    """A Gaussian or bounded draw is scaled by sigma in place: the peak is
    the one p1 x p2 draw, not the draw and the scaled copy.  At 100 x 100, a
    Monte Carlo replicate's size, the draw is below the 256 KiB from which
    numpy elides the temporary of ``sigma * draw`` by itself."""
    profile = VarianceProfile(np.ones((100, 100)))
    Z, peak = _traced_peak(lambda: sample(profile, model, SampleSeed(4, 0)))
    assert peak <= 1.25 * Z.nbytes


def test_bernoulli_draw_subtracts_theta_in_place():
    """A Bernoulli draw holds its uniform draws and their 0/1 mask, then the
    0/1 floats and the mask; theta is subtracted from those floats in place."""
    profile = VarianceProfile(np.ones((3000, 100)))
    coins = Bernoulli(theta=np.full(profile.shape, 0.3))
    Z, peak = _traced_peak(lambda: sample(profile, coins, SampleSeed(4, 0)))
    assert peak <= 1.25 * Z.nbytes


def test_trace_power_examples():
    rng = np.random.default_rng(6)
    A = random_symmetric(rng, 8)
    assert trace_power(A, 1) == pytest.approx(float(np.trace(A)), rel=1e-12)
    assert trace_power(np.eye(17), 7) == pytest.approx(17.0)
    assert trace_power(np.diag([2.0, -1.0]), 3) == pytest.approx(7.0)
    with pytest.raises(ParameterError):
        trace_power(A, 0)


def test_trace_power_paths_agree():
    rng = np.random.default_rng(7)
    for n in (5, 20, 60):
        A = random_symmetric(rng, n)
        for q in (1, 2, 3, 5, 8):
            a = trace_power(A, q)
            b = float(np.sum(np.linalg.eigvalsh(A) ** q))
            assert a == pytest.approx(b, rel=1e-8)


def test_moment_method_sandwich():
    # for even q: norm <= tr(A^q)^(1/q) <= p^(1/q) * norm
    rng = np.random.default_rng(8)
    for n in (10, 50):
        A = random_symmetric(rng, n)
        norm = spectral_norm(A)
        for q in (2, 4, 8):
            root = trace_power(A, q) ** (1.0 / q)
            assert norm * (1 - 1e-10) <= root <= n ** (1.0 / q) * norm * (1 + 1e-10)
