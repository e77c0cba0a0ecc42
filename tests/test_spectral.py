import numpy as np
import pytest

from hetwishart import (
    ContractError,
    Gaussian,
    ParameterError,
    VarianceProfile,
    centered_gram,
    spectral_norm,
    trace_power,
)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2.0


def test_centered_gram_zero_matrix():
    prof = VarianceProfile(np.ones((3, 4)))
    A = centered_gram(np.zeros((3, 4)), prof, Gaussian())
    assert np.array_equal(A, -4.0 * np.eye(3))

    zero_prof = VarianceProfile(np.zeros((3, 4)))
    assert np.array_equal(centered_gram(np.zeros((3, 4)), zero_prof, Gaussian()), np.zeros((3, 3)))


def test_centered_gram_scalar_case():
    prof = VarianceProfile(np.ones((1, 1)))
    z = 1.7
    A = centered_gram(np.array([[z]]), prof, Gaussian())
    assert A[0, 0] == pytest.approx(z * z - 1.0)


def test_centered_gram_diagonal_and_symmetry():
    rng = np.random.default_rng(1)
    prof = VarianceProfile(rng.uniform(0, 1, (6, 9)))
    Z = rng.standard_normal((6, 9)) * prof.sigma
    A = centered_gram(Z, prof, Gaussian())
    assert np.array_equal(A, A.T)
    expected_diag = (Z**2).sum(axis=1) - (prof.sigma**2).sum(axis=1)
    assert np.allclose(np.diag(A), expected_diag, rtol=1e-12)


def test_centered_gram_dim_mismatch():
    with pytest.raises(ParameterError):
        centered_gram(np.zeros((2, 2)), VarianceProfile(np.ones((3, 4))), Gaussian())


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
        assert spectral_norm(A, tol=tol) == pytest.approx(dense, rel=tol)


def test_spectral_norm_rejects_asymmetric_and_bad_tol():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        spectral_norm(A)
    with pytest.raises(ParameterError):
        spectral_norm(np.eye(2), tol=0.5)
    with pytest.raises(ParameterError):
        spectral_norm(np.eye(2), tol=0.0)


def test_spectral_norm_zero_matrix_large():
    assert spectral_norm(np.zeros((128, 128))) == 0.0


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
