import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from hetwishart import (
    ParameterError,
    SizeGuardError,
    VarianceProfile,
    check_diagonal_deletion,
    check_gaussian_comparison,
    check_paired_moment,
    check_variance_contraction,
    exact_deleted_diagonal_trace_moment,
    exact_trace_moment,
    gaussian_moment,
    heavy_tail_moment,
    homoskedastic_rows,
)
from hetwishart import moment_oracle
from hetwishart.moment_oracle import _shapes, double_factorial


def quad_gaussian_moment(alpha, beta):
    f = lambda x: (x**alpha) * ((x * x - 1.0) ** beta) * norm.pdf(x)
    val, _ = integrate.quad(f, -np.inf, np.inf, limit=200)
    return val


# ---------------------------------------------------------------- moments


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(-3) == -1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    with pytest.raises(ParameterError):
        double_factorial(-5)


def test_gaussian_moment_examples():
    assert gaussian_moment(0, 1) == 0
    assert gaussian_moment(2, 0) == 1
    assert gaussian_moment(4, 0) == 3
    assert gaussian_moment(2, 1) == 2  # E G^4 - E G^2 = 3 - 1
    assert gaussian_moment(1, 3) == 0
    assert gaussian_moment(0, 0) == 1


def test_gaussian_moment_matches_quadrature():
    for alpha in range(0, 11, 2):
        for beta in range(6):
            exact = gaussian_moment(alpha, beta)
            approx = quad_gaussian_moment(alpha, beta)
            assert exact == pytest.approx(approx, rel=1e-8, abs=1e-8)


def test_gaussian_moment_sandwich_exhaustive():
    for alpha in range(0, 11, 2):
        for beta in range(6):
            if alpha + 2 * beta < 2:
                continue
            value = gaussian_moment(alpha, beta)
            lower = double_factorial(alpha + 2 * beta - 3) * (alpha + beta - 1)
            upper = double_factorial(alpha + 2 * beta - 1)
            assert lower <= value <= upper
    # (2, 1) saturates the lower end
    assert gaussian_moment(2, 1) == double_factorial(1) * 2


def test_gaussian_moment_guard():
    with pytest.raises(SizeGuardError):
        gaussian_moment(0, 33)
    with pytest.raises(ParameterError):
        gaussian_moment(-2, 0)


def test_heavy_tail_reduces_to_gaussian_at_b_one():
    for alpha in range(0, 9, 2):
        for beta in range(4):
            assert heavy_tail_moment(alpha, beta, 1.0) == float(gaussian_moment(alpha, beta))
    assert heavy_tail_moment(3, 1, 1.0) == 0.0


def test_heavy_tail_second_moment():
    # E F^2 = E|H|^(2b-2): equals 1 at b = 2
    assert heavy_tail_moment(2, 0, 2.0) == pytest.approx(1.0, rel=1e-12)
    for b in (1.0, 1.5, 2.0, 3.0):
        expected = 2.0 ** (b - 1.0) * math.gamma(b - 0.5) / math.gamma(0.5) - 1.0
        assert heavy_tail_moment(0, 1, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_heavy_tail_matches_2d_quadrature():
    def quad_ht(alpha, beta, b):
        def f(h, g):
            w = g * abs(h) ** (b - 1.0)
            return (w**alpha) * ((w * w - 1.0) ** beta) * norm.pdf(g) * norm.pdf(h)

        val, _ = integrate.dblquad(f, -9, 9, lambda _: -9, lambda _: 9, epsabs=1e-11)
        return val

    for alpha, beta, b in [(2, 0, 1.5), (0, 2, 2.0), (2, 1, 2.0), (4, 0, 1.5)]:
        assert heavy_tail_moment(alpha, beta, b) == pytest.approx(
            quad_ht(alpha, beta, b), rel=1e-7, abs=1e-9
        )


def test_heavy_tail_guards():
    # the order limit is gaussian_moment's exact-integer guard, 64; below it a
    # moment is refused only when it overflows.  (42, 0, 1.5) is 41!! 2^10.5 10! / sqrt(pi)
    with pytest.raises(SizeGuardError, match="= 66 exceeds the exact-arithmetic guard 64"):
        heavy_tail_moment(66, 0, 2.0)
    assert heavy_tail_moment(42, 0, 1.0) == float(gaussian_moment(42, 0))
    assert heavy_tail_moment(42, 0, 1.5) == pytest.approx(
        double_factorial(41) * 2**10.5 * math.factorial(10) / math.sqrt(math.pi), rel=1e-12)
    assert heavy_tail_moment(42, 0, 2.0) == pytest.approx(1.7195261682828942e50, rel=1e-12)
    with pytest.raises(ParameterError):
        heavy_tail_moment(2, 0, 0.5)


@pytest.mark.parametrize("alpha,beta,b", [(2, 0, 170.0), (40, 0, 9.4), (20, 10, 9.4)])
def test_heavy_tail_refuses_a_moment_that_overflows(alpha, beta, b):
    # each overflows a float; the third's terms overflow with both signs
    with pytest.raises(SizeGuardError, match=f"b = {b}, alpha \\+ 2\\*beta = {alpha + 2 * beta}"):
        heavy_tail_moment(alpha, beta, b)


# ---------------------------------------------------------------- trace moments


def closed_form_q2(sigma):
    """E tr A^2 = sum_{i != i'} sum_j s_ij^2 s_i'j^2 + 2 sum_ij s_ij^4."""
    var = np.asarray(sigma, dtype=float) ** 2
    cross = 0.0
    p1 = var.shape[0]
    for i in range(p1):
        for k in range(p1):
            if i != k:
                cross += float(np.sum(var[i] * var[k]))
    return cross + 2.0 * float(np.sum(var**2))


def test_exact_trace_moment_q1_is_zero():
    rng = np.random.default_rng(5)
    for _ in range(5):
        prof = VarianceProfile(rng.uniform(0, 1, size=(3, 2)))
        assert exact_trace_moment(prof, 1) == 0.0


def test_exact_trace_moment_all_ones_2x2():
    assert exact_trace_moment(VarianceProfile(np.ones((2, 2))), 2) == 12.0


def test_exact_trace_moment_homoskedastic_closed_form():
    for m1, m2 in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        prof = VarianceProfile(np.ones((m1, m2)))
        expected = m1 * (m1 - 1) * m2 + 2 * m1 * m2
        assert exact_trace_moment(prof, 2) == pytest.approx(expected, rel=1e-12)


def test_exact_trace_moment_matches_closed_form_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p1, p2 = rng.integers(1, 4, size=2)
        prof = VarianceProfile(rng.uniform(0, 1.5, size=(p1, p2)))
        assert exact_trace_moment(prof, 2) == pytest.approx(
            closed_form_q2(prof.sigma), rel=1e-10
        )


def test_exact_trace_moment_matches_monte_carlo():
    # brute-force check of the oracle on a fixed 2x2 profile, q in {2, 3}
    rng = np.random.default_rng(2024)
    sigma = np.array([[1.0, 0.5], [0.25, 0.75]])
    prof = VarianceProfile(sigma)
    n = 10_000
    Z = rng.standard_normal((n, 2, 2)) * sigma
    gram = Z @ np.transpose(Z, (0, 2, 1))
    centered = gram - np.diag((sigma**2).sum(axis=1))
    for q in (2, 3):
        powers = centered
        for _ in range(q - 1):
            powers = powers @ centered
        traces = np.trace(powers, axis1=1, axis2=2)
        mc_mean = traces.mean()
        mc_se = traces.std(ddof=1) / math.sqrt(n)
        assert abs(exact_trace_moment(prof, q) - mc_mean) <= 4 * mc_se


def _per_cycle_moment(profile, q, deleted=False):
    """Reference: the cycle expansion summed cycle by cycle over all (p1 p2)^q
    closed walks, each walk's edge visits counted here.

    A step u_k -> v_k -> u_{k+1} with u_k = u_{k+1} visits (u_k, v_k) back and
    forth (beta); any other step visits (u_k, v_k) and (u_{k+1}, v_k) once each
    (alpha).  deleted=True gives E tr{(D(ZZ'))^q}: only cycles with
    u_k != u_{k+1} at every step, which have no back-and-forth edges.
    """
    sig = profile.sigma.tolist()
    terms = []
    for u in product(range(profile.p1), repeat=q):
        if deleted and any(u[k] == u[(k + 1) % q] for k in range(q)):
            continue
        for v in product(range(profile.p2), repeat=q):
            s = 1.0
            alpha, beta = {}, {}
            for k in range(q):
                i, j, i_next = u[k], v[k], u[(k + 1) % q]
                s *= sig[i][j] * sig[i_next][j]
                if i == i_next:
                    beta[(i, j)] = beta.get((i, j), 0) + 1
                else:
                    alpha[(i, j)] = alpha.get((i, j), 0) + 1
                    alpha[(i_next, j)] = alpha.get((i_next, j), 0) + 1
            m = 1
            for edge in set(alpha) | set(beta):
                m *= gaussian_moment(alpha.get(edge, 0), beta.get(edge, 0))
            terms.append(s * m)
    return math.fsum(terms)


def test_shape_grouped_evaluation_matches_exactly_on_dyadic_grid():
    # entries in {0, 1/2, 1}: all products and sums are exact in binary
    for entries in product([0.0, 0.5, 1.0], repeat=4):
        prof = VarianceProfile(np.array(entries).reshape(2, 2))
        for q in (2, 3):
            assert exact_trace_moment(prof, q) == _per_cycle_moment(prof, q)
            assert exact_deleted_diagonal_trace_moment(prof, q) == _per_cycle_moment(
                prof, q, deleted=True
            )


def test_shape_grouped_evaluation_matches_on_random_profiles():
    rng = np.random.default_rng(11)
    deep = [(p1, p2, q) for (p1, p2), q in product([(2, 2), (2, 3), (3, 2)], (5, 6, 7))]
    for p1, p2, q in [*product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)), *deep]:
        prof = VarianceProfile(rng.uniform(0, 1, size=(p1, p2)))
        for deleted, engine in ((False, exact_trace_moment), (True, exact_deleted_diagonal_trace_moment)):
            want = _per_cycle_moment(prof, q, deleted)
            assert engine(prof, q) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_all_ones_moments_beyond_the_cycle_guard():
    # (m1 m2)^2 cycles exceed ENUMERATION_GUARD from 100 x 100 on; the all-ones
    # route sums a few shapes with falling factorials, exactly
    for m1, m2 in [(1, 200), (200, 1), (150, 199), (200, 200)]:
        closed = m1 * (m1 - 1) * m2 + 2 * m1 * m2
        assert exact_trace_moment(VarianceProfile(np.ones((m1, m2))), 2) == closed
    # rhs of the comparison: m1 = m2 = 199 + q - 1 = 200
    res = check_gaussian_comparison(VarianceProfile(np.ones((199, 199))), 2)
    assert res.rhs == (199 / 200) * (200 * 199 * 200 + 2 * 200 * 200)
    assert res.lhs == 199 * 198 * 199 + 2 * 199 * 199
    assert res.holds and res.cycles_enumerated == (199 * 199) ** 2 + (200 * 200) ** 2


def test_all_ones_moments_at_q5_and_q6():
    # exact integers, each below 2^53 and so exact as a float
    ones = VarianceProfile(np.ones((50, 50)))
    assert exact_trace_moment(ones, 5) == 105559120000
    assert exact_trace_moment(ones, 6) == 13667853620000
    assert exact_trace_moment(ones, 7) == 1721866212760000
    # above 2^53, but a multiple of 2^6 and so still exact as a float
    assert exact_trace_moment(ones, 8) == 228682609571360000
    assert exact_deleted_diagonal_trace_moment(ones, 5) == 89152560000
    assert exact_deleted_diagonal_trace_moment(ones, 6) == 11335390500000


def test_walk_keeps_the_pinned_shape_counts():
    # edge multisets with a non-zero moment product, with and without the
    # diagonal; they group 9333 and 1555 shapes at q = 7
    kept = {False: [0, 2, 4, 18, 67, 313, 1510], True: [0, 1, 1, 7, 16, 82, 306]}
    for deleted, counts in kept.items():
        assert [len(_shapes(q, q, q, deleted)) for q in range(1, 8)] == counts
    assert sum(count for *_, count in _shapes(7, 7, 7, False)) == 9333
    assert sum(count for *_, count in _shapes(7, 7, 7, True)) == 1555


def test_deleted_records_are_the_records_without_beta():
    for q in range(1, 8):
        for blocks1, blocks2 in product(range(1, q + 1), repeat=2):
            kept = {r for r in _shapes(q, blocks1, blocks2, False) if all(b == 0 for _, _, b in r[0])}
            assert set(_shapes(q, blocks1, blocks2, True)) == kept, (q, blocks1, blocks2)


@pytest.mark.parametrize("q, blocks1, blocks2, deleted, records, shapes", [
    (12, 2, 2, False, 1074, 1980648),
    (12, 2, 2, True, 6, 1024),
    (14, 2, 2, False, 2198, 32587026),
    (9, 3, 3, False, 7973, 450558),
    (9, 3, 3, True, 189, 18598),
])
def test_deep_walks_keep_the_pinned_counts(q, blocks1, blocks2, deleted, records, shapes):
    # the walk merges prefixes by state, so these take seconds, not minutes
    kept = _shapes(q, blocks1, blocks2, deleted)
    assert (len(kept), sum(count for *_, count in kept)) == (records, shapes)


def test_walk_is_refused_at_the_gaussian_order_guard():
    # a 1 x 1 walk only steps back and forth, so its one edge reaches
    # order 66 at step 33, long before q steps
    with pytest.raises(SizeGuardError, match="= 66 exceeds the exact-arithmetic guard 64"):
        exact_trace_moment(VarianceProfile(np.ones((1, 1))), 10**6)


@pytest.mark.parametrize("q, blocks1, blocks2, step", [(10, 3, 3, 8), (9, 4, 3, 7)])
def test_walk_is_refused_past_its_edge_cell_guard(q, blocks1, blocks2, step):
    # both create more edge cells (states times edges) than the pinned (9, 3, 3)
    # walk's 408k or (8, 8, 8)'s 270k
    guard = f"step {step} of q = {q} pass the guard of {moment_oracle._WALK_GUARD} edge cells"
    with pytest.raises(SizeGuardError, match=guard):
        _shapes(q, blocks1, blocks2, False)


def _subfactorial(n):
    value = 1
    for k in range(1, n + 1):
        value = k * value + (-1) ** k
    return value


@pytest.mark.parametrize("q", [28, 30, 32])
@pytest.mark.parametrize("p1, p2", [(1, 2), (2, 1)])
def test_two_entry_ones_profiles_at_high_order(p1, p2, q):
    # 1 x 2: ZZ' - E ZZ' = chi2_2 - 2, and E (chi2_2 - 2)^q = 2^q !q.  2 x 1: zz' - I
    # has eigenvalues chi2_2 - 1 and -1, and E chi2_2^k = 2^k k!.  Deep walks of
    # few states, well inside the walk's guard
    if p1 == 1:
        want = 2**q * _subfactorial(q)
    else:
        want = sum(math.comb(q, k) * 2**k * math.factorial(k) * (-1) ** (q - k)
                   for k in range(q + 1)) + (-1) ** q
    assert exact_trace_moment(VarianceProfile(np.ones((p1, p2))), q) == float(want)


def test_general_profile_sums_each_record_once(monkeypatch):
    calls = []
    labeled_sum = moment_oracle._labeled_sum
    monkeypatch.setattr(moment_oracle, "_labeled_sum", lambda *a: calls.append(a) or labeled_sum(*a))
    exact_trace_moment(VarianceProfile(np.random.default_rng(6).uniform(0, 1, (4, 4))), 6)
    assert len(calls) == len(_shapes(6, 4, 4, False)) == 294


def test_enumeration_guard_names_count():
    # the (40)_L (40)_R labelings of every kept record
    with pytest.raises(SizeGuardError, match="labelings = 22520598400 "):
        exact_trace_moment(VarianceProfile(np.full((40, 40), 0.5)), 5)


def test_general_profile_memory_is_bounded_by_the_block():
    # the 12 x 12, q = 4 moment sums shapes of up to 12*11*10 * 12*11 labelings;
    # summed in one block the evaluation peaks near 15 MB, in _BLOCK blocks near 2.4 MB
    prof = VarianceProfile(np.random.default_rng(4).uniform(0.5, 1.0, size=(12, 12)))
    exact_trace_moment(VarianceProfile(np.full((2, 2), 0.5)), 4)  # warm the shape cache
    tracemalloc.start()
    try:
        exact_trace_moment(prof, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_deleted_diagonal_trace_moment():
    rng = np.random.default_rng(3)
    # single row: no off-diagonal entries at all
    assert exact_deleted_diagonal_trace_moment(VarianceProfile(rng.uniform(0, 1, (1, 4))), 3) == 0.0
    # q = 1: trace of a zero-diagonal matrix
    assert exact_deleted_diagonal_trace_moment(VarianceProfile(rng.uniform(0, 1, (3, 2))), 1) == 0.0
    # 2x1 ones: E 2 (Z1 Z2)^2 = 2
    assert exact_deleted_diagonal_trace_moment(VarianceProfile(np.ones((2, 1))), 2) == 2.0


# ---------------------------------------------------------------- comparisons


def test_gaussian_comparison_zero_profile():
    res = check_gaussian_comparison(VarianceProfile(np.zeros((2, 2))), 2)
    assert res.lhs == 0.0
    assert res.holds


def test_gaussian_comparison_self():
    # all-ones m1 x m2 compared against its own standard-Wishart majorant
    res = check_gaussian_comparison(VarianceProfile(np.ones((2, 3))), 2)
    assert res.holds


def test_gaussian_comparison_rejects_large_sigma_star():
    with pytest.raises(ParameterError):
        check_gaussian_comparison(VarianceProfile(np.full((2, 2), 1.5)), 2)


def test_gaussian_comparison_sample_grid():
    values = [0.0, 0.5, 1.0]
    rng = np.random.default_rng(0)
    for _ in range(10):
        sigma = rng.choice(values, size=(2, 2))
        res = check_gaussian_comparison(VarianceProfile(sigma), 2)
        assert res.holds, sigma


def test_variance_contraction_zero_last_row_is_identity():
    sigma = np.array([[1.0, 0.5], [0.75, 0.25], [0.0, 0.0]])
    res = check_variance_contraction(VarianceProfile(sigma), 2)
    assert res.lhs == res.rhs
    assert res.holds


def test_variance_contraction_binary_grid_sample():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sigma = rng.choice([0.0, 1.0], size=(3, 2))
        res = check_variance_contraction(VarianceProfile(sigma), 2)
        assert res.holds, sigma


def test_variance_contraction_homoskedastic_rows():
    res = check_variance_contraction(homoskedastic_rows((1.0, 1.0, 1.0), 2), 2)
    assert res.holds


def test_variance_contraction_needs_two_rows():
    with pytest.raises(ParameterError):
        check_variance_contraction(VarianceProfile(np.ones((1, 3))), 2)


def test_diagonal_deletion_samples():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sigma = rng.choice([0.0, 1.0], size=(3, 2))
        res = check_diagonal_deletion(VarianceProfile(sigma), 2)
        assert res.holds, sigma
    res = check_diagonal_deletion(VarianceProfile(np.zeros((1, 2))), 2)
    assert res.lhs == 0.0 and res.holds


def test_paired_moment_examples():
    res = check_paired_moment(2, 2, 0, 0, 0)
    assert (res.lhs, res.rhs) == (1.0, 3.0)
    res = check_paired_moment(0, 0, 1, 1, 0)
    assert (res.lhs, res.rhs) == (0.0, 2.0)
    # odd x1 + x5 kills the left side
    res = check_paired_moment(2, 0, 0, 0, 1)
    assert res.lhs == 0.0 and res.holds


@settings(max_examples=200, deadline=None)
@given(st.tuples(*(st.integers(0, 4) for _ in range(5))))
def test_paired_moment_property(xs):
    res = check_paired_moment(*xs)
    assert res.holds
