import json
import math

import numpy as np
import pytest

from hetwishart import (
    ParameterError,
    ProfileSummary,
    VarianceProfile,
    homoskedastic_columns,
    homoskedastic_rows,
    lower_bound_profile,
    lower_bound_rate,
    profile_from_json,
    profile_to_json,
    summarize,
)
from hetwishart.profiles import _finite, _integer, _Table


def test_summarize_all_ones_4x9():
    s = summarize(VarianceProfile(np.ones((4, 9))))
    assert s.sigma_C == 2.0
    assert s.sigma_R == 3.0
    assert s.sigma_star == 1.0
    assert s.p_min == 4


def test_summarize_zero_profile():
    s = summarize(VarianceProfile(np.zeros((3, 7))))
    assert (s.sigma_C, s.sigma_R, s.sigma_star) == (0.0, 0.0, 0.0)


def test_summarize_block_profile():
    # ones on a 2x3 top-left block of a 4x4 grid
    sigma = np.zeros((4, 4))
    sigma[:2, :3] = 1.0
    s = summarize(VarianceProfile(sigma))
    assert s.sigma_C == pytest.approx(math.sqrt(2.0), abs=0)
    assert s.sigma_R == pytest.approx(math.sqrt(3.0), abs=0)
    assert s.sigma_star == 1.0


def test_homoskedastic_rows():
    prof = homoskedastic_rows((1.0, 2.0), 3)
    assert prof.shape == (2, 3)
    assert np.array_equal(prof.sigma, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])

    zero = homoskedastic_rows((0.0,), 5)
    assert np.array_equal(zero.sigma, np.zeros((1, 5)))

    s = summarize(homoskedastic_rows(np.ones(4), 9))
    assert (s.sigma_C, s.sigma_R, s.sigma_star) == (2.0, 3.0, 1.0)


def test_homoskedastic_columns():
    prof = homoskedastic_columns((3.0, 4.0), 2)
    assert np.array_equal(prof.sigma, [[3.0, 4.0], [3.0, 4.0]])
    s = summarize(prof)
    assert s.sigma_R == pytest.approx(5.0)  # sqrt(9 + 16)

    t = homoskedastic_rows((3.0, 4.0), 2).transpose()
    assert np.array_equal(prof.sigma, t.sigma)


def test_validation_errors():
    with pytest.raises(ParameterError):
        VarianceProfile(np.array([[-1.0]]))
    with pytest.raises(ParameterError):
        VarianceProfile(np.array([[np.inf]]))
    with pytest.raises(ParameterError):
        homoskedastic_rows((1.0, -2.0), 3)
    with pytest.raises(ParameterError):
        homoskedastic_columns((1.0,), 0)


def test_profile_is_immutable():
    prof = VarianceProfile(np.ones((2, 2)))
    with pytest.raises(ValueError):
        prof.sigma[0, 0] = 5.0


def test_lower_bound_single_column():
    prof = lower_bound_profile(
        "single_column", sigma_star=1.0, sigma_C=2.0, sigma_R=1.0, p1=4, p2=4
    )
    expected = np.zeros((4, 4))
    expected[:, 0] = 1.0  # sigma_C / sqrt(p1) = 1
    assert np.allclose(prof.sigma, expected)


def test_lower_bound_block():
    prof = lower_bound_profile(
        "block", sigma_star=1.0, sigma_C=math.sqrt(2), sigma_R=math.sqrt(3), p1=4, p2=4
    )
    expected = np.zeros((4, 4))
    expected[:2, :3] = 1.0  # k1 = 2, k2 = 3
    assert np.array_equal(prof.sigma, expected)


def test_lower_bound_block_diagonal_degenerates_to_identity():
    prof = lower_bound_profile(
        "block_diagonal", sigma_star=1.0, sigma_C=1.0, sigma_R=1.0, p1=4, p2=4
    )
    assert np.array_equal(prof.sigma, np.eye(4))


def test_lower_bound_admissibility_errors_name_inequality():
    with pytest.raises(ParameterError, match="sigma_star > min"):
        lower_bound_profile("block", sigma_star=2.0, sigma_C=1.0, sigma_R=1.0, p1=4, p2=4)
    with pytest.raises(ParameterError, match="sigma_C/sqrt"):
        lower_bound_profile("block", sigma_star=0.2, sigma_C=2.0, sigma_R=1.0, p1=4, p2=4)
    with pytest.raises(ParameterError, match="sigma_R/sqrt"):
        lower_bound_profile("block", sigma_star=0.2, sigma_C=0.3, sigma_R=1.0, p1=100, p2=4)


def _accepts(fn) -> bool:
    try:
        fn()
    except ParameterError:
        return False
    return True


# (sigma_C, sigma_R, p1, p2, edge): on a 4 x 9 grid, sigma_* may range from
# the binding lower edge max(sigma_C/2, sigma_R/3) up to min(sigma_C, sigma_R)
ADMISSIBILITY_EDGES = {
    "upper": (2.0, 3.0, 4, 9, 2.0),
    "column": (2.0, 1.5, 4, 9, 1.0),
    "row": (1.5, 3.0, 4, 9, 1.0),
}


@pytest.mark.parametrize("which", sorted(ADMISSIBILITY_EDGES))
def test_lower_bound_rate_and_profile_share_the_admissibility_rule(which):
    """Just inside and just outside each inequality, the _REL_SLACK margin
    included, the rate and the adversarial profiles accept the same tuples."""
    sigma_c, sigma_r, p1, p2, edge = ADMISSIBILITY_EDGES[which]
    sign = 1.0 if which == "upper" else -1.0
    for offset, inside in [(-0.5, True), (0.0, True), (0.5e-12, True), (2e-12, False), (0.5, False)]:
        sigma_star = edge * (1.0 + sign * offset)
        rate = _accepts(lambda: lower_bound_rate(
            ProfileSummary(sigma_c, sigma_r, sigma_star, min(p1, p2)), p1, p2))
        for kind in ("single_column", "block", "block_diagonal"):
            prof = _accepts(lambda: lower_bound_profile(
                kind, sigma_star=sigma_star, sigma_C=sigma_c, sigma_R=sigma_r, p1=p1, p2=p2))
            assert (rate, prof) == (inside, inside), (which, offset, kind)


@pytest.mark.parametrize("kind", ["single_column", "block", "block_diagonal"])
def test_lower_bound_stays_within_budget(kind):
    budgets = [
        (1.0, 2.0, 3.0, 16, 25),
        (0.5, 1.5, 1.0, 9, 10),
        (1.0, 1.0, 1.0, 4, 4),
    ]
    for sigma_star, sigma_c, sigma_r, p1, p2 in budgets:
        if sigma_star < max(sigma_c / math.sqrt(p1), sigma_r / math.sqrt(p2)):
            continue
        prof = lower_bound_profile(
            kind, sigma_star=sigma_star, sigma_C=sigma_c, sigma_R=sigma_r, p1=p1, p2=p2
        )
        s = summarize(prof)
        tol = 1e-12
        assert s.sigma_C <= sigma_c * (1 + tol)
        assert s.sigma_R <= sigma_r * (1 + tol)
        assert s.sigma_star <= sigma_star * (1 + tol)


def test_summary_invariants_random_profiles():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        p1, p2 = rng.integers(1, 7, size=2)
        prof = VarianceProfile(rng.uniform(0, 2, size=(p1, p2)))
        s = summarize(prof)
        # each column/row sum dominates its largest entry
        assert s.sigma_star <= s.sigma_C + 1e-12
        assert s.sigma_star <= s.sigma_R + 1e-12
        assert s.sigma_C <= math.sqrt(p1) * s.sigma_star + 1e-12
        assert s.sigma_R <= math.sqrt(p2) * s.sigma_star + 1e-12

        # transposition swaps sigma_C and sigma_R
        st = summarize(prof.transpose())
        assert st.sigma_C == s.sigma_R and st.sigma_R == s.sigma_C

        # permutation invariance
        pr = prof.sigma[rng.permutation(p1), :][:, rng.permutation(p2)]
        sp = summarize(VarianceProfile(pr))
        assert sp == s


def test_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(99)
    prof = VarianceProfile(rng.uniform(0, 1, size=(3, 5)))
    back = profile_from_json(profile_to_json(prof))
    assert np.array_equal(prof.sigma, back.sigma)


def test_json_generator_forms():
    rows = profile_from_json(json.dumps(
        {"kind": "homoskedastic_rows", "sigmas": [1.0, 2.0], "other_dim": 3}
    ))
    assert np.array_equal(rows.sigma, homoskedastic_rows((1.0, 2.0), 3).sigma)

    lb = profile_from_json(json.dumps({
        "kind": "lower_bound",
        "variant": "single_column",
        "params": {"sigma_star": 1.0, "sigma_C": 2.0, "sigma_R": 1.0, "p1": 4, "p2": 4},
    }))
    assert lb.sigma[0, 0] == 1.0

    with pytest.raises(ParameterError):
        profile_from_json('{"kind": "nope"}')
    with pytest.raises(ParameterError):
        profile_from_json("not json")
    with pytest.raises(ParameterError, match="NaN is not a finite number"):
        profile_from_json('{"kind": "explicit", "sigma": [[NaN]]}')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5, "x", None, 10**400, [0.5],
                                   "0.5", True, {"v": 0.5}])
def test_finite_rejects_what_is_not_one_finite_number_in_range(value):
    with pytest.raises(ParameterError):
        _finite(value, "v", 0.0)


def test_finite_converts_and_checks_the_range_and_shape():
    assert _finite(1, "v", 0.0, 1.0) == 1.0 and type(_finite(1, "v")) is float
    assert type(_finite(np.float64(2.0), "v")) is float
    assert _finite(0.0, "v", 0.0) == 0.0
    with pytest.raises(ParameterError, match=r"\(0, 2\]"):
        _finite(0.0, "v", 0.0, 2.0, open_low=True)
    assert np.array_equal(_finite([[1, 2]], "v", ndim=2), np.array([[1.0, 2.0]]))
    for bad in ([], [[0.5]], [0.5, math.nan]):
        with pytest.raises(ParameterError):
            _finite(bad, "v", 0.0, ndim=1)


@pytest.mark.parametrize("value,ndim", [([0.5, True], 1), ((False, 0.5), 1), ([[0.5, 1], [0.5, True]], 2),
                                        ([[0.25, 0.5], (0.5, False)], 2), ([1, True], 1)])
def test_finite_rejects_a_bool_among_numbers(value, ndim):
    with pytest.raises(ParameterError, match="^v must be numeric$"):
        _finite(value, "v", 0.0, ndim=ndim)


def test_finite_does_not_scan_an_ndarray():
    # numpy has already read the bool as 1.0: the array is the caller's own
    assert np.array_equal(_finite(np.array([0.5, True]), "v", ndim=1), [0.5, 1.0])
    assert np.array_equal(_finite([np.array([0.5, True])], "v", ndim=2), [[0.5, 1.0]])


def test_integer_is_exact_and_not_a_bool():
    assert _integer(2**64 + 1, "seed") == 2**64 + 1  # above 2^53: never through float
    assert type(_integer(np.int64(3), "v")) is int and _integer(3.0, "v", 1) == 3
    assert type(_integer(np.float64(4.0), "v")) is int
    for bad in (2.5, True, np.bool_(True), "3", None, math.nan, math.inf, [3]):
        with pytest.raises(ParameterError, match="must be an integer"):
            _integer(bad, "v")
    with pytest.raises(ParameterError, match=r"v must be >= 1, got 0"):
        _integer(0, "v", 1)


def test_table_lookup_of_an_unknown_or_unhashable_name():
    table = _Table("thing", {"b": 2, "a": 1})
    assert table["a"] == 1 and dict(table) == {"a": 1, "b": 2}
    for name in ("c", ["a"], {"a": 1}, None, 1):
        with pytest.raises(ParameterError) as err:
            table[name]
        assert str(err.value) == f"unknown thing {name!r}; expected one of ['a', 'b']"
