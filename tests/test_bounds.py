import math

import numpy as np
import pytest

from hetwishart import (
    ParameterError,
    ProfileSummary,
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


def test_constants_match_displayed_formulas():
    for eps1 in (0.1, math.e - 1.0, 3.0):
        K = math.ceil(1.0 / math.log(1.0 + eps1))
        assert c1_constant(eps1) == 10.0 * (1.0 + eps1) * math.sqrt(K)
        for eps2 in (0.1, 1.0):
            assert c2_constant(eps1, eps2) == (1.0 + eps1) * K * (25.0 / eps2 + 24.0)
    with pytest.raises(ParameterError):
        c1_constant(0.0)
    with pytest.raises(ParameterError):
        c2_constant(0.1, -1.0)


def test_gaussian_upper_bound_worked_value():
    s = ProfileSummary(1.0, 1.0, 1.0, 3)
    e = math.e
    report = gaussian_upper_bound(s, math.e - 1.0, 1.0)
    expected = e * (4.0 + 10.0 * e * math.sqrt(math.log(3.0)) + 49.0 * e * math.log(3.0))
    assert report.value == pytest.approx(expected, rel=1e-12)
    assert report.params["C1"] == pytest.approx(10.0 * e)
    assert report.params["C2"] == pytest.approx(49.0 * e)


def test_gaussian_upper_bound_degenerate_cases():
    # sigma_* = 0 kills the log terms
    s = ProfileSummary(2.0, 3.0, 0.0, 50)
    report = gaussian_upper_bound(s, 0.5, 0.25)
    assert report.value == pytest.approx(1.5 * (2 * 2 * 3 + 1.25 * 4), rel=1e-12)
    # p1 ^ p2 = 1: log 1 = 0, same degenerate form
    s1 = ProfileSummary(2.0, 3.0, 1.0, 1)
    report1 = gaussian_upper_bound(s1, 0.5, 0.25)
    assert report1.value == pytest.approx(1.5 * (12 + 1.25 * 4), rel=1e-12)


def test_reports_sum_their_terms():
    s = ProfileSummary(1.5, 2.5, 0.75, 12)
    for report in [
        gaussian_upper_bound(s, 0.3, 0.7),
        *baseline_bounds(s, 9),
        unified_bound(s, "sub_gaussian"),
        lower_bound_rate(s, 12, 20),
        structured_rates("rows", [1.0, 0.5], 7),
    ]:
        if report.bound_id == "symmetrization":
            assert report.value == report.terms["square_root"] ** 2
        elif report.bound_id.startswith("unified"):
            assert report.value == report.params["c0"] * report.terms["inner"]
        else:
            assert report.value == sum(report.terms.values())
        assert report.value >= 0.0


def test_baseline_bounds():
    s = ProfileSummary(1.0, 1.0, 0.0, 10)
    sym, _ = baseline_bounds(s, 10)
    assert sym.value == pytest.approx(4.0)

    s1 = ProfileSummary(1.0, 1.0, 1.0, 1)
    _, tropp = baseline_bounds(s1, 1)
    assert tropp.value == 0.0

    s2 = ProfileSummary(2.0, 3.0, 1.0, 8)
    sym2, tropp2 = baseline_bounds(s2, 8)
    assert sym2.value == pytest.approx((2 + 3 + math.sqrt(math.log(8))) ** 2, rel=1e-12)
    assert tropp2.value == pytest.approx(
        6 * math.sqrt(math.log(8)) + 4 * math.log(8) ** 2, rel=1e-12
    )


def test_unified_bound_families():
    s = ProfileSummary(2.0, 3.0, 0.0, 16)
    assert unified_bound(s, "sub_gaussian").value == pytest.approx((2 + 3) ** 2 - 9)

    # alpha = 2 makes the heavy-tail exponent vanish: same K as sub-Gaussian
    s2 = ProfileSummary(2.0, 3.0, 0.5, 16)
    heavy = unified_bound(s2, "heavy_tail", alpha=2.0, p_max=64)
    sub = unified_bound(s2, "sub_gaussian")
    assert heavy.terms["K"] == pytest.approx(sub.terms["K"], rel=1e-12)

    # alpha = 1 on a square grid: K = sigma_* log(p)
    s3 = ProfileSummary(2.0, 3.0, 0.5, 9)
    heavy1 = unified_bound(s3, "heavy_tail", alpha=1.0, p_max=9)
    assert heavy1.terms["K"] == pytest.approx(0.5 * math.log(9), rel=1e-12)

    bounded = unified_bound(s2, "bounded", B=2.0)
    assert bounded.terms["K"] == pytest.approx(2.0 * math.sqrt(math.log(16)), rel=1e-12)
    bern = unified_bound(s2, "bernoulli")
    assert bern.params["B"] == 1.0
    gauss = unified_bound(s2, "gaussian")
    assert (gauss.value, gauss.terms) == (sub.value, sub.terms)
    assert gauss.params == {"family": "gaussian", "c0": 1.0}

    with pytest.raises(ParameterError):
        unified_bound(s2, "heavy_tail")  # missing alpha / p_max
    with pytest.raises(ParameterError):
        unified_bound(s2, "bounded")  # missing B
    with pytest.raises(ParameterError):
        unified_bound(s2, "levy")
    with pytest.raises(ParameterError, match="unknown family"):
        unified_bound(s2, ["gaussian"])

    # an alias family is named as asked, with the value of the family it aliases
    rad = unified_bound(s2, "rademacher")
    assert (rad.bound_id, rad.value) == ("unified_rademacher", sub.value)
    assert bern.bound_id == "unified_bernoulli"


def test_moment_and_tail():
    s = ProfileSummary(1.0, 2.0, 0.5, 7)
    assert moment_and_tail(s, 2.0, 0.0, 1.0).terms["tail_prob"] == 1.0

    s0 = ProfileSummary(1.0, 2.0, 0.0, 7)
    assert moment_and_tail(s0, 5.0, 1.0, 1.0).value == pytest.approx((1 + 2) ** 2 - 1)

    s1 = ProfileSummary(1.0, 1.0, 1.0, 2)
    assert moment_and_tail(s1, 4.0, 0.0, 1.0).value == pytest.approx(15.0)

    # at b = log(p1 ^ p2) the maximum is inactive: same as the b-free expression
    sx = ProfileSummary(1.5, 2.0, 0.75, 20)
    at_crossover = moment_and_tail(sx, math.log(20), 0.0, 1.0).value
    free = (sx.sigma_C + sx.sigma_R + sx.sigma_star * math.sqrt(math.log(20))) ** 2 - sx.sigma_C**2
    assert at_crossover == free

    mt = moment_and_tail(sx, 2.0, 1.5, 10.0)
    assert mt.terms["tail_prob"] == pytest.approx(math.exp(-2.25))
    expected = 10.0 * (
        (sx.sigma_C + sx.sigma_R + sx.sigma_star * math.sqrt(math.log(20)) + 1.5) ** 2
        - sx.sigma_C**2
    )
    assert mt.terms["tail_threshold"] == pytest.approx(expected, rel=1e-12)


def test_structured_rates():
    p, n = 30, 100
    rows = structured_rates("rows", np.ones(p), n)
    assert rows.value == pytest.approx(p + math.sqrt(n * p), rel=1e-12)

    cols = structured_rates("columns", np.ones(7), 5)
    assert cols.value == pytest.approx(math.sqrt(5 * 7) + 5, rel=1e-12)

    assert structured_rates("rows", np.zeros(4), 9).value == 0.0
    with pytest.raises(ParameterError):
        structured_rates("diagonal", np.ones(3), 2)


def test_lower_bound_rate():
    s = ProfileSummary(1.0, 1.0, 1.0, 1)
    assert lower_bound_rate(s, 1, 1).value == pytest.approx(2.0)

    p = 16
    sp = ProfileSummary(math.sqrt(p), math.sqrt(p), 1.0, p)
    expected = p + p + math.sqrt(p * math.log(p)) + math.log(p)
    assert lower_bound_rate(sp, p, p).value == pytest.approx(expected, rel=1e-12)

    with pytest.raises(ParameterError):
        lower_bound_rate(ProfileSummary(1.0, 1.0, 2.0, 4), 4, 4)
    with pytest.raises(ParameterError):
        lower_bound_rate(ProfileSummary(4.0, 1.0, 1.0, 4), 4, 4)  # sigma_C/sqrt(p1) = 2 > sigma_*


def test_clustering_rates():
    r = clustering_rates(1.0, 100, 0.0, 0.0)
    assert r.upper_rate == 0.0 and r.snr_threshold == 0.0

    p, n = 256, 16
    r2 = clustering_rates(1.0, n, 1.0, p**0.25)
    assert r2.snr_threshold == pytest.approx(max(1.0, (p / n) ** 0.25), rel=1e-12)

    rates = [clustering_rates(mu, 50, 1.0, 2.0).upper_rate for mu in (0.5, 1.0, 4.0, 16.0, 256.0)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 0.01
    assert rates[0] <= 1.0

    with pytest.raises(ParameterError):
        clustering_rates(0.0, 50, 1.0, 1.0)


def test_bounds_monotone_in_each_scale():
    base = (1.0, 1.2, 0.6)
    deltas = (0.0, 0.15, 0.3)
    p_min, p2 = 9, 12

    def reports(sc, sr, ss):
        s = ProfileSummary(sc, sr, ss, p_min)
        sym, tropp = baseline_bounds(s, p2)
        return [
            gaussian_upper_bound(s, 0.2, 0.3).value,
            sym.value,
            tropp.value,
            unified_bound(s, "sub_gaussian").value,
            moment_and_tail(s, 3.0, 1.0, 1.0).value,
            moment_and_tail(s, 3.0, 1.0, 1.0).terms["tail_threshold"],
        ]

    for axis in range(3):
        prev = None
        for d in deltas:
            point = list(base)
            point[axis] += d
            values = reports(*point)
            if prev is not None:
                assert all(v >= p - 1e-12 for v, p in zip(values, prev))
            prev = values

    # lower-bound rate: perturb inside the admissible region
    prev = None
    for d in deltas:
        s = ProfileSummary(1.0 + d, 1.2, 0.8, 4)
        value = lower_bound_rate(s, 4, 16).value
        if prev is not None:
            assert value >= prev - 1e-12
        prev = value
