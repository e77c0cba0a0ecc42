import math

import numpy as np
import pytest

from hetwishart import (
    Bernoulli,
    Bounded,
    Gaussian,
    HeavyTail,
    ParameterError,
    SampleSeed,
    ScaledRademacher,
    VarianceProfile,
    heavy_tail_scale,
    sample,
)
from hetwishart.samplers import MODELS, generator, model_from_json_dict, model_to_json_dict

ALL_SIMPLE_MODELS = [Gaussian(), ScaledRademacher(), Bounded(B=5.0), HeavyTail(b=2.0)]


@pytest.mark.parametrize("model", ALL_SIMPLE_MODELS)
def test_zero_profile_gives_zero_matrix(model):
    prof = VarianceProfile(np.zeros((3, 4)))
    assert np.array_equal(sample(prof, model, SampleSeed(1, 0)), np.zeros((3, 4)))


def test_bernoulli_degenerate_theta_gives_zero_matrix():
    prof = VarianceProfile(np.zeros((2, 2)))
    theta = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = sample(prof, Bernoulli(theta=theta), SampleSeed(1, 0))
    assert np.array_equal(Z, np.zeros((2, 2)))


@pytest.mark.parametrize("model", ALL_SIMPLE_MODELS + [Bernoulli(theta=np.full((3, 4), 0.3))])
def test_determinism_bitwise(model):
    prof = VarianceProfile(np.full((3, 4), 0.5))
    a = sample(prof, model, SampleSeed(12345, 7))
    b = sample(prof, model, SampleSeed(12345, 7))
    assert np.array_equal(a, b)
    c = sample(prof, model, SampleSeed(12345, 8))
    assert not np.array_equal(a, c)


def test_law_of_large_numbers_gaussian():
    prof = VarianceProfile(np.ones((1000, 1000)))
    Z = sample(prof, Gaussian(), SampleSeed(2718, 0))
    assert 0.99 <= float((Z**2).mean()) <= 1.01


def test_mean_zero_each_model():
    prof = VarianceProfile(np.ones((400, 400)))
    for model in ALL_SIMPLE_MODELS:
        Z = sample(prof, model, SampleSeed(31, 0))
        se = float(Z.std()) / 400.0
        assert abs(float(Z.mean())) <= 5 * se


def test_variances_match_declaration():
    prof = VarianceProfile(np.full((500, 500), 0.7))
    n = 500 * 500
    for model in ALL_SIMPLE_MODELS:
        Z = sample(prof, model, SampleSeed(77, 0))
        second = float((Z**2).mean())
        spread = float((Z**2).std(ddof=1)) / math.sqrt(n)
        assert abs(second - 0.49) <= 5 * max(spread, 1e-6), model


def test_rademacher_is_exactly_scaled_signs():
    prof = VarianceProfile(np.full((50, 50), 0.25))
    Z = sample(prof, ScaledRademacher(), SampleSeed(5, 0))
    assert set(np.unique(Z)) == {-0.25, 0.25}


def test_bounded_respects_bound_and_constraint():
    prof = VarianceProfile(np.full((100, 100), 1.0))
    Z = sample(prof, Bounded(B=math.sqrt(3.0)), SampleSeed(6, 0))
    assert float(np.abs(Z).max()) <= math.sqrt(3.0)
    with pytest.raises(ParameterError):
        sample(prof, Bounded(B=1.0), SampleSeed(6, 0))


def test_bernoulli_support_and_dims():
    theta = np.full((20, 30), 0.3)
    prof = VarianceProfile(np.zeros((20, 30)))
    Z = sample(prof, Bernoulli(theta=theta), SampleSeed(8, 0))
    assert set(np.unique(Z)) <= {-0.3, 0.7}
    with pytest.raises(ParameterError):
        sample(VarianceProfile(np.zeros((5, 5))), Bernoulli(theta=theta), SampleSeed(8, 0))


def test_heavy_tail_b1_is_bitwise_gaussian():
    prof = VarianceProfile(np.random.default_rng(0).uniform(0, 1, (30, 40)))
    seed = SampleSeed(99, 3)
    assert np.array_equal(sample(prof, HeavyTail(b=1.0), seed), sample(prof, Gaussian(), seed))


@pytest.mark.parametrize("b", [1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_heavy_tail_draw_is_bitwise_the_out_of_place_formula(b):
    rng = np.random.default_rng(8)
    sigma = rng.uniform(0.0, 2.0, (60, 40))
    sigma[:, 5] = 0.0
    seed = SampleSeed(6, 1)
    draws = generator(seed)
    g = draws.standard_normal(sigma.shape)
    h = draws.standard_normal(sigma.shape)
    expected = sigma * ((g * np.abs(h) ** (b - 1.0)) / heavy_tail_scale(b))
    Z = sample(VarianceProfile(sigma), HeavyTail(b=b), seed)
    assert Z.tobytes() == expected.tobytes()


def test_heavy_tail_scale_values():
    assert heavy_tail_scale(1.0) == 1.0
    assert heavy_tail_scale(2.0) == pytest.approx(1.0, rel=1e-12)
    assert heavy_tail_scale(3.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_independence_smoke():
    # empirical covariance of two distinct entries across replicates
    prof = VarianceProfile(np.ones((2, 2)))
    n = 2000
    a = np.empty(n)
    b = np.empty(n)
    for r in range(n):
        Z = sample(prof, Gaussian(), SampleSeed(4242, r))
        a[r], b[r] = Z[0, 0], Z[1, 1]
    cov = float(np.mean(a * b) - a.mean() * b.mean())
    assert abs(cov) <= 5.0 / math.sqrt(n)


def test_model_json_round_trip():
    models = ALL_SIMPLE_MODELS + [Bernoulli(theta=np.array([[0.25, 0.5]]))]
    for model in models:
        back = model_from_json_dict(model_to_json_dict(model))
        assert type(back) is type(model)
        assert back == model
    with pytest.raises(ParameterError):
        model_from_json_dict({"model": "cauchy"})
    with pytest.raises(ParameterError):
        HeavyTail(b=0.5)


# Reference draws of the Philox stream SampleSeed(2020, 3) on a 3x4 profile,
# bitwise; they pin every model's draw order across refactors.
GOLDEN_SIGMA = np.arange(1, 13, dtype=float).reshape(3, 4) / 8
GOLDEN_DRAWS = {
    "gaussian": (Gaussian(), [
        [-0.34358002036705226, 0.11118682808221764, -0.5610541542739496, -0.7476503920373243],
        [-0.7190944434684864, 0.7851444540506443, 0.14992532352070445, -1.118935166871197],
        [-1.5515796274775804, -0.487065396443474, -0.9090515671773645, -1.885202640497988],
    ]),
    "rademacher": (ScaledRademacher(), [
        [0.125, -0.25, -0.375, -0.5],
        [0.625, 0.75, -0.875, -1.0],
        [-1.125, -1.25, -1.375, -1.5],
    ]),
    "bounded": (Bounded(B=3.0), [
        [-0.16380320730176384, -0.24858894642662663, 0.09742750541252554, -0.7211946527544176],
        [-0.1431617794974642, -1.0552235284535456, -0.34461978321889347, 1.2980675332731688],
        [1.8327979722143388, 1.935162738569799, -0.8395634338024102, 0.7391745951793314],
    ]),
    "bernoulli": (Bernoulli(theta=np.linspace(0.1, 0.9, 12).reshape(3, 4)), [
        [-0.1, -0.17272727272727273, -0.24545454545454548, 0.6818181818181818],
        [-0.390909090909091, 0.5363636363636363, 0.4636363636363636, -0.6090909090909091],
        [-0.6818181818181819, -0.7545454545454546, 0.17272727272727262, 0.09999999999999998],
    ]),
    "heavy_tail": (HeavyTail(b=1.5), [
        [-0.2542799473136814, 0.09825950207318514, -0.391547471704994, -0.47836597290217764],
        [-0.46872874292283984, 0.322326268532509, 0.1613456209808278, -0.5089052355087784],
        [-1.6322432387165404, -0.1400596583557862, -0.662082557420263, -1.006889877847049],
    ]),
}


def test_golden_draws_cover_every_model():
    assert set(GOLDEN_DRAWS) == set(MODELS)


@pytest.mark.parametrize("kind", sorted(GOLDEN_DRAWS))
def test_sample_golden_values(kind):
    model, expected = GOLDEN_DRAWS[kind]
    Z = sample(VarianceProfile(GOLDEN_SIGMA), model, SampleSeed(2020, 3))
    assert np.array_equal(Z, np.array(expected))


def _in_row_blocks(draw, rng, shape, rows):
    """draw(rng, block shape) over consecutive blocks of ``rows`` rows."""
    return np.concatenate([draw(rng, (min(rows, shape[0] - start), shape[1]))
                           for start in range(0, shape[0], rows)])


@pytest.mark.parametrize("shape, rows", [((3000, 100), 81), ((3000, 100), 7), ((5, 3), 1)])
def test_philox_draws_continue_across_row_blocks(shape, rows):
    """The blockwise draws rest on this: block after block from one Philox
    generator gives the whole-grid draw, for integers (two to a 64-bit word,
    so a 1 x 3 block leaves half a word for the next) and for normals."""
    for draw in (lambda rng, size: rng.integers(0, 2, size=size),
                 lambda rng, size: rng.standard_normal(size)):
        whole = draw(generator(SampleSeed(8, 1)), shape)
        assert np.array_equal(whole, _in_row_blocks(draw, generator(SampleSeed(8, 1)), shape, rows))


@pytest.mark.parametrize("shape", [(3000, 100), (5, 3), (2, 9000)])
def test_blockwise_draws_equal_the_whole_grid_formulas(shape):
    """The Rademacher and heavy-tail draws, made in row blocks (many, one,
    and one row each for the 2 x 9000 grid), are bitwise the formulas on
    whole-grid draws."""
    sigma = np.random.default_rng(3).uniform(0.0, 2.0, size=shape)
    profile, seed = VarianceProfile(sigma), SampleSeed(2020, 3)
    rng = generator(seed)
    signs = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    assert np.array_equal(sample(profile, ScaledRademacher(), seed), sigma * signs)
    for b in (1.5, 2.3):
        rng = generator(seed)
        g, h = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = sigma * (g * np.abs(h) ** (b - 1.0) / heavy_tail_scale(b))
        assert np.array_equal(sample(profile, HeavyTail(b), seed), expected)
