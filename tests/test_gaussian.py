import math

import numpy as np
import pytest

from dcrep import partitions
from dcrep.gaussian import (CovarianceSpec, bivariate_threshold_exact,
                            correlations3, fully_symmetric_cov, markov_chain_cov,
                            normal_sf, pair_cluster_weight, sheppard_pair,
                            square_on_sphere_cov, square_threshold_law_exact,
                            symmetric_plus_mean_cov, tail_asymptote,
                            threshold_law_mc, zero_threshold_law_3)

from conftest import random_standard_pd


def test_sheppard_values():
    assert sheppard_pair(0.0) == pytest.approx(0.25, abs=1e-15)
    assert sheppard_pair(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pair_cluster_weight(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        sheppard_pair(1.0)
    with pytest.raises(ValueError):
        pair_cluster_weight(-1.0)


def test_sheppard_against_mc():
    a, m = 0.9, 1_000_000
    rng = np.random.default_rng(101)
    z1 = rng.standard_normal(m)
    z2 = a * z1 + math.sqrt(1 - a * a) * rng.standard_normal(m)
    phat = np.mean((z1 > 0) & (z2 > 0))
    se = math.sqrt(phat * (1 - phat) / m)
    assert abs(sheppard_pair(a) - phat) <= 3 * se


def test_zero_threshold_law_3_identity():
    law = zero_threshold_law_3(CovarianceSpec(np.eye(3)))
    assert np.allclose(law.probs, 0.125, atol=1e-15)


def test_zero_threshold_law_3_fully_symmetric():
    law = zero_threshold_law_3(fully_symmetric_cov(3, 0.5))
    assert law.cell("000") == pytest.approx(0.25, abs=1e-14)
    assert law.cell("111") == pytest.approx(0.25, abs=1e-14)


def test_zero_threshold_law_3_symmetry_and_rank2():
    cov = random_standard_pd(np.random.default_rng(5), 3)
    law = zero_threshold_law_3(cov)
    assert law.is_zero_one_symmetric(1e-14)
    # three points on the circle: rank two is fine
    pts = np.array([[1, 0], [math.cos(0.5), math.sin(0.5)], [math.cos(1.1), math.sin(1.1)]])
    law = zero_threshold_law_3(CovarianceSpec.from_points(pts))
    assert law.is_zero_one_symmetric(1e-14)
    assert law.probs.min() >= 0.0


def test_zero_threshold_law_3_markov_vs_mc():
    cov = markov_chain_cov(3, 0.6)
    exact = zero_threshold_law_3(cov)
    mc = threshold_law_mc(cov, 0.0, 1_000_000, seed=7)
    dev = np.abs(mc.probs - exact.probs)
    assert np.all(dev <= 3.0 * mc.stderr + 1e-12)


def test_bivariate_independence_any_h():
    for h in [-1.3, 0.0, 0.7, 2.5]:
        assert bivariate_threshold_exact(0.0, h) == pytest.approx(normal_sf(h) ** 2, rel=1e-12)


def test_bivariate_matches_sheppard_at_zero():
    for a in np.arange(-0.9, 0.95, 0.1):
        a = float(round(a, 10))
        assert abs(bivariate_threshold_exact(a, 0.0) - sheppard_pair(a)) < 1e-9


def test_bivariate_negative_h_reflection():
    # P(X1 > h, X2 > h) + coverage identity at negative thresholds
    a, h = 0.6, -1.2
    val = bivariate_threshold_exact(a, h)
    # complement check: P(both > h) = 1 - 2 P(X1 <= h) + P(both <= h)
    both_below = bivariate_threshold_exact(a, -h)
    assert val == pytest.approx(1 - 2 * (1 - normal_sf(h)) + both_below, abs=1e-10)


def test_bivariate_against_mc():
    a, h, m = 0.7, 1.5, 10_000_000
    rng = np.random.default_rng(31)
    hits = 0
    for _ in range(10):
        z1 = rng.standard_normal(m // 10)
        z2 = a * z1 + math.sqrt(1 - a * a) * rng.standard_normal(m // 10)
        hits += int(np.sum((z1 > h) & (z2 > h)))
    phat = hits / m
    se = math.sqrt(phat * (1 - phat) / m)
    assert abs(bivariate_threshold_exact(a, h) - phat) <= 3 * se


def test_bivariate_monotone_in_h():
    for a in [0.0, 0.3, 0.8]:
        vals = [bivariate_threshold_exact(a, h) for h in np.linspace(-2, 4, 25)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
def test_threshold_mc_refuses_a_non_finite_h_before_any_draw(h, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(partitions, "_count_blocks", no_draws)
    with pytest.raises(ValueError, match="h must be finite"):
        threshold_law_mc(markov_chain_cov(3, 0.4), h, 1000, seed=0)


def test_threshold_mc_marginals():
    for cov, h in [(markov_chain_cov(3, 0.4), 0.8), (fully_symmetric_cov(4, 0.3), -0.5)]:
        law = threshold_law_mc(cov, h, 200_000, seed=13)
        target = normal_sf(h)
        se = math.sqrt(target * (1 - target) / 200_000)
        assert np.all(np.abs(law.marginals() - target) <= 4 * se)


def test_threshold_mc_forbidden_pattern_square():
    law = threshold_law_mc(square_on_sphere_cov(0.6), 0.8, 1_000_000, seed=17)
    assert law.cell("0101") == 0.0
    assert law.cell("1010") == 0.0


def test_threshold_mc_matches_exact_n3():
    cov = fully_symmetric_cov(3, 0.5)
    exact = zero_threshold_law_3(cov)
    mc = threshold_law_mc(cov, 0.0, 400_000, seed=19)
    assert np.all(np.abs(mc.probs - exact.probs) <= 3 * mc.stderr + 1e-12)


def test_tail_asymptote_n1_mills():
    ta = tail_asymptote(CovarianceSpec([[1.0]]), "1", 5.0)
    expected = math.exp(-12.5) / (math.sqrt(2 * math.pi) * 5.0)
    assert ta.value == pytest.approx(expected, rel=1e-12)


def test_tail_asymptote_independent_product():
    ta = tail_asymptote(CovarianceSpec(np.eye(2)), "11", 6.0)
    one = tail_asymptote(CovarianceSpec([[1.0]]), "1", 6.0)
    assert ta.value == pytest.approx(one.value ** 2, rel=1e-12)


def test_tail_asymptote_pair_structure():
    a = 0.5
    ta = tail_asymptote(CovarianceSpec([[1, a], [a, 1]]), "11", 5.0)
    assert ta.quadratic == pytest.approx(2.0 / (1.0 + a), rel=1e-12)
    assert np.allclose(ta.alpha_vector, [1 / (1 + a)] * 2, atol=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.3, 0.6])
def test_tail_ratio_converges(a):
    cov = CovarianceSpec([[1, a], [a, 1]])
    ratios = []
    for h in [5.0, 6.0, 7.0, 8.0]:
        exact = bivariate_threshold_exact(a, h)
        ratios.append(exact / tail_asymptote(cov, "11", h).value)
    assert 0.8 <= ratios[1] <= 1.2
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


def test_tail_asymptote_half_ratio_status():
    # ones-row of the inverse has a zero coordinate at the case-(ii) boundary
    cov = correlations3(0.0, 0.5, 0.5)
    ta = tail_asymptote(cov, "111", 6.0)
    assert ta.status == "half-ratio"
    assert ta.value is None
    assert ta.half_ratio == 0.5


def test_tail_asymptote_pattern_mismatch():
    cov = correlations3(0.05, 0.6825, 0.6825)  # third Savage coordinate negative
    with pytest.raises(ValueError):
        tail_asymptote(cov, "111", 6.0)
    ta = tail_asymptote(cov, "110", 6.0)
    assert ta.status == "ok" and ta.value > 0.0


def test_covariance_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec([[1.0, 1.0], [1.0, 1.0]])  # a12 = 1 rejected
    with pytest.raises(ValueError):
        CovarianceSpec([[1.0, 0.2], [0.3, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        CovarianceSpec([[0.0, 0.0], [0.0, 1.0]])  # zero diagonal
    cov = square_on_sphere_cov(0.7)
    assert cov.rank == 3 and not cov.is_pd and cov.is_standard
    sub = cov.principal([1, 2, 3])
    assert sub.n == 3 and sub.is_pd


@pytest.mark.parametrize("a12, message", [
    (2.0, r"correlations must lie in \[-1, 1\]"),
    (1.0 + 1e-9, r"correlations must lie in \[-1, 1\]"),
    (-2.0, r"correlations must lie in \[-1, 1\]"),
    (1.0, "a.s. equal"),
    (1.0 + 5e-13, "a.s. equal"),
    (1.0 - 5e-13, "a.s. equal"),
], ids=["2", "1+1e-9", "-2", "1", "1+5e-13", "1-5e-13"])
def test_an_off_diagonal_entry_past_1_is_no_correlation(a12, message):
    """Above 1 + ``SYM_TOL`` an entry is out of range; only one within
    ``SYM_TOL`` of 1 makes two coordinates a.s. equal."""
    with pytest.raises(ValueError, match=message):
        CovarianceSpec([[1.0, a12], [a12, 1.0]])


def test_covariance_angles_and_points():
    cov = correlations3(0.5, 0.0, -0.5)
    th = cov.angles
    assert th[0, 1] == pytest.approx(math.pi / 3)
    assert th[0, 2] == pytest.approx(math.pi / 2)
    assert th[1, 2] == pytest.approx(2 * math.pi / 3)
    pts = np.array([[1.0, 0.0], [0.6, 0.8]])
    assert CovarianceSpec.from_points(pts).a[0, 1] == pytest.approx(0.6)


def test_symmetric_plus_mean_cov():
    cov = symmetric_plus_mean_cov(4, 0.0)
    assert cov.is_standard
    assert cov.rank == 3
    assert cov.a[0, 3] == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert np.all(cov.offdiag() >= 0)


def test_square_threshold_law_exact_structure():
    law = square_threshold_law_exact(0.6)
    assert law.cell("0101") == pytest.approx(0.0, abs=1e-15)
    assert law.is_zero_one_symmetric(1e-12)
    assert np.allclose(law.marginals(), 0.5, atol=1e-12)
    # 3-marginal agrees with the trivariate closed form
    sub = zero_threshold_law_3(square_on_sphere_cov(0.6).principal([1, 2, 3]))
    assert np.allclose(law.marginalize([1, 2, 3]).probs, sub.probs, atol=1e-12)


def test_square_threshold_law_vs_mc():
    theta = 0.7
    exact = square_threshold_law_exact(theta)
    mc = threshold_law_mc(square_on_sphere_cov(theta), 0.0, 400_000, seed=23)
    assert np.all(np.abs(mc.probs - exact.probs) <= 4 * mc.stderr + 1e-12)
