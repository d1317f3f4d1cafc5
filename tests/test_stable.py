import math

import numpy as np
import pytest
from scipy import stats

from dcrep.stable import (Corr2DVerdict, SpectralMeasure, StableLinearModel,
                          common_shock_model, corr2d_criterion, corr2d_inequality_mc,
                          corr2d_model, sample_pos_stable, sample_sym_stable,
                          spectral_from_matrix, stable_markov_model,
                          stable_threshold_law_mc, stablegood_integral,
                          subordinator_scale, two_weight_symmetric_model)

M = 100_000


def test_alpha2_is_gaussian():
    x = sample_sym_stable(2.0, 1.0 / math.sqrt(2.0), M, seed=1)
    assert stats.kstest(x, "norm").pvalue > 0.01


def test_alpha1_is_cauchy():
    x = sample_sym_stable(1.0, 1.0, M, seed=2)
    assert stats.kstest(x, "cauchy").pvalue > 0.01
    assert abs(np.median(x)) < 0.02
    # tail mass beyond 10: 1 - (1/2 + arctan(10)/pi)
    tail = 1.0 - (0.5 + math.atan(10.0) / math.pi)
    phat = np.mean(np.abs(x) > 10.0)
    se = math.sqrt(phat * (1 - phat) / M)
    assert abs(phat - 2 * tail) <= 3 * se


@pytest.mark.parametrize("alpha", [0.5, 1.7])
def test_symmetry(alpha):
    x = sample_sym_stable(alpha, 1.0, M, seed=3)
    phat = np.mean(x > 0)
    assert abs(phat - 0.5) <= 3 * math.sqrt(0.25 / M)


def test_parameter_errors():
    with pytest.raises(ValueError):
        sample_sym_stable(0.0, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_sym_stable(2.5, 1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_sym_stable(1.0, -1.0, 10, seed=0)
    with pytest.raises(ValueError):
        sample_pos_stable(1.0, 1.0, 10, seed=0)


def test_pos_stable_strictly_positive():
    s = sample_pos_stable(0.25, 1.0, 1_000_000, seed=4)
    assert s.min() > 0.0


def test_pos_stable_levy_cdf():
    # exponent one half is the inverse-square of a Gaussian
    scale = 2.0
    s = sample_pos_stable(0.5, scale, M, seed=5)
    cdf = lambda x: 2.0 * stats.norm.sf(np.sqrt(scale / x))
    assert stats.kstest(s, cdf).pvalue > 0.01


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3])
def test_subordination_identity(alpha):
    s = sample_pos_stable(alpha / 2.0, subordinator_scale(alpha), M, seed=6)
    g = np.random.default_rng(7).standard_normal(M)
    direct = sample_sym_stable(alpha, 1.0, M, seed=8)
    assert stats.ks_2samp(np.sqrt(s) * g, direct).pvalue > 0.01


def test_convolution_stability():
    # mean of n iid copies, rescaled by n^{1-1/alpha}, is again the same law
    alpha, n = 1.4, 5
    x = sample_sym_stable(alpha, 1.0, M * n, seed=9).reshape(M, n)
    rescaled = x.mean(axis=1) * n ** (1.0 - 1.0 / alpha)
    direct = sample_sym_stable(alpha, 1.0, M, seed=10)
    assert stats.ks_2samp(rescaled, direct).pvalue > 0.01


def test_spectral_from_identity():
    model = StableLinearModel(1.0, np.eye(2))
    meas = spectral_from_matrix(model)
    reps = {tuple(np.round(x, 6)): w for x, w in meas.representatives}
    assert reps == {(1.0, 0.0): 0.5, (0.0, 1.0): 0.5}
    assert sum(w for _, w in meas.atoms) == pytest.approx(2.0)


def test_spectral_common_shock():
    a, alpha = 0.4, 0.8
    meas = spectral_from_matrix(common_shock_model(a, alpha))
    reps = dict((tuple(np.round(x, 9)), w) for x, w in meas.representatives)
    diag = tuple(np.round(np.ones(3) / math.sqrt(3.0), 9))
    assert reps[diag] == pytest.approx((a * math.sqrt(3.0)) ** alpha / 2.0, rel=1e-12)
    axis_w = (1.0 - a ** alpha) / 2.0
    assert reps[(1.0, 0.0, 0.0)] == pytest.approx(axis_w, rel=1e-12)


def test_spectral_markov_chain_atoms():
    meas = spectral_from_matrix(stable_markov_model(0.5, 1.0))
    assert len(meas.representatives) == 3
    assert len(meas.atoms) == 6


def test_spectral_merges_duplicate_directions():
    model = StableLinearModel(1.0, [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    meas = spectral_from_matrix(model)
    reps = {tuple(np.round(x, 6)): w for x, w in meas.representatives}
    assert reps[(1.0, 0.0)] == pytest.approx(1.5)  # 1/2 + 2/2 merged
    with pytest.raises(ValueError):
        spectral_from_matrix(StableLinearModel(1.0, [[1.0, 0.0], [0.0, 0.0]]))


def test_spectral_measure_invariants():
    with pytest.raises(ValueError):
        SpectralMeasure.symmetric([((2.0, 0.0), -1.0)], alpha=1.0, d=2)


def test_symmetric_keeps_the_canonical_sign():
    """``symmetric`` normalizes each direction and keeps the one of +-x whose
    first nonzero coordinate is positive, so -x and x give one measure."""
    minus = SpectralMeasure.symmetric([((0.0, -3.0, 4.0), 0.5), ((-1.0, 0.0, 0.0), 0.25)],
                                      alpha=1.0, d=3)
    plus = SpectralMeasure.symmetric([((0.0, 3.0, -4.0), 0.5), ((1.0, 0.0, 0.0), 0.25)],
                                     alpha=1.0, d=3)
    assert minus == plus
    assert minus.representatives == (((0.0, 0.6, -0.8), 0.5), ((1.0, 0.0, 0.0), 0.25))


def test_atoms_list_each_representative_then_its_mirror():
    meas = spectral_from_matrix(stable_markov_model(0.5, 1.3))
    expect = []
    for x, w in meas.representatives:
        expect += [(x, w), (tuple(-np.asarray(x)), w)]
    assert len(expect) == 6 and meas.atoms == tuple(expect)


@pytest.mark.parametrize("reps, match", [
    ((((-1.0, 0.0), 0.5),), "canonically signed"),
    ((((0.0, -1.0), 0.5),), "canonically signed"),
    ((((1.0, 0.0), 0.5), ((1.0, 0.0), 0.25)), "duplicate"),
    ((((1.0, 0.0), 0.5), ((1.0, 1e-11), 0.25)), "duplicate"),
    ((((2.0, 0.0), 0.5),), "unit sphere"),
    ((((1.0, 0.0, 0.0), 0.5),), "dimensional"),
    ((((1.0, 0.0), 0.0),), "positive"),
    ((((1.0, 0.0), -0.5),), "positive"),
], ids=["negative_first", "negative_second", "duplicate", "duplicate_after_rounding",
        "not_unit", "wrong_dimension", "zero_weight", "negative_weight"])
def test_spectral_measure_refuses_a_bad_representative(reps, match):
    with pytest.raises(ValueError, match=match):
        SpectralMeasure(1.0, 2, reps)


def test_standardization_flag():
    assert common_shock_model(0.4, 0.8).standardized
    assert stable_markov_model(0.6, 1.2).standardized
    assert two_weight_symmetric_model(0.3, 0.2, 1.3).standardized
    assert not StableLinearModel(1.0, [[2.0, 0.0], [0.0, 1.0]]).standardized


def test_threshold_mc_independent_product():
    model = StableLinearModel(1.2, np.eye(3))
    law = stable_threshold_law_mc(model, 0.0, M, seed=11)
    assert np.all(np.abs(law.probs - 0.125) <= 3 * law.stderr + 1e-12)


def test_threshold_mc_refuses_unequal_marginals():
    model = StableLinearModel(1.0, [[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        stable_threshold_law_mc(model, 0.5, M, seed=0)
    stable_threshold_law_mc(model, 0.0, 1000, seed=0)  # h = 0 is fine


def test_corr2d_equality_point():
    # at a = 2^{-1/alpha} and h = 0 the paired cell sits exactly at 1/4
    alpha = 1.0
    model = corr2d_model(2.0 ** (-1.0 / alpha), alpha)
    law = stable_threshold_law_mc(model, 0.0, 1_000_000, seed=12)
    assert abs(law.cell("11") - 0.25) <= 3 * law.stderr[0b11]


def test_corr2d_criterion_arithmetic():
    assert corr2d_criterion(0.5, 1.0) is Corr2DVerdict.ALWAYS_COLOR
    assert corr2d_criterion(0.4, 1.0) is Corr2DVerdict.ALWAYS_COLOR
    assert corr2d_criterion(0.3, 0.5) is Corr2DVerdict.NOT_COLOR_AT_ZERO  # 0.3 > 1/4
    with pytest.raises(ValueError):
        corr2d_criterion(0.5, 2.0)
    with pytest.raises(ValueError):
        corr2d_criterion(1.2, 1.0)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_corr2d_boundary_sign_flip(alpha):
    m = 1_000_000
    boundary = 2.0 ** (-1.0 / alpha)
    for a, expect_positive in [(boundary - 0.05, True), (boundary + 0.05, False)]:
        model = corr2d_model(a, alpha)
        law = stable_threshold_law_mc(model, 0.0, m, seed=13)
        cov = law.cell("11") - 0.25
        se = law.stderr[0b11]
        assert abs(cov) > 4 * se
        assert (cov > 0) == expect_positive


def test_corr2d_inequality_mc_sign():
    val, se = corr2d_inequality_mc(0.3, 1.0, 0.0, 400_000, seed=14)
    assert val > 4 * se
    val, se = corr2d_inequality_mc(0.7, 1.0, 0.0, 400_000, seed=15)
    assert val < -4 * se


def test_stablegood_axes_only():
    meas = SpectralMeasure.symmetric(
        [((1.0, 0.0, 0.0), 0.5), ((0.0, 1.0, 0.0), 0.5), ((0.0, 0.0, 1.0), 0.5)],
        alpha=1.0, d=3)
    val, support = stablegood_integral(meas)
    assert val == 0.0
    assert not support


def test_stablegood_common_shock():
    a, alpha = 0.4, 0.8
    meas = spectral_from_matrix(common_shock_model(a, alpha))
    val, support = stablegood_integral(meas)
    assert val == pytest.approx(a ** alpha, rel=1e-12)
    assert not support  # axis atoms are not interior to the orthants


def test_stablegood_scaling():
    meas = spectral_from_matrix(common_shock_model(0.3, 1.1))
    v1, _ = stablegood_integral(meas)
    scaled = SpectralMeasure.symmetric([(x, 2.5 * w) for x, w in meas.representatives],
                                       alpha=meas.alpha, d=meas.d)
    v2, _ = stablegood_integral(scaled)
    assert v2 == pytest.approx(2.5 * v1, rel=1e-12)


def test_stablegood_full_support_detection():
    meas = SpectralMeasure.symmetric(
        [((1.0, 1.0), 0.3), ((1.0, -1.0), 0.3)], alpha=1.0, d=2)
    val, support = stablegood_integral(meas)
    assert support


def test_model_rejects_identical_rows():
    with pytest.raises(ValueError):
        StableLinearModel(1.0, [[1.0, 0.0], [1.0, 0.0]])


def test_marginal_standardization_mc():
    model = two_weight_symmetric_model(0.3, 0.2, 1.3)
    law = stable_threshold_law_mc(model, 0.0, 200_000, seed=16)
    se = math.sqrt(0.25 / 200_000)
    assert np.all(np.abs(law.marginals() - 0.5) <= 4 * se)


def test_common_shock_law_is_symmetric_at_zero():
    law = stable_threshold_law_mc(common_shock_model(0.5, 0.7), 0.0, 200_000, seed=17)
    flipped = law.probs[::-1]
    se = np.sqrt(law.stderr ** 2 + law.stderr[::-1] ** 2)
    assert np.all(np.abs(law.probs - flipped) <= 3 * se + 1e-12)
