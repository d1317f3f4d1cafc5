import math

import numpy as np
import pytest

from dcrep.asymptotics import (alt_example_constants, fully_symmetric_kappa_argument,
                               gamma_factor, markov_kappa_argument,
                               phase_transition_alpha, small_h_limits_3,
                               small_h_positive_families, stable_limit_report,
                               stable_order1_limit, stable_order2_limit_101_markov,
                               stable_order2_limit_101_symmetric,
                               stable_order2_limits_101_symmetric)
from dcrep.gaussian import (CovarianceSpec, correlations3, fully_symmetric_cov, markov_chain_cov,
                            zero_threshold_law_3)
from dcrep.partitions import PartitionDistribution, _column_keys, push_forward
from dcrep.reports import Verdict
from dcrep.solver import signed_rep_3, symmetric_rep_family_3
from dcrep.stable import (SpectralMeasure, common_shock_model, spectral_from_matrix,
                          stable_markov_model)

from conftest import random_standard_pd


def test_small_h_identity_matrix():
    lims = small_h_limits_3(CovarianceSpec(np.eye(3)))
    assert lims.kappa == pytest.approx(0.5, abs=1e-14)
    assert lims.weights["1|2|3"] == pytest.approx(1.0, abs=1e-12)
    for key in ("12|3", "13|2", "1|23", "123"):
        assert lims.weights[key] == pytest.approx(0.0, abs=1e-12)


def test_small_h_paper_examples():
    lims = small_h_limits_3(correlations3(0.05, 0.6825, 0.6825))
    assert lims.weights["12|3"] == pytest.approx(-0.05, abs=2e-3)
    assert lims.verdict() is Verdict.NO_COLOR_REP
    lims = small_h_limits_3(correlations3(0.1, 0.5, 0.5))
    assert lims.weights["12|3"] == pytest.approx(-0.016, abs=2e-3)
    assert lims.verdict() is Verdict.NO_COLOR_REP


def test_small_h_sums_to_one_on_random_matrices(rng):
    for _ in range(300):
        cov = random_standard_pd(rng, 3)
        lims = small_h_limits_3(cov)
        assert sum(lims.weights.values()) == pytest.approx(1.0, abs=1e-10)


def test_small_h_decoupled_limit():
    lims = small_h_limits_3(correlations3(1e-9, 1e-9, 1e-9))
    assert lims.weights["1|2|3"] == pytest.approx(1.0, abs=1e-4)
    for key in ("12|3", "13|2", "1|23", "123"):
        assert lims.weights[key] == pytest.approx(0.0, abs=1e-4)


def test_small_h_families_positive():
    for a, lims, positive in small_h_positive_families("fully-symmetric",
                                                       np.linspace(0.05, 0.95, 19)):
        assert positive, (a, lims.weights)
    for a, lims, positive in small_h_positive_families("markov",
                                                       np.linspace(0.05, 0.95, 19)):
        assert positive, (a, lims.weights)
    with pytest.raises(ValueError):
        small_h_positive_families("unknown", 0.5)


def test_small_h_family_formulas_match_generic():
    a = 0.5
    lims = small_h_limits_3(fully_symmetric_cov(3, a))
    kappa = math.acos(fully_symmetric_kappa_argument(a)) / math.pi
    assert lims.kappa == pytest.approx(kappa, abs=1e-12)
    assert lims.weights["1|2|3"] == pytest.approx(2 - 2 * kappa, abs=1e-12)
    assert lims.weights["12|3"] == pytest.approx(math.acos(a) / math.pi - 1 + kappa, abs=1e-12)
    assert lims.weights["123"] == pytest.approx(2 - 3 * math.acos(a) / math.pi - kappa, abs=1e-12)

    a = 0.6
    lims = small_h_limits_3(markov_chain_cov(3, a))
    kappa = math.acos(markov_kappa_argument(a)) / math.pi
    assert lims.kappa == pytest.approx(kappa, abs=1e-12)
    assert lims.weights["12|3"] == pytest.approx(math.acos(a * a) / math.pi - 1 + kappa, abs=1e-12)
    assert lims.weights["13|2"] == pytest.approx(
        (2 * math.acos(a) - math.acos(a * a)) / math.pi - 1 + kappa, abs=1e-12)
    assert lims.weights["123"] == pytest.approx(
        2 - (2 * math.acos(a) + math.acos(a * a)) / math.pi - kappa, abs=1e-12)


def test_small_h_markov_coupled_weight_vanishes_at_zero():
    # boundary: the all-coupled weight limit goes to 0 with a
    lims = small_h_limits_3(markov_chain_cov(3, 1e-7))
    assert abs(lims.weights["123"]) < 1e-3


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stable_order1_markov_closed_forms(a, alpha):
    meas = spectral_from_matrix(stable_markov_model(a, alpha))
    t = a ** alpha
    expected = {"111": t * t, "110": t * (1 - t), "100": 1 - t, "011": t * (1 - t),
                "010": (1 - t) ** 2, "001": 1 - t, "101": 0.0}
    for pattern, val in expected.items():
        assert stable_order1_limit(meas, pattern) == pytest.approx(val, abs=1e-12)
    rep = stable_limit_report(meas)
    q_expected = {"1|2|3": (1 - t) ** 2, "12|3": t * (1 - t), "13|2": 0.0,
                  "1|23": t * (1 - t), "123": t * t}
    for key, val in q_expected.items():
        assert rep.q_limits[key] == pytest.approx(val, abs=1e-12)
    assert sum(rep.q_limits.values()) == pytest.approx(1.0, abs=1e-12)


def test_stable_order1_common_shock():
    a, alpha = 0.45, 0.9
    meas = spectral_from_matrix(common_shock_model(a, alpha))
    assert stable_order1_limit(meas, "111") == pytest.approx(a ** alpha, abs=1e-12)
    rep = stable_limit_report(meas)
    assert rep.q_limits["1|2|3"] == pytest.approx(1 - a ** alpha, abs=1e-12)
    assert rep.q_limits["123"] == pytest.approx(a ** alpha, abs=1e-12)
    for key in ("12|3", "13|2", "1|23"):
        assert rep.q_limits[key] == pytest.approx(0.0, abs=1e-12)


def test_stable_order1_axes_only():
    meas = SpectralMeasure.symmetric([((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)],
                                     alpha=1.0, d=2)
    assert stable_order1_limit(meas, "11") == 0.0
    with pytest.raises(ValueError):
        stable_order1_limit(meas, "00")


def test_stable_order1_consistency_partition_of_patterns():
    meas = spectral_from_matrix(stable_markov_model(0.6, 1.1))
    lhs = stable_order1_limit(meas, "110") + stable_order1_limit(meas, "111")
    rhs = stable_order1_limit(meas, "100") + stable_order1_limit(meas, "101")
    assert lhs + rhs == pytest.approx(1.0, abs=1e-12)  # splits lim nu_{1..}/nu_1 = 1


def test_order2_symmetric_special_values():
    assert stable_order2_limit_101_symmetric(0.4, 1.3) == math.inf
    assert stable_order2_limit_101_symmetric(0.49, 0.5) == pytest.approx(0.3, abs=1e-12)
    # the Gamma factor is below one left of the transition
    a, alpha = 0.5, 0.3
    t = a ** alpha
    upper = (1 - t) ** 2 + t * (1 - t)
    assert stable_order2_limit_101_symmetric(a, alpha) < upper


@pytest.mark.parametrize("a", [1e-6, 0.37, 0.5, 0.7891, 1 - 1e-9])
def test_order2_limits_match_the_per_alpha_powers_bit_for_bit(a):
    """The array powers are Python's ``**`` on each alpha: t = a ** alpha,
    and the limit (1 - t) ** 2 + t (1 - t) gamma_factor(alpha) below 1."""
    alphas = np.arange(1e-4, 2, 1e-4)
    t, gamma, limit = stable_order2_limits_101_symmetric(a, alphas)
    want_t, want_gamma, want_limit = [], [], []
    for al in alphas.tolist():
        ti = a ** al
        g = gamma_factor(al) if al < 1.0 else math.inf
        want_t.append(ti)
        want_gamma.append(g)
        want_limit.append((1.0 - ti) ** 2 + ti * (1.0 - ti) * g if al < 1.0 else math.inf)
    for got, want in ((t, want_t), (gamma, want_gamma), (limit, want_limit)):
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_order2_markov_strict_inequality():
    val = stable_order2_limit_101_markov(0.5, 1.0)
    assert val > 0.25
    # gap closes as a -> 0
    val = stable_order2_limit_101_markov(1e-4, 1.0)
    assert val == pytest.approx(1.0, abs=2e-3)


def test_order2_markov_against_mc_oracle():
    # direct 2-D Monte Carlo of the (s1, s2) region integral
    a, alpha = 0.3, 0.7
    exact = stable_order2_limit_101_markov(a, alpha)
    rng = np.random.default_rng(99)
    m = 2_000_000
    # sample s ~ alpha s^{-(1+alpha)} on (1, inf) via inverse transform
    s1 = rng.random(m) ** (-1.0 / alpha)
    s2 = rng.random(m) ** (-1.0 / alpha)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    hit = (s1 < 1.0 / a) & (c * s2 > 1.0 - a * a * s1)
    phat = float(np.mean(hit))
    se = math.sqrt(phat * (1 - phat) / m)
    assert abs(exact - phat) <= 3 * se


@pytest.mark.parametrize("alpha", [0.4, 0.6])
def test_order2_sign_matches_transition_verdict(alpha):
    # sign of [order2 - (1-t)^2 - t(1-t)] = sign of t(1-t)(gamma_factor - 1):
    # negative below the critical exponent (no large-h representation), positive above
    for a in (0.3, 0.5, 0.7):
        t = a ** alpha
        gap = (stable_order2_limit_101_symmetric(a, alpha)
               - (1 - t) ** 2 - t * (1 - t))
        assert (gap > 0) == (alpha > 0.5)


def test_gamma_factor_and_phase_transition():
    assert gamma_factor(0.5) == pytest.approx(1.0, rel=1e-12)
    assert phase_transition_alpha() == pytest.approx(0.5, abs=1e-6)
    grid = np.linspace(0.05, 0.95, 100)
    vals = [gamma_factor(float(al)) for al in grid]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert gamma_factor(0.25) < 1.0 < gamma_factor(0.75)


def test_alt_example_equal_weights():
    c = alt_example_constants(0.25, 0.25)
    assert c.c1 == pytest.approx(1.0, abs=1e-12)
    assert c.c2 == math.inf
    assert c.regime == "ii"
    assert c.g(1.5) < 0.0


def test_alt_example_c2_closed_form():
    # |log a - log b| = log 2 makes c2 = 1
    c = alt_example_constants(0.4, 0.2)
    assert c.c2 == pytest.approx(1.0, rel=1e-12)
    assert c.regime == "i"  # c2 = 1 <= c1


def test_alt_example_root_property(rng):
    for _ in range(50):
        a = float(rng.uniform(0.05, 0.6))
        b = float(rng.uniform(0.05, 0.6))
        if 2 * a * a + 2 * b * b >= 1.0:
            continue
        c = alt_example_constants(a, b)
        assert 2 * a ** c.c1 + 2 * b ** c.c1 == pytest.approx(1.0, abs=1e-12)
        if c.regime == "iii":
            assert c.c1 < c.c2 < 2.0
            assert c.g(c.c2 - 1e-6) < 0 < c.g(c.c2 + 1e-6)


def test_alt_example_sign_of_g_matches_color():
    c = alt_example_constants(0.3, 0.2)
    assert c.regime == "iii"
    assert not c.color_for_large_h(c.c2 - 0.05)
    assert c.color_for_large_h(c.c2 + 0.05)
    lims = c.large_h_q_limits((c.c1 + 2.0) / 2.0)
    assert sum(lims.values()) == pytest.approx(1.0, abs=1e-12)


def test_alt_example_constraint_errors():
    with pytest.raises(ValueError):
        alt_example_constants(0.6, 0.6)
    with pytest.raises(ValueError):
        alt_example_constants(0.0, 0.2)


def test_every_n3_weight_result_is_one_vector_keyed_in_column_order():
    """Each n = 3 weight result holds its five weights as one read-only
    vector in ``enumerate_partitions(3)`` order; its keyed view is that
    vector under exactly ``_column_keys(3)``, in that order, and read-only."""
    q = [0.1, 0.2, 0.3, 0.15, 0.25]
    rep = signed_rep_3(push_forward(PartitionDistribution.from_vector(3, q), 0.3))
    fam = symmetric_rep_family_3(zero_threshold_law_3(correlations3(0.2, 0.3, 0.4)))
    member = fam.at(fam.t_lo)
    lims = small_h_limits_3(correlations3(0.1, 0.5, 0.5))
    stable = stable_limit_report(spectral_from_matrix(stable_markov_model(0.5, 1.0)))
    for vector, keyed in [(rep.vector, rep.weights), (member.vector, member.weights),
                          (lims.vector, lims.weights), (stable.vector, stable.q_limits)]:
        assert vector.shape == (5,) and not vector.flags.writeable
        assert list(keyed) == list(_column_keys(3))
        assert list(keyed.values()) == vector.tolist()
        with pytest.raises(TypeError):
            keyed["123"] = 0.0
    # each entry is the weight of its column
    assert rep.vector.tolist() == pytest.approx(q, abs=1e-12)
    assert member.weights["1|2|3"] == 2.0 * fam.t_lo
    assert stable.q_limits["1|2|3"] == pytest.approx(0.25, abs=1e-12)   # (1 - a^alpha)^2
    c = alt_example_constants(0.3, 0.2)
    alpha = (c.c1 + 2.0) / 2.0
    large = c.large_h_q_limits(alpha)
    assert list(large) == list(_column_keys(3))
    assert large["1|2|3"] == 2.0 * (0.3 ** alpha - 2.0 * 0.2 ** alpha)
    assert large["1|23"] == large["12|3"] == large["13|2"] == 2.0 * 0.2 ** alpha
    with pytest.raises(TypeError):
        large["123"] = 0.0
