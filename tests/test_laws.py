"""``laws.threshold_law``: each route gives the law its own function gives."""

import numpy as np
import pytest

from dcrep import gaussian, stable
from dcrep.gaussian import fully_symmetric_cov, markov_chain_cov
from dcrep.laws import threshold_law
from dcrep.partitions import BinaryLaw
from dcrep.stable import common_shock_model, stable_markov_model


def assert_same_law(got, want):
    assert got.n == want.n
    assert np.array_equal(got.probs, want.probs)
    if want.stderr is None:
        assert got.stderr is None
    else:
        assert np.array_equal(got.stderr, want.stderr)


@pytest.mark.parametrize("stderr", [None, [0.01] * 4])
def test_an_explicit_law_is_its_own_law(stderr):
    law = BinaryLaw(2, [0.4, 0.1, 0.1, 0.4], stderr=stderr)
    assert threshold_law(law, 0.7) is law
    assert threshold_law(law, None, samples=1000, seed=1) is law


@pytest.mark.parametrize("a", [-0.3, 0.0, 0.5, 0.9])
def test_n3_at_h0_without_samples_is_the_arccos_law(a):
    cov = fully_symmetric_cov(3, a) if a >= 0 else markov_chain_cov(3, a)
    assert_same_law(threshold_law(cov, 0.0), gaussian.zero_threshold_law_3(cov))


@pytest.mark.parametrize("cov,h", [(fully_symmetric_cov(3, 0.5), 0.0),
                                   (fully_symmetric_cov(3, 0.5), 0.7),
                                   (markov_chain_cov(5, 0.6), -0.2)])
def test_gaussian_samples_give_the_mc_law_bit_for_bit(cov, h):
    """``samples`` asks for the Monte Carlo law, also where an exact law is known."""
    got = threshold_law(cov, h, samples=5000, seed=11)
    assert got.stderr is not None
    assert_same_law(got, gaussian.threshold_law_mc(cov, h, 5000, 11))


@pytest.mark.parametrize("model,h", [(common_shock_model(0.5, 0.8, 3), 0.0),
                                     (common_shock_model(0.4, 1.5, 4), 1.0),
                                     (stable_markov_model(0.5, 1.0, 3), 0.3)])
def test_stable_samples_give_the_mc_law_bit_for_bit(model, h):
    got = threshold_law(model, h, samples=5000, seed=12)
    assert_same_law(got, stable.stable_threshold_law_mc(model, h, 5000, 12))


@pytest.mark.parametrize("model,h,message", [
    (fully_symmetric_cov(3, 0.5), 0.5, "this model needs --samples"),
    (markov_chain_cov(4, 0.5), 0.0, "this model needs --samples"),
    (gaussian.CovarianceSpec([[2.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]), 0.0,
     "this model needs --samples"),
    (common_shock_model(0.5, 0.8, 3), 0.0, "stable laws need --samples"),
])
def test_no_exact_law_and_no_samples_is_a_value_error(model, h, message):
    with pytest.raises(ValueError, match=message):
        threshold_law(model, h)
