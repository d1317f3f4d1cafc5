"""Threshold laws at h = 0 from reflected pairs: ``threshold_mc_law`` counts
each draw x and its reflection -x, since the Gaussian and stable vectors it
is given have the law of their negatives.

A cell's count is then Binomial(m/2, 2 nu_c) over the pairs, with variance
nu_c (1 - 2 nu_c) / m, at most the plug-in stderr^2 nu_c (1 - nu_c) / m:
every half-width stays conservative cell by cell.  These tests check the
pairing's exact symmetry, its sample count and that variance bound;
``test_sampler_core`` checks the counts bit for bit against a serial
reference loop, on any number of threads.
"""

import numpy as np
import pytest

from dcrep import partitions
from dcrep.gaussian import (correlations3, markov_chain_cov, symmetric_plus_mean_cov,
                            threshold_law_mc, zero_threshold_law_3)
from dcrep.partitions import MC_BLOCK, threshold_mc_law
from dcrep.stable import common_shock_model, stable_markov_model, stable_threshold_law_mc

H0_LAWS = {
    "gaussian triple": lambda m, seed: threshold_law_mc(correlations3(0.3, 0.5, 0.2),
                                                        0.0, m, seed),
    "gaussian chain n=9": lambda m, seed: threshold_law_mc(markov_chain_cov(9, 0.5),
                                                           0.0, m, seed),
    "symmetric plus mean n=4 (rank 3)": lambda m, seed: threshold_law_mc(
        symmetric_plus_mean_cov(4, 0.0), 0.0, m, seed),
    "stable common shock": lambda m, seed: stable_threshold_law_mc(
        common_shock_model(0.5, 0.7, 3), 0.0, m, seed),
    "stable chain alpha=1": lambda m, seed: stable_threshold_law_mc(
        stable_markov_model(0.5, 1.0, 5), 0.0, m, seed),
    "stable chain alpha=1.5": lambda m, seed: stable_threshold_law_mc(
        stable_markov_model(0.5, 1.5, 4), 0.0, m, seed),
}


@pytest.mark.parametrize("m", (2, 1000, 2 * MC_BLOCK + 2))
@pytest.mark.parametrize("law", H0_LAWS.values(), ids=H0_LAWS)
def test_an_h0_law_of_even_m_is_flip_symmetric(law, m):
    nu = law(m, 7)
    assert np.array_equal(nu.probs, nu.probs[::-1])
    assert np.max(np.abs(nu.marginals() - 0.5)) <= 1e-15


def test_a_zero_coordinate_reads_0_in_both_rows_of_a_pair():
    """Reflected rows are counted as x < 0, not as the flipped cells of x: a
    coordinate that is exactly 0 is never above the threshold."""
    def draw(k, rng):
        x = rng.standard_normal((k, 3))
        x[:, 1] = 0.0
        return x

    nu = threshold_mc_law(draw, 3, 0.0, 5000, 0)
    assert nu.marginals()[1] == 0.0
    assert nu.marginals()[0] == nu.marginals()[2] == 0.5


@pytest.mark.parametrize("m", (MC_BLOCK - 1, MC_BLOCK + 1, 10 ** 6 + 1))
def test_the_counts_sum_to_m(m, monkeypatch):
    """An odd m leaves one unpaired row, drawn and counted once."""
    totals = []
    count_blocks = partitions._count_blocks

    def recording(*args):
        counts = count_blocks(*args)
        totals.append(int(counts.sum()))
        return counts

    monkeypatch.setattr(partitions, "_count_blocks", recording)
    H0_LAWS["gaussian triple"](m, 3)
    H0_LAWS["stable common shock"](m, 3)
    assert totals == [m, m]


VARIANCE_SEEDS = 400


@pytest.mark.parametrize("name", ("gaussian triple", "stable common shock"))
def test_the_plug_in_stderr_bounds_each_cells_variance(name):
    """Over 400 seeds at 10^4 samples, each cell's empirical variance is at
    most 1.15 times the mean plug-in stderr^2 (0.67-0.97 measured); the
    bound's 15 % covers the variance estimate's own noise, about 7 %."""
    laws = [H0_LAWS[name](10 ** 4, seed) for seed in range(VARIANCE_SEEDS)]
    probs = np.array([nu.probs for nu in laws])
    stderr2 = np.array([nu.stderr ** 2 for nu in laws]).mean(axis=0)
    assert np.all(probs.var(axis=0, ddof=1) <= 1.15 * stderr2)


def test_the_mean_h0_law_is_the_exact_law():
    """The mean of 400 laws of 10^4 samples is within 4 of its standard
    errors of Sheppard's law in every cell: the pairs are unbiased."""
    cov = correlations3(0.3, 0.5, 0.2)
    probs = np.array([threshold_law_mc(cov, 0.0, 10 ** 4, seed).probs
                      for seed in range(VARIANCE_SEEDS)])
    stderr = probs.std(axis=0, ddof=1) / np.sqrt(VARIANCE_SEEDS)
    assert np.all(np.abs(probs.mean(axis=0) - zero_threshold_law_3(cov).probs) <= 4.0 * stderr)
