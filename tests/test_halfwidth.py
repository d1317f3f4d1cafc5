"""``BinaryLaw.halfwidth``, the one per-cell bound that every noise rule of the
solver reads, against the rules it replaced.

The parity tests write out each tolerance as the solver computed it from
``stderr`` before the half-width: from 0 noise on an exact law, and from the
largest stderr of an MC law.  Exact laws give the same bits.  On MC laws the
marginal screen reads the largest stderr back as width / RELAX_SIGMA, which can
move its tolerance by up to 2 ulps: RELAX_SIGMA * stderr is rounded, and the
stderr cannot be read back from it exactly.  The verdict of the screen stays
the same.
"""

import json

import numpy as np
import pytest

from dcrep import solver
from dcrep.embeddings import ou_partition_batch
from dcrep.gaussian import (correlations3, square_on_sphere_cov, square_threshold_law_exact,
                            symmetric_plus_mean_cov, threshold_law_mc, zero_threshold_law_3)
from dcrep.partitions import (PROB_TOL, RELAX_SIGMA, ROUNDING_EPS, BinaryLaw, push_forward,
                              simulate_color_process)
from dcrep.stable import stable_markov_model, stable_threshold_law_mc

from conftest import random_probability_q, random_standard_pd


def assert_halfwidth(law):
    hw = law.halfwidth
    assert hw.shape == (2 ** law.n,)
    assert np.all(np.isfinite(hw)) and np.all(hw >= 0.0)
    if law.stderr is None:
        assert np.array_equal(hw, ROUNDING_EPS * np.abs(law.probs))
    else:
        assert np.array_equal(hw, RELAX_SIGMA * law.stderr)


def constructed_laws():
    rng = np.random.default_rng(2702)
    exact = push_forward(random_probability_q(rng, 4), 0.3)
    mc = threshold_law_mc(symmetric_plus_mean_cov(4, 0.2), 0.4, 20_000, 1)
    with_stderr = exact.to_json_dict()
    with_stderr["stderr"] = np.full(16, 1e-3).tolist()
    return {
        "from_counts": BinaryLaw.from_counts([5, 0, 3, 2, 0, 0, 1, 9], 20),
        "from_json_dict": BinaryLaw.from_json_dict(json.loads(json.dumps(exact.to_json_dict()))),
        "from_json_dict_stderr": BinaryLaw.from_json_dict(with_stderr),
        "marginalize_exact": exact.marginalize([1, 3]),
        "marginalize_mc": mc.marginalize([2, 3, 4]),
        "push_forward": exact,
        "zero_threshold_law_3": zero_threshold_law_3(correlations3(0.3, 0.5, 0.2)),
        "square_exact": square_threshold_law_exact(0.6),
        "square_mc": threshold_law_mc(square_on_sphere_cov(0.6), 0.0, 20_000, 2),
        "threshold_law_mc": mc,
        "stable_threshold_law_mc": stable_threshold_law_mc(stable_markov_model(0.5, 1.2, 3),
                                                           0.0, 20_000, 3),
        "simulate_color_process": simulate_color_process(random_probability_q(rng, 3),
                                                         0.4, 20_000, 4)[1],
        "empirical_sign_law": ou_partition_batch(0.5, 4, 20_000, 5).empirical_sign_law(),
    }


CONSTRUCTED = constructed_laws()


@pytest.mark.parametrize("name", list(CONSTRUCTED))
def test_every_constructor_gives_a_halfwidth(name):
    assert_halfwidth(CONSTRUCTED[name])


def test_a_cell_negative_by_its_rounding_has_a_nonnegative_halfwidth():
    probs = np.array([0.5 + PROB_TOL / 2, -PROB_TOL / 2, 0.25, 0.25])
    law = BinaryLaw(2, probs)
    assert law.halfwidth[1] == ROUNDING_EPS * PROB_TOL / 2


def corpus():
    """Seeded exact and MC laws at n = 3..6, at p = 1/2 and off it."""
    rng = np.random.default_rng(2703)
    laws = []
    for n in (3, 4, 5, 6):
        for p in (0.5, 0.3):
            laws += [push_forward(random_probability_q(rng, n), p) for _ in range(3)]
        for k, (h, m) in enumerate([(0.0, 2000), (0.0, 20_000), (0.6, 5000), (1.2, 50_000)]):
            laws.append(threshold_law_mc(random_standard_pd(rng, n), h, m, 100 * n + k))
            laws.append(threshold_law_mc(symmetric_plus_mean_cov(n, 0.2), h, m, 200 * n + k))
        laws.append(simulate_color_process(random_probability_q(rng, n), 0.3, 10_000, n)[1])
    laws += [zero_threshold_law_3(correlations3(a, b, c))
             for a, b, c in [(0.5, 0.5, 0.5), (-0.5, 0.2, 0.2), (0.1, 0.5, 0.5)]]
    return laws


CORPUS = corpus()


def reference_noise(law):
    return 0.0 if law.stderr is None else float(np.max(law.stderr))


def ulps(a, b):
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def assert_same_tolerance(law, got, want):
    if law.stderr is None:
        assert ulps(got, want) == 0, (got, want)
    else:
        assert ulps(got, want) <= 2, (got, want)


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_each_rule_reads_the_tolerance_it_read_from_stderr(i):
    law = CORPUS[i]
    noise, width = reference_noise(law), float(np.max(law.halfwidth))
    assert law.stderr is None or noise > 0.0

    # the box LP's rows and signed_rep_3's per-cell bound (exact laws): the same bits
    if law.stderr is not None:
        assert np.array_equal(law.halfwidth, RELAX_SIGMA * law.stderr)
    den = 0.21
    for rho in range(2 ** law.n):
        want = (ROUNDING_EPS * float(law.probs[rho]) if law.stderr is None
                else RELAX_SIGMA * float(law.stderr[rho])) / abs(den)
        assert float((law.halfwidth / abs(den))[rho]) == want

    # the square's cell tolerance: the same bits
    assert max(1e-9, RELAX_SIGMA * noise) == float(np.maximum(solver.NOISE_FLOOR, width))

    # the marginal screen of lp_feasibility, with its parent formula and its verdict
    marginal = max(solver.NOISE_FLOOR, 5.0 * law.n * (width / RELAX_SIGMA))
    assert_same_tolerance(law, marginal, max(1e-9, 5.0 * noise * law.n))
    gap = law.max_marginal_gap()
    assert (gap > marginal) == (gap > max(1e-9, 5.0 * noise * law.n))
