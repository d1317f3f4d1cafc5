import functools
import hashlib
import importlib
import itertools
import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import _linprog_highs, linprog
from scipy.sparse import csc_array

from dcrep import solver
from dcrep.gaussian import (correlations3, markov_chain_cov, square_on_sphere_cov,
                            square_threshold_law_exact, symmetric_plus_mean_cov,
                            threshold_law_mc, zero_threshold_law_3)
from dcrep.partitions import (RELAX_SIGMA, BinaryLaw, PartitionDistribution, _color_map_cells,
                              _coloring_weights, bell_number, color_map, color_map_csc,
                              enumerate_partitions, push_forward, simulate_color_process)
from dcrep.solver import (gaussian_sym_family_interval, lp_feasibility, phase_one,
                          phase_one_exact, signed_rep_3, square_circle_intervals,
                          symmetric_plus_mean_gap, symmetric_rep_family_3)
from dcrep.stable import common_shock_model, stable_markov_model, stable_threshold_law_mc

from conftest import (edge_of_family_law, plackett_law3, random_probability_q,
                      random_standard_pd)


def product_law(n, p):
    probs = np.array([p ** bin(i).count("1") * (1 - p) ** (n - bin(i).count("1"))
                      for i in range(2 ** n)])
    return BinaryLaw(n, probs)


def negative_pair_law(p=0.4, delta=0.05):
    """X1 an independent coin; (X2, X3) negatively correlated with the same
    marginal: no color process."""
    pair = {"11": p * p - delta, "10": p * (1 - p) + delta,
            "01": p * (1 - p) + delta, "00": (1 - p) ** 2 - delta}
    probs = np.zeros(8)
    for bc, w in pair.items():
        probs[int("1" + bc, 2)] = p * w
        probs[int("0" + bc, 2)] = (1 - p) * w
    return BinaryLaw(3, probs)


def test_signed_rep_3_product_law():
    rep = signed_rep_3(product_law(3, 0.3))
    assert rep.weights["1|2|3"] == pytest.approx(1.0, abs=1e-12)
    for key in ("12|3", "13|2", "1|23", "123"):
        assert rep.weights[key] == pytest.approx(0.0, abs=1e-12)
    assert rep.feasible


def test_signed_rep_3_full_coupling():
    probs = np.zeros(8)
    probs[0b111] = 0.3
    probs[0] = 0.7
    rep = signed_rep_3(BinaryLaw(3, probs))
    assert rep.weights["123"] == pytest.approx(1.0, abs=1e-12)
    assert rep.weights["1|2|3"] == pytest.approx(0.0, abs=1e-12)


def test_signed_rep_3_roundtrip(rng):
    for _ in range(50):
        q = random_probability_q(rng, 3)
        p = rng.choice([0.2, 0.35, 0.7])
        nu = push_forward(q, p)
        rep = signed_rep_3(nu)
        assert rep.feasible
        for sig in enumerate_partitions(3):
            assert rep.weights[sig.key] == pytest.approx(
                q.weights.get(sig.key, 0.0), abs=1e-10)


def test_signed_rep_3_rejects_half_and_unequal():
    with pytest.raises(ValueError):
        signed_rep_3(product_law(3, 0.5))
    probs = np.zeros(8)
    probs[0b100] = 0.4
    probs[0] = 0.6
    with pytest.raises(ValueError):
        signed_rep_3(BinaryLaw(3, probs))


def test_signed_rep_3_reads_p_half_within_noise():
    """An MC law whose p is within 2 stderr of 1/2 takes the t-family route
    in ``signed_rep_3``.  Here p = 0.5072
    at h = 0: the closed form would give q_12_3 = -1.33 for a law that the
    t-family represents.  The law is frozen: the cells and stderr of
    ``threshold_law_mc(correlations3(0.5, 0.3, 0.2), 0.0, 10 ** 4, seed=1)``
    drawn by a former stream, as counts, since p lands this close to 1/2
    only on some draws."""
    nu = BinaryLaw.from_counts([2013, 1162, 915, 770, 780, 968, 1293, 2099], 10 ** 4)
    assert abs(nu.marginal_p - 0.5) > 0.007
    with pytest.raises(ValueError, match="p = 1/2"):
        signed_rep_3(nu)
    fam = symmetric_rep_family_3(nu)
    assert not fam.is_empty and fam.t_lo == pytest.approx(0.1428, abs=1e-4)


def test_signed_rep_3_reads_feasible_within_noise_as_the_relaxed_lp():
    """On an MC law each cell may be off by RELAX_SIGMA stderr, as in the
    relaxed LP: a weight of -0.0015 that the LP calls Borderline is feasible,
    and a weight of -0.13 that the LP calls Infeasible is not.  The first law
    is frozen: the cells and stderr of
    ``threshold_law_mc(correlations3(0.1, 0.5, 0.5), 0.5, 20_000, seed=0)``
    drawn by a former stream, as counts, since q_12_3 lands within noise of 0
    only on some draws."""
    nu = BinaryLaw.from_counts([8610, 1224, 2321, 1650, 2305, 1635, 548, 1707], 20_000)
    rep = signed_rep_3(nu)
    assert -0.01 < rep.weights["12|3"] < -solver.FEAS_TOL
    assert rep.feasible
    assert lp_feasibility(nu).status == "Borderline"
    nu = threshold_law_mc(correlations3(-0.3, 0.2, 0.2), 0.5, 10 ** 5, seed=0)
    rep = signed_rep_3(nu)
    assert min(rep.weights.values()) < -0.1
    assert not rep.feasible
    assert lp_feasibility(nu).status == "Infeasible"


@pytest.mark.parametrize("eps, feasible", [(2e-9, False), (0.5e-9, False), (1e-13, False),
                                           (0.0, True)])
def test_signed_rep_3_bounds_exact_weights_by_their_rounding(eps, feasible):
    """On an exact law a weight may fall below 0 only by the rounding of its
    own formula (3e-15 here), not by FEAS_TOL (1e-9)."""
    weights = {"1|2|3": 1.0 + eps, "12|3": -eps}
    q = np.array([weights.get(sig.key, 0.0) for sig in enumerate_partitions(3)])
    rep = signed_rep_3(BinaryLaw(3, color_map(3, 0.3) @ q))
    assert rep.weights["12|3"] == pytest.approx(-eps, rel=1e-6, abs=1e-14)
    assert rep.feasible is feasible


def test_signed_rep_3_reads_exact_color_processes_with_zero_weights_feasible():
    """A weight of 0 computes to a few ulps either side of it.  p is read from
    the cells, so its rounding moves the weights too: near p = 1 the factor
    1 - p alone would allow 1e8 times too little."""
    rng = np.random.default_rng(3)
    for _ in range(2000):
        k = rng.integers(1, 5)
        v = np.zeros(5)
        v[rng.choice(5, k, replace=False)] = rng.dirichlet(np.ones(k))
        p = (rng.uniform(0.001, 0.49), rng.uniform(0.51, 0.999),
             1.0 - 10.0 ** rng.uniform(-8, -1), 10.0 ** rng.uniform(-8, -1))[rng.integers(4)]
        rep = signed_rep_3(push_forward(PartitionDistribution.from_vector(3, v), p))
        assert rep.feasible, (v, p, rep.weights)


def test_symmetric_family_iid_coins():
    fam = symmetric_rep_family_3(product_law(3, 0.5))
    assert fam.t_lo == pytest.approx(0.5, abs=1e-12)
    assert fam.t_hi == pytest.approx(0.5, abs=1e-12)
    rep = fam.canonical()
    assert rep.weights["1|2|3"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.1, 0.4, 0.8])
def test_symmetric_family_gaussian_interval(a):
    cov = correlations3(a, a, a)
    fam = symmetric_rep_family_3(zero_threshold_law_3(cov))
    lo, hi = gaussian_sym_family_interval(cov)
    assert fam.t_lo == pytest.approx(lo, abs=1e-12)
    assert fam.t_hi == pytest.approx(hi, abs=1e-12)
    assert not fam.is_empty and fam.slack == solver.FEAS_TOL
    theta = math.acos(a)
    assert lo == pytest.approx(max(0.0, 3 * theta / math.pi - 1.0), abs=1e-12)
    assert hi == pytest.approx(theta / math.pi, abs=1e-12)


def test_symmetric_family_members_push_forward(rng):
    cov = correlations3(0.3, 0.5, 0.2)
    nu = zero_threshold_law_3(cov)
    fam = symmetric_rep_family_3(nu)
    assert not fam.is_empty
    for t in np.linspace(fam.t_lo, fam.t_hi, 7):
        rep = fam.at(float(t))
        assert min(rep.weights.values()) >= -1e-12
        back = push_forward(rep, 0.5)
        assert np.allclose(back.probs, nu.probs, atol=1e-10)


def test_symmetric_family_at_its_edge_gives_a_signed_canonical():
    """``at`` calls a q signed by PROB_TOL, the rule PartitionDistribution
    enforces, so a member negative by less than FEAS_TOL is still built.  An
    exact law's half-widths (at most 1e-15) leave its slack at FEAS_TOL."""
    fam = symmetric_rep_family_3(edge_of_family_law())
    assert fam.slack == solver.FEAS_TOL
    assert 0.0 < fam.t_lo - fam.t_hi < solver.FEAS_TOL and not fam.is_empty
    rep = fam.canonical()
    assert rep.signed
    assert min(rep.weights.values()) == pytest.approx(-8e-11, rel=1e-6)


def test_the_family_of_an_mc_law_is_never_empty_where_its_lp_is_borderline():
    """The family's slack bounds how far the half-widths of the cells 001,
    010 and 100 move t_lo - t_hi, so sampling noise alone never empties the
    family of a law that the relaxed LP calls Borderline.  At 5,000 samples
    FEAS_TOL alone emptied it on 36 of 400 such seeded laws."""
    rng = np.random.default_rng(2704)
    statuses = []
    for seed in range(240):
        law = threshold_law_mc(random_standard_pd(rng, 3), 0.0, 5000, seed)
        try:
            fam = symmetric_rep_family_3(law)
        except ValueError:      # {0,1}-symmetry fails by more than 5 stderr
            continue
        status = lp_feasibility(law).status
        statuses.append(status)
        assert not (fam.is_empty and status == "Borderline"), seed
    assert len(statuses) >= 200
    assert statuses.count("Borderline") >= 40 and statuses.count("Infeasible") >= 40


def test_the_family_of_an_mc_law_without_a_representation_stays_empty():
    """Power: at 10^5 samples the gap of correlations3(-0.5, 0.2, 0.2), 0.34,
    is far above the family's slack, about 0.05."""
    law = threshold_law_mc(correlations3(-0.5, 0.2, 0.2), 0.0, 10 ** 5, 7)
    fam = symmetric_rep_family_3(law)
    assert fam.t_lo - fam.t_hi == pytest.approx(0.34, abs=0.02)
    assert 0.03 < fam.slack < 0.07
    assert fam.is_empty and fam.t_interval is None
    assert lp_feasibility(law).status == "Infeasible"


def test_symmetric_family_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_rep_family_3(product_law(3, 0.4))


def test_square_family_inequality_margin():
    # adjacent angle arccos(cos^2 theta) at theta = pi/4 sits inside the caps
    # with gap pi/8 - pi/12
    theta = math.pi / 4
    gap = math.pi / 8 - (math.acos(math.cos(theta) ** 2) - theta)
    assert gap == pytest.approx(math.pi / 8 - math.pi / 12, abs=1e-12)


def test_lp_feasibility_negative_correlation_certificate():
    nu = BinaryLaw(2, [0.2, 0.3, 0.3, 0.2])  # nu_11 = 0.2 < 0.25: negative corr
    res = lp_feasibility(nu)
    assert res.status == "Infeasible"
    y = res.certificate
    assert y is not None
    mat = color_map(2, 0.5)
    assert float(np.max(y @ mat)) <= 1e-9
    assert float(y @ nu.probs) > 0.0


def planted_duals(monkeypatch, objective, y):
    """Make every ``phase_one`` call of ``lp_feasibility`` end at
    ``objective`` with the duals ``y``."""
    def planted(a, b, slack=None, basis=None):
        return solver.PhaseOneResult(objective=objective, x=np.zeros(a.shape[1]),
                                     y=np.asarray(y, dtype=float), pivots=0)

    monkeypatch.setattr(solver, "phase_one", planted)


def test_a_rejected_certificate_gives_borderline(monkeypatch):
    """A positive phase-I objective whose duals ``_clean_certificate``
    rejects is Borderline: Infeasible always carries a certificate."""
    planted_duals(monkeypatch, 0.1, np.zeros(4))
    res = lp_feasibility(BinaryLaw(2, [0.2, 0.3, 0.3, 0.2]))
    assert (res.status, res.q, res.certificate) == ("Borderline", None, None)
    assert res.infeasibility_margin == 0.1
    assert res.detail["certificate_verified"] is False


def test_a_certificate_is_checked_over_the_box_after_its_shift(monkeypatch):
    """y = (y0 + c 1) / (1 + c) has max A'y = c / (1 + c) within the 1e-7
    that ``_clean_certificate`` allows; its shift y - max(A'y) 1 is
    y0 / (1 + c), whose margin over the box is -5e-9 / (1 + c).  The box of
    half-widths 0.1 + 2.5e-9 on 00 and 11 holds A q for q = 1.2 on 1|2, so
    no certificate exists.  A float margin y'nu - max(A'y) sum(nu) -
    halfwidth'|y| on the unshifted y reads 5e-9, and would pass this y."""
    c, w = 5e-8, 0.1 + 2.5e-9
    nu = BinaryLaw(2, [0.2, 0.3, 0.3, 0.2], stderr=np.array([w, 0.0, 0.0, w]) / RELAX_SIGMA)
    assert phase_one(color_map_csc(2, 0.5), nu.probs, slack=nu.halfwidth).objective == 0.0
    y = (np.array([-1.0, 1.0, 1.0, -1.0]) + c) / (1.0 + c)
    assert 0.0 < float(np.max(color_map_csc(2, 0.5).T @ y)) <= 1e-7
    planted_duals(monkeypatch, 1e-3, y)
    res = lp_feasibility(nu)
    assert (res.status, res.certificate) == ("Borderline", None)
    assert res.detail["certificate_verified"] is False


def test_an_exact_law_is_infeasible_when_its_certificate_verifies(monkeypatch):
    """An objective just above ``tol`` with duals that verify exactly is
    Infeasible on an exact law: there is no band of Borderline objectives
    above ``tol``."""
    nu = BinaryLaw(2, [0.2, 0.3, 0.3, 0.2])
    planted_duals(monkeypatch, 2.0 * solver.FEAS_TOL, [-1.0, 1.0, 1.0, -1.0])
    res = lp_feasibility(nu)
    assert res.status == "Infeasible" and res.detail["certificate_verified"] is True
    assert res.certificate.tolist() == [-1.0, 1.0, 1.0, -1.0]


def tiny_cell_mc_law():
    """An h = 6 color process whose cells, some below 1e-9, have stderr 1e-3
    of themselves: the law of the CI's ``tiny.json``."""
    law = plackett_law3((0.3, 0.5, 0.2), 6)
    return BinaryLaw(3, law.probs, stderr=1e-3 * law.probs)


DETAIL_LAWS = {
    "negative pair": (negative_pair_law, "Infeasible"),
    "no color process, h = 4": (lambda: plackett_law3((0.0, 0.5, 0.5), 4), "Infeasible"),
    "tiny MC cells": (tiny_cell_mc_law, "Borderline"),
    "MC gaussian": (lambda: threshold_law_mc(correlations3(0.5, 0.3, 0.2), 0.0, 10 ** 4, 1),
                    "Borderline"),
    "color process": (lambda: push_forward(random_probability_q(np.random.default_rng(3), 4),
                                           0.4), "Feasible"),
}


@pytest.mark.parametrize("name", DETAIL_LAWS)
def test_detail_records_the_certificate_check_on_every_objective_above_tol(name):
    """``certificate_verified`` is in ``detail`` exactly when the objective is
    above ``tol``, and it is True exactly on Infeasible; ``mode`` is gone, and
    the ``exact`` keyword, read nowhere, changes nothing."""
    make, status = DETAIL_LAWS[name]
    law = make()
    res = lp_feasibility(law)
    assert res.status == status
    objective = res.detail.get("phase1_objective", res.detail.get("relaxed_objective"))
    assert ("certificate_verified" in res.detail) == (objective > solver.FEAS_TOL)
    assert res.detail.get("certificate_verified", False) == (status == "Infeasible")
    assert (res.certificate is not None) == (status == "Infeasible")
    assert "mode" not in res.detail
    again = lp_feasibility(law, exact=True)
    assert again.status == res.status and again.detail == res.detail
    assert again.infeasibility_margin == res.infeasibility_margin


def test_clean_certificate_refuses_a_y_with_a_positive_column():
    nu = BinaryLaw(2, [0.2, 0.3, 0.3, 0.2])
    mat = color_map_csc(2, 0.5)
    y = lp_feasibility(nu).certificate
    assert solver._clean_certificate(mat, nu.probs, y).tobytes() == y.tobytes()
    # every column of the map sums to 1: y + 0.01 raises each (y'A)_j by 0.01
    assert float((y + 0.01) @ nu.probs) > 0.0
    assert solver._clean_certificate(mat, nu.probs, y + 0.01) is None


def mc_infeasible_corpus():
    """Every Infeasible MC law of a seeded corpus: 150 n = 3 Gaussian laws of
    5,000 samples at h = 0, and the n = 4 counterexample's law of 10^5."""
    rng = np.random.default_rng(0)
    laws = [threshold_law_mc(random_standard_pd(rng, 3), 0.0, 5_000,
                             int(rng.integers(1 << 30))) for _ in range(150)]
    laws.append(threshold_law_mc(symmetric_plus_mean_cov(4, 0), 0.0, 100_000, 12003))
    for law in laws:
        try:
            res = lp_feasibility(law)
        except ValueError:      # marginals too far apart for one p
            continue
        if res.status == "Infeasible":
            yield law, res


def test_an_mc_certificate_rules_out_every_law_within_the_half_widths():
    """y'A <= 0 and y'nu - halfwidth'|y| > 0: y proves infeasible every law
    in [nu - halfwidth, nu + halfwidth], the box the relaxed LP searched,
    and its exact check over that box verifies."""
    found = list(mc_infeasible_corpus())
    assert len(found) >= 100 and found[-1][0].n == 4
    for law, res in found:
        y = res.certificate
        assert res.detail["certificate_verified"] is True
        assert float(np.max(color_map_csc(law.n, law.marginal_p).T @ y)) <= 1e-7
        assert float(y @ law.probs - law.halfwidth @ np.abs(y)) > 0.0
        assert phase_one_exact(law.n, law.marginal_p, law.probs, y, law.halfwidth)


def test_lp_roundtrip_and_oracle_agreement(rng):
    mat_cache = {}
    for _ in range(60):
        q = random_probability_q(rng, 3)
        p = float(rng.choice([0.2, 0.35, 0.7]))
        nu = push_forward(q, p)
        res = lp_feasibility(nu)
        assert res.status == "Feasible"
        assert np.allclose(res.q.vector, q.vector, atol=1e-8)
        assert res.infeasibility_margin <= 1e-9
        assert signed_rep_3(nu).feasible


def test_lp_matches_signed_rep_on_infeasible(rng):
    # signed q vectors that still map to probability laws: feasible iff q >= 0
    found_infeasible = 0
    for _ in range(400):
        w = rng.dirichlet(np.ones(5)) + rng.normal(scale=0.08, size=5)
        w = w / w.sum()
        p = 0.3
        nu_vec = color_map(3, p) @ w
        if nu_vec.min() < 1e-6:
            continue
        nu = BinaryLaw(3, nu_vec / nu_vec.sum())
        if nu.max_marginal_gap() > 1e-9:
            continue
        rep = signed_rep_3(nu)
        res = lp_feasibility(nu)
        if min(rep.weights.values()) >= 1e-8:
            assert res.status == "Feasible"
        elif min(rep.weights.values()) <= -1e-8:
            assert res.status == "Infeasible"
            found_infeasible += 1
    assert found_infeasible > 10


def shifted_farkas_value(y, nu):
    """(y - max(y'A) 1)'nu in Fraction arithmetic, with the coloring map A at
    the law's marginal built from the block colorings; > 0 proves nu
    infeasible."""
    n, p = nu.n, Fraction(nu.marginal_p)
    ys = [Fraction(float(v)) for v in y]
    nus = [Fraction(float(v)) for v in nu.probs]
    best = None
    for sig in enumerate_partitions(n):
        col = Fraction(0)
        for colors in itertools.product((0, 1), repeat=sig.num_blocks):
            row = sum(1 << (n - i) for b, c in zip(sig.blocks, colors) if c for i in b)
            k = sum(colors)
            col += ys[row] * p ** k * (1 - p) ** (sig.num_blocks - k)
        best = col if best is None else max(best, col)
    return sum(a * b for a, b in zip(ys, nus)) - best * sum(nus)


def test_every_infeasible_certificate_verifies_exactly():
    for nu in (BinaryLaw(2, [0.2, 0.3, 0.3, 0.2]), negative_pair_law(),
               square_threshold_law_exact(1.2)):
        res = lp_feasibility(nu)
        assert res.status == "Infeasible"
        assert res.detail["certificate_verified"] is True
        assert shifted_farkas_value(res.certificate, nu) > 0
    q = PartitionDistribution(2, {"12": 0.5, "1|2": 0.5})
    res = lp_feasibility(push_forward(q, 0.25))
    assert res.status == "Feasible"
    assert np.allclose(res.q.vector, q.vector, atol=1e-12)
    # feasible by construction: float roundoff must not read as infeasibility
    for n, p in itertools.product((3, 4, 5), (0.25, 0.3)):
        nu = push_forward(random_probability_q(np.random.default_rng(n), n), p)
        res = lp_feasibility(nu)
        assert res.status == "Feasible", (n, p)
        assert np.allclose(push_forward(res.q, p).probs, nu.probs, atol=1e-8)


@functools.cache
def reference_color_map_exact(n, p):
    """The dense 2^n x Bell(n) coloring map in Fraction arithmetic, row-major,
    built by a double loop over partitions and their colorings."""
    p = Fraction(p)
    sigs = enumerate_partitions(n)
    rows = [[Fraction(0)] * len(sigs) for _ in range(2 ** n)]
    for j, sig in enumerate(sigs):
        bits = [sum(1 << (n - i) for i in b) for b in sig.blocks]
        for colors in itertools.product((0, 1), repeat=len(bits)):
            row = sum(bit for bit, c in zip(bits, colors) if c)
            k = sum(colors)
            rows[row][j] = p ** k * (1 - p) ** (sig.num_blocks - k)
    return rows


def reference_phase_one_exact(n, p, nu, y, halfwidth):
    """The Farkas check of ``phase_one_exact`` over the dense Fraction map:
    z = y - max(y'A) 1 has a positive least value z'nu' over the laws nu'
    within ``halfwidth`` of nu, reached where nu' - nu = -halfwidth sign(z)."""
    ys = [Fraction(float(v)) for v in y]
    columns = zip(*reference_color_map_exact(n, p))
    delta = max(sum(yi * a for yi, a in zip(ys, col) if a) for col in columns)
    least = 0
    for yi, vi, wi in zip(ys, nu, halfwidth):
        z = yi - delta
        least += z * (Fraction(float(vi)) - (1 if z > 0 else -1) * Fraction(float(wi)))
    return least > 0


def test_integer_certificate_check_matches_fraction_map():
    gen = np.random.default_rng(77)
    verdicts = []
    for n, p in itertools.product(range(2, 8), (0.3, 0.5, 1 / 3, 1e-3, 0.999)):
        mat = color_map(n, p)
        nu = gen.dirichlet(np.full(2 ** n, 0.3))
        y = gen.normal(size=2 ** n)
        # half-widths of every size up to the cells, and none
        for halfwidth in (gen.uniform(0.0, 1.0, 2 ** n) * nu * 10.0 ** -gen.integers(0, 4),
                          np.zeros(2 ** n)):
            # shifted so that y'A <= 0 in floats: the certificates that the
            # LP route hands to the check, true or off by a rounding
            for cand in (y, y - np.max(y @ mat), nu - np.max(nu @ mat)):
                got = phase_one_exact(n, p, nu, cand, halfwidth)
                assert got == reference_phase_one_exact(n, p, nu, cand, halfwidth), (n, p)
                verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_lp_mc_relaxation_borderline():
    # boundary law (independent pair) estimated by MC: never Infeasible
    exact = product_law(2, 0.5)
    rngl = np.random.default_rng(3)
    m = 200_000
    counts = rngl.multinomial(m, exact.probs)
    nu = BinaryLaw.from_counts(counts, m)
    res = lp_feasibility(nu)
    assert res.status in ("Feasible", "Borderline")


def test_lp_dimension_and_marginal_errors():
    probs = np.zeros(8)
    probs[0b100] = 0.4
    probs[0] = 0.6
    with pytest.raises(ValueError):
        lp_feasibility(BinaryLaw(3, probs))
    with pytest.raises(ValueError):
        lp_feasibility(product_law(2, 0.3), p=0.6)


def test_square_law_feasible_at_quarter_pi():
    law = square_threshold_law_exact(math.pi / 4)
    res = lp_feasibility(law)
    assert res.status == "Feasible"
    assert res.infeasibility_margin <= 1e-10


def test_permute_law_matches_bit_loop(rng):
    """The cached index gather against the per-cell bit permutation it replaced."""
    from test_stacked_square import _permute_law

    for n in (1, 2, 3, 4):
        law = BinaryLaw(n, rng.dirichlet(np.ones(2 ** n)))
        for perm in itertools.permutations(range(1, n + 1)):
            expect = np.zeros(2 ** n)
            for idx in range(2 ** n):
                bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
                expect[sum(bits[perm[i] - 1] << (n - 1 - i) for i in range(n))] = law.probs[idx]
            assert np.array_equal(_permute_law(law.probs, perm), expect), perm


def test_square_law_small_theta_is_feasible():
    law = square_threshold_law_exact(0.25)
    res = lp_feasibility(law)
    assert res.status == "Feasible"


def test_square_law_large_h_infeasible():
    theta, h, m = math.pi / 5, 3.0, 1_000_000
    law = threshold_law_mc(square_on_sphere_cov(theta), h, m, seed=37)
    res = lp_feasibility(law)
    assert res.status == "Infeasible"
    assert phase_one_exact(4, law.marginal_p, law.probs, res.certificate, law.halfwidth)


def test_square_circle_intervals_reject_bad_input():
    law = zero_threshold_law_3(correlations3(0.2, 0.2, 0.2))
    with pytest.raises(ValueError, match="16"):
        square_circle_intervals(law.probs[None])  # wrong n


def test_symmetric_plus_mean_large_a_is_not_infeasible():
    """At a = 0.95 the n = 4 law is within sampling noise of a color process:
    the strict LP misses it, the relaxed LP reaches objective 0."""
    law = threshold_law_mc(symmetric_plus_mean_cov(4, 0.95), 0.0, 200_000, seed=41)
    assert lp_feasibility(law).status != "Infeasible"


def test_symmetric_plus_mean_gap():
    assert symmetric_plus_mean_gap(3) == pytest.approx(0.0, abs=1e-12)
    assert symmetric_plus_mean_gap(4) == pytest.approx(
        math.pi / 3 - math.asin(math.sqrt(2.0 / 3.0)), abs=1e-15)
    assert all(symmetric_plus_mean_gap(n) > 0 for n in range(4, 12))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_lp_roundtrip_larger_n(rng, n, p):
    for _ in range(5):
        q = random_probability_q(rng, n)
        nu = push_forward(q, p)
        res = lp_feasibility(nu)
        assert res.status == "Feasible"
        back = push_forward(res.q, p)
        assert np.allclose(back.probs, nu.probs, atol=1e-8)


def test_lp_rejects_negative_pairwise_correlation_n3():
    nu = negative_pair_law()
    assert np.allclose(nu.marginals(), 0.4, atol=1e-12)
    assert lp_feasibility(nu).status == "Infeasible"


def test_square_small_theta_small_h_window():
    # the h -> 0 representation of the 3-marginal sits strictly inside the
    # square's reconstruction caps for small theta: representability extends
    # to small positive thresholds by continuity
    from dcrep.asymptotics import small_h_limits_3
    for theta in (0.1, 0.2, 0.3):
        cov3 = square_on_sphere_cov(theta).principal([1, 2, 3])
        lims = small_h_limits_3(cov3)
        t_small_h = lims.weights["1|2|3"] / 2.0
        # closed form of the same t
        arg = 2.0 * math.sin(theta) ** 4 / (1.0 + math.cos(theta) ** 2) ** 2 - 1.0
        assert t_small_h == pytest.approx(1.0 - math.acos(arg) / math.pi, abs=1e-12)
        theta_adj = math.acos(math.cos(theta) ** 2)
        lo = (2.0 * theta_adj - math.pi / 2.0) / math.pi
        hi = 2.0 * (2.0 * theta - theta_adj) / math.pi
        assert lo < t_small_h < hi
        assert min(lims.weights.values()) > 0


def test_square_law_mc_small_positive_h():
    # moderate theta, small positive threshold: representable within the
    # noise (an MC law is never Feasible), with a q whose push-forward is
    # within the noise of the law
    theta, h = 0.2, 0.15
    law = threshold_law_mc(square_on_sphere_cov(theta), h, 2_000_000, seed=51)
    res = lp_feasibility(law)
    assert res.status == "Borderline"
    assert res.q is not None and min(res.q.weights.values()) >= 0.0
    assert res.infeasibility_margin < 0.01


@pytest.mark.parametrize("n, support", [(7, 30), (8, None)])
def test_lp_feasible_by_construction_large_n(n, support):
    # the degenerate p = 0.3 LPs at n = 7, 8 are decided fast and to roundoff
    rng = np.random.default_rng(n)
    sigs = enumerate_partitions(n)
    picked = rng.choice(len(sigs), size=support or len(sigs), replace=False)
    w = rng.dirichlet(np.ones(picked.size))
    mat = color_map(n, 0.3)
    nu = BinaryLaw(n, mat[:, picked] @ w)
    t0 = time.perf_counter()
    res = lp_feasibility(nu)
    elapsed = time.perf_counter() - t0
    assert res.status == "Feasible"
    assert float(np.max(np.abs(mat @ res.q.vector - nu.probs))) <= 1e-8
    assert elapsed < 2.0


def test_lp_feasible_verdicts_reproduce_the_law_n6():
    mat = color_map(6, 0.3)
    for seed in range(200):
        w = np.random.default_rng(seed).dirichlet(np.ones(mat.shape[1]))
        nu = BinaryLaw(6, mat @ w)
        res = lp_feasibility(nu)
        assert res.status == "Feasible", seed
        assert float(np.max(np.abs(mat @ res.q.vector - nu.probs))) <= 1e-8, seed


# An n = 6 push-forward of a Dirichlet q at p = 1/2 whose marginals average to
# 0.5000000000000001.  At HiGHS's default primal feasibility tolerance (1e-7)
# phase I stopped at objective 0 with a q that missed the law by 8.5e-8.
P_HALF_ULP_LAW_6 = [
    0.11975543114778421, 0.018938558723704813, 0.02011671019462443, 0.012245215549376772,
    0.020126719499939376, 0.0095719840657397, 0.012080942971886737, 0.010721128344475424,
    0.016849410104195515, 0.0092569877600335, 0.010278566886896934, 0.004947323464277356,
    0.011595587785559911, 0.009355797872042463, 0.011394235480521285, 0.007766156593045058,
    0.022073712533434806, 0.010938136818181185, 0.013601937555050722, 0.01464701609215748,
    0.0075863002819806635, 0.00891188413772374, 0.009780041030880702, 0.010565937231366403,
    0.014778163063607632, 0.009307374302819105, 0.008338795134345293, 0.01150593357507936,
    0.009004344726330108, 0.013515496975518739, 0.008452154602141384, 0.02199201549527933,
    0.02199201549527933, 0.008452154602141384, 0.013515496975518739, 0.009004344726330108,
    0.01150593357507936, 0.008338795134345293, 0.009307374302819105, 0.014778163063607632,
    0.010565937231366403, 0.009780041030880702, 0.00891188413772374, 0.0075863002819806635,
    0.01464701609215748, 0.013601937555050722, 0.010938136818181185, 0.022073712533434806,
    0.007766156593045058, 0.011394235480521285, 0.009355797872042463, 0.011595587785559911,
    0.004947323464277356, 0.010278566886896934, 0.0092569877600335, 0.016849410104195515,
    0.010721128344475424, 0.012080942971886737, 0.0095719840657397, 0.020126719499939376,
    0.012245215549376772, 0.02011671019462443, 0.018938558723704813, 0.11975543114778421,
]


def test_lp_feasible_q_reproduces_law_at_p_one_ulp_above_half():
    nu = BinaryLaw(6, P_HALF_ULP_LAW_6)
    assert nu.marginal_p == 0.5000000000000001
    res = lp_feasibility(nu)
    assert res.status == "Feasible"
    assert res.infeasibility_margin <= 1e-8
    assert float(np.max(np.abs(push_forward(res.q, nu.marginal_p).probs - nu.probs))) <= 1e-8


def test_lp_relaxed_mc_markov_n6():
    law = threshold_law_mc(markov_chain_cov(6, 0.5), 0.0, 10 ** 6, seed=5)
    t0 = time.perf_counter()
    res = lp_feasibility(law)
    elapsed = time.perf_counter() - t0
    assert res.status in ("Feasible", "Borderline")
    assert elapsed < 2.0


# -- phase_one against scipy's linprog ------------------------------------------

LINPROG_OPTIONS = {"primal_feasibility_tolerance": solver.PRIMAL_FEAS_TOL, "presolve": False}


def linprog_phase_one(a, b, slack=None):
    """The oracle: the same phase-I LP through ``scipy.optimize.linprog``,
    whose ``method="highs"`` wraps the same HiGHS solve in input cleaning and
    a dense [A | I | -I], with presolve off as in ``phase_one``.  linprog
    takes no boxed rows, so with ``slack`` the rows [b - slack, b + slack]
    are handed to the HiGHS call that linprog makes (``_highs_wrapper``),
    with the options linprog builds, and its raw result is read.  Returns
    (objective, pivots, x, y)."""
    a = a.toarray()
    m, k = a.shape
    eye = np.eye(m)
    cost = np.concatenate([np.zeros(k), np.ones(2 * m)])
    solve = functools.partial(linprog, cost, A_eq=np.hstack([a, eye, -eye]), b_eq=b,
                              bounds=(0.0, None), method="highs", options=LINPROG_OPTIONS)
    if slack is None:
        res = solve()
        assert res.status == 0, res.message
        return res.fun, res.nit, res.x[:k], res.eqlin.marginals
    raw = {}
    highs_wrapper = _linprog_highs._highs_wrapper

    def boxed(c, indptr, indices, data, lhs, rhs, *rest):
        raw.update(highs_wrapper(c, indptr, indices, data, b - slack, b + slack, *rest))
        return raw

    with mock.patch.object(_linprog_highs, "_highs_wrapper", boxed):
        solve()
    assert raw["status"] == solver._highs.HighsModelStatus.kOptimal, raw["message"]
    return raw["fun"], raw["simplex_nit"], raw["x"][:k], raw["lambda"]


def e_block_phase_one(a, b, slack):
    """The relaxed LP as it was built before its widening moved into the row
    bounds, through ``linprog``: [A | I | -I | I] = b with an extra column
    e_i in [-slack_i, slack_i] per row, at cost 0."""
    a = a.toarray()
    m, k = a.shape
    eye = np.eye(m)
    cost = np.concatenate([np.zeros(k), np.ones(2 * m), np.zeros(m)])
    bounds = [(0.0, None)] * (k + 2 * m) + [(-s, s) for s in slack]
    res = linprog(cost, A_eq=np.hstack([a, eye, -eye, eye]), b_eq=b, bounds=bounds,
                  method="highs", options=LINPROG_OPTIONS)
    assert res.status == 0, res.message
    return res


def dirichlet_law(n, p):
    return push_forward(random_probability_q(np.random.default_rng(n), n), p)


PARITY_CORPUS = {
    **{f"dirichlet n={n} p={p}": functools.partial(dirichlet_law, n, p)
       for n in range(3, 8) for p in (0.3, 0.5)},
    "negative pair": negative_pair_law,
    "square theta=pi/3": functools.partial(square_threshold_law_exact, math.pi / 3),
    "gaussian chain MC": lambda: threshold_law_mc(markov_chain_cov(4, 0.5), 0.3, 10 ** 4,
                                                  seed=0),
    "stable chain MC": lambda: stable_threshold_law_mc(stable_markov_model(0.5, 1.2, 4), 0.5,
                                                       10 ** 4, seed=0),
    "color process MC": lambda: simulate_color_process(
        random_probability_q(np.random.default_rng(5), 5), 0.3, 10 ** 4, seed=0)[1],
}


@pytest.mark.parametrize("name", PARITY_CORPUS)
def test_phase_one_matches_linprog_bit_for_bit(monkeypatch, name):
    law = PARITY_CORPUS[name]()
    calls = []

    def recording(a, b, slack=None, basis=None):
        result = phase_one(a, b, slack, basis)
        calls.append((a, b, slack, basis, result))
        return result

    monkeypatch.setattr(solver, "phase_one", recording)
    status = lp_feasibility(law).status
    if name.endswith("MC"):
        # one LP, the box LP, from the slack basis
        assert status == "Borderline" and len(calls) == 1
        assert calls[0][2] is not None and calls[0][3] is None
    elif name.startswith("dirichlet"):
        assert status == "Feasible" and len(calls) == 1
    else:
        assert status == "Infeasible" and len(calls) == 1
    for a, b, slack, basis, got in calls:
        objective, pivots, x, y = linprog_phase_one(a, b, slack)
        cold = phase_one(a, b, slack)
        assert cold.objective == objective
        assert cold.pivots == pivots
        assert cold.x.tobytes() == x.tobytes()
        assert cold.y.tobytes() == y.tobytes()
        # a warm start may end at another optimal vertex: the same optimum
        assert got.objective == pytest.approx(objective, rel=0.0, abs=1e-12)
        assert (got.objective <= solver.FEAS_TOL) == (objective <= solver.FEAS_TOL)


# MC laws that fail the strict LP, Borderline or Infeasible after the widening;
# an h = 0 law of reflected pairs is flip-symmetric and often passes it, so
# the Borderline ones are drawn at h != 0
RELAXED_CORPUS = {
    **{name: PARITY_CORPUS[name] for name in PARITY_CORPUS if name.endswith("MC")},
    "gaussian triple MC": lambda: threshold_law_mc(correlations3(-0.3, 0.2, 0.2), 0.5,
                                                   10 ** 5, seed=0),
    "symmetric plus mean n=4 a=0 MC": lambda: threshold_law_mc(
        symmetric_plus_mean_cov(4, 0.0), 0.0, 2 * 10 ** 5, seed=12003),
    "symmetric plus mean n=4 a=0.95 MC": lambda: threshold_law_mc(
        symmetric_plus_mean_cov(4, 0.95), 0.3, 2 * 10 ** 5, seed=41),
    "stable common shock MC": lambda: stable_threshold_law_mc(common_shock_model(0.5, 0.8, 4),
                                                              0.5, 10 ** 4, seed=0),
}


@pytest.mark.parametrize("name", RELAXED_CORPUS)
def test_boxed_rows_decide_as_the_e_block_did(monkeypatch, name):
    """The relaxed LP with rows [b - slack, b + slack] has the optimum of the
    model it replaced, A q + s+ - s- + e = b with |e| <= slack, and every
    verdict stays: lp_feasibility decides the same with the old model."""
    law = RELAXED_CORPUS[name]()
    mat = color_map_csc(law.n, law.marginal_p)
    slack = solver.RELAX_SIGMA * law.stderr
    got = phase_one(mat, law.probs, slack)
    assert got.objective == pytest.approx(e_block_phase_one(mat, law.probs, slack).fun,
                                          rel=0.0, abs=1e-12)
    result = lp_feasibility(law)
    assert result.detail["relaxed_objective"] == got.objective

    def e_block(a, b, slack=None, basis=None):
        if slack is None:
            return phase_one(a, b, slack, basis)
        res = e_block_phase_one(a, b, slack)
        return solver.PhaseOneResult(objective=res.fun, x=res.x[:a.shape[1]],
                                     y=res.eqlin.marginals, pivots=res.nit)

    monkeypatch.setattr(solver, "phase_one", e_block)
    assert lp_feasibility(law).status == result.status
    assert result.status in ("Borderline", "Infeasible")


def test_every_lp_has_one_shape_and_relaxed_rows_are_boxed(monkeypatch):
    """Strict and relaxed LPs alike reach HiGHS with the k + 2m columns of
    [A | I | -I], one model per law; only the row bounds differ: [b, b] on
    the strict LP of an exact law, and b -+ RELAX_SIGMA stderr on the
    relaxed (box) LP of an MC law, its only LP."""
    models = []

    def recording(model, basis=None, limit=None):
        models.append(model)
        return highs_run(model, basis, limit)

    highs_run = solver._highs_run
    monkeypatch.setattr(solver, "_highs_run", recording)
    laws = [RELAXED_CORPUS[name]() for name in RELAXED_CORPUS] + [negative_pair_law()]
    for law in laws:
        lp_feasibility(law)             # builds any start basis outside the record
        del models[:]
        mat = color_map_csc(law.n, law.marginal_p)
        m, k = mat.shape
        relaxed = "relaxed_objective" in lp_feasibility(law).detail
        assert relaxed == (law.stderr is not None)
        assert len(models) == 1
        for model in models:
            cols, rows, cost, lower, upper = model[0], model[1], model[6], model[7], model[8]
            indptr = model[11]
            assert (cols, rows, len(cost), len(lower), len(upper), len(indptr)) \
                == (k + 2 * m, m, k + 2 * m, k + 2 * m, k + 2 * m, k + 2 * m + 1)
            assert np.all(lower == 0.0) and np.all(upper == math.inf)
        if relaxed:
            slack = solver.RELAX_SIGMA * law.stderr
            assert models[0][9].tobytes() == (law.probs - slack).tobytes()
            assert models[0][10].tobytes() == (law.probs + slack).tobytes()
        else:
            assert models[0][9].tobytes() == models[0][10].tobytes() == law.probs.tobytes()


@pytest.mark.parametrize("which", ["b", "slack"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_phase_one_rejects_a_non_finite_rhs_or_slack(which, value):
    # linprog refused such a b; a nan slack it passed on, and HiGHS called the LP solved
    mat = color_map(3, 0.3)
    b, slack = mat @ np.full(5, 0.2), np.full(8, 0.01)
    (b if which == "b" else slack)[2] = value
    with pytest.raises(ValueError, match=f"{which} must be 8 finite values"):
        phase_one(mat, b, slack)


def test_phase_one_raises_when_highs_finds_no_optimum():
    mat = color_map(3, 0.3)
    slack = np.full(8, 0.01)
    slack[2] = -0.01            # the box of row 2 is empty
    with pytest.raises(RuntimeError, match="HiGHS phase I failed: Infeasible"):
        phase_one(mat, mat @ np.full(5, 0.2), slack)


@pytest.mark.parametrize("getter, field, spoil", [
    ("getSolution", "row_value", lambda v: [v[0] + 1e-3, *v[1:]]),   # A x + ... misses b
    ("getSolution", "col_value", lambda v: [-1e-3, *v[1:]]),         # q_1 < 0
    ("getSolution", "col_value", lambda v: [math.nan, *v[1:]]),
    ("getInfo", "objective_function_value", lambda v: math.nan),
])
def test_phase_one_checks_the_solution_it_returns(monkeypatch, getter, field, spoil):
    """HiGHS's optimum is checked as scipy's LP interface checks it: bounds
    and equality residual within 10 sqrt(1e-9), and no nan."""
    highs = solver._highs._Highs

    def spoiled(self):
        got = getattr(highs, getter)(self)
        setattr(got, field, spoil(getattr(got, field)))
        return got

    mat = color_map(3, 0.3)
    b = mat @ np.full(5, 0.2)
    assert phase_one(mat, b).objective <= 1e-12
    monkeypatch.setattr(solver._highs, "_Highs", type("Spoiled", (highs,), {getter: spoiled}))
    monkeypatch.setattr(solver, "_THREAD", threading.local())   # builds a Spoiled instance
    with pytest.raises(RuntimeError, match="HiGHS phase I failed: the solution misses"):
        phase_one(mat, b)


def test_lp_feasibility_n8_peak_memory_is_bounded():
    """The LP goes to HiGHS as CSC arrays: no dense [A | I | -I] next to the
    256 x 4,140 map (a 39 MB peak when it did)."""
    law = dirichlet_law(8, 0.3)
    assert lp_feasibility(law).status == "Feasible"     # warm the caches
    tracemalloc.start()
    try:
        result = lp_feasibility(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "Feasible"
    assert peak < 20 * 2 ** 20


def test_lp_feasibility_n9_peak_memory_is_bounded():
    """The coloring map reaches HiGHS as CSC arrays gathered from the cached
    cells: no dense 512 x 21,147 map (a 102 MiB peak when it was built)."""
    law = dirichlet_law(9, 0.3)
    assert lp_feasibility(law).status == "Feasible"     # warm the caches
    tracemalloc.start()
    try:
        result = lp_feasibility(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "Feasible"
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("n", range(1, 10))
def test_color_map_csc_equals_the_sparse_dense_map(n):
    indptr, rows, index = _color_map_cells(n)
    col = np.repeat(np.arange(bell_number(n)), np.diff(indptr))
    for p in (0.3, 1 / 3, 0.5, np.nextafter(0.5, 0.0)):
        dense = np.zeros((2 ** n, bell_number(n)))      # the map as a scatter of the cells
        dense[rows, col] = _coloring_weights(n, p).ravel()[index]
        assert np.array_equal(color_map(n, p), dense)
        got, want = color_map_csc(n, p), csc_array(color_map(n, p))
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


# lp_feasibility before the LP took the CSC map, with presolve on: the verdict
# and the first 16 hex digits of the sha256 of q.vector's bytes (of the
# certificate for the negative-pair law).  Laws without a zero cell keep them,
# except the five at p = 1/2: their strict LP now starts from the cached basis
# of ``_start_basis`` and ends at another optimal vertex, so their q hashes
# were re-recorded.  Every verdict held.  The Dirichlet laws come from
# ``push_forward``, which now adds each cell in (column, row) order, so their
# cells moved in the last ulp and 15 q hashes were re-recorded.  Given the
# former bytes of the laws, the LP still gives every former pair: only the
# laws moved, not the LP.
RECORDED_LP_OUTPUTS = {
    (3, 0.3): ("Feasible", "3c70a419b3823f09"),
    (3, 1 / 3): ("Feasible", "c8c7a1bb6b10d7ac"),
    (3, 0.5): ("Feasible", "19d57b2894471266"),
    (4, 0.3): ("Feasible", "d70c34d4ceb3de6d"),
    (4, 1 / 3): ("Feasible", "0f6d75da5df44d01"),
    (4, 0.5): ("Feasible", "12047973ecb02db5"),
    (5, 0.3): ("Feasible", "0b7bfc48def2bcdf"),
    (5, 1 / 3): ("Feasible", "0a65d7e318a909cb"),
    (5, 0.5): ("Feasible", "f15437857c977776"),
    (6, 0.3): ("Feasible", "1a68633f1cdd9638"),
    (6, 1 / 3): ("Feasible", "b6b743478153668c"),
    (6, 0.5): ("Feasible", "cd5f5f7169231852"),
    (7, 0.3): ("Feasible", "84c83c1d2f7f7e3e"),
    (7, 1 / 3): ("Feasible", "1ce751fba226988c"),
    (7, 0.5): ("Feasible", "b7a573d8a585e04d"),
    "negative pair": ("Infeasible", "fb9bdd4acd799a9b"),
}


@pytest.mark.parametrize("case", RECORDED_LP_OUTPUTS, ids=str)
def test_lp_feasibility_keeps_its_recorded_outputs(case):
    law = negative_pair_law() if case == "negative pair" else dirichlet_law(*case)
    assert np.all(law.probs > 0.0)
    result = lp_feasibility(law)
    vector = result.certificate if result.q is None else result.q.vector
    assert (result.status, hashlib.sha256(vector.tobytes()).hexdigest()[:16]) \
        == RECORDED_LP_OUTPUTS[case]


def test_import_names_the_scipy_floor(monkeypatch):
    import scipy.optimize._highspy as highspy

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.delattr(highspy, "_core")
    monkeypatch.delitem(sys.modules, "dcrep.solver")
    with pytest.raises(ImportError, match=r"dcrep needs scipy >= 1\.15"):
        importlib.import_module("dcrep.solver")


@pytest.mark.parametrize("key", ["000", "111"])
def test_signed_rep_3_refuses_marginal_zero_and_one(key):
    """(1-p) p (1-2p) = 0 there: a ValueError, which ``solve`` reads as a
    route that does not fit, not a ZeroDivisionError."""
    law = BinaryLaw(3, np.eye(8)[int(key, 2)])
    with pytest.raises(ValueError, match=r"divides by \(1-p\) p \(1-2p\) = 0"):
        signed_rep_3(law)


# -- Feasible in relative terms ------------------------------------------------

NOT_DC_AT_LARGE_H = [(0.0, 0.5, 0.5), (0.05, 0.6825, 0.6825)]


@pytest.mark.parametrize("h", range(4, 9))
@pytest.mark.parametrize("rho", NOT_DC_AT_LARGE_H)
def test_a_law_with_tiny_cells_that_is_no_color_process_is_never_feasible(rho, h):
    """Both laws are NoColorRep for large h (``classify_large_h_3``), and
    their unique signed representation has a negative weight.  Their cells
    fall below the LP's absolute tolerance, so an objective of 0 found a q
    that missed them by up to 1e12 of a cell: each cell is now checked to a
    relative 1e-9."""
    law = plackett_law3(rho, h)
    assert lp_feasibility(law).status != "Feasible"


@pytest.mark.parametrize("h", [2, 3])
def test_a_color_process_with_small_cells_stays_feasible(h):
    law = plackett_law3((0.1, 0.5, 0.5), h)
    assert law.probs.min() < 1e-3
    res = lp_feasibility(law)
    assert res.status == "Feasible"
    pushed = push_forward(res.q, law.marginal_p).probs
    assert np.all(np.abs(pushed - law.probs) <= solver.REL_TOL * law.probs)


@pytest.mark.parametrize("h", [6, 7, 8])
@pytest.mark.parametrize("rho", NOT_DC_AT_LARGE_H)
def test_signed_rep_3_calls_tiny_negative_weights_infeasible(rho, h):
    """The smallest weight is -9.7e-10 to -3.5e-16 here, far below 0 against
    the rounding of its formula (at most 6e-24), though within FEAS_TOL."""
    rep = signed_rep_3(plackett_law3(rho, h))
    assert -solver.FEAS_TOL < min(rep.weights.values()) < 0.0
    assert not rep.feasible


@pytest.mark.parametrize("h", range(2, 7))
def test_signed_rep_3_keeps_a_color_process_with_tiny_cells_feasible(h):
    rep = signed_rep_3(plackett_law3((0.1, 0.5, 0.5), h))
    assert min(rep.weights.values()) > 0.0 and rep.feasible


@pytest.mark.parametrize("h", range(2, 9))
@pytest.mark.parametrize("rho", [*NOT_DC_AT_LARGE_H, (0.1, 0.5, 0.5)])
def test_no_feasible_lp_beside_an_infeasible_signed_representation(rho, h):
    law = plackett_law3(rho, h)
    if not signed_rep_3(law).feasible:
        assert lp_feasibility(law).status != "Feasible"


def test_mc_laws_keep_the_objective_rule():
    """The same cells with a standard error are a Monte Carlo law, which the
    relative check leaves alone: a relaxed (box) objective up to the
    tolerance reads Borderline with the box LP's q, since an MC law is never
    Feasible, and no strict LP runs."""
    law = plackett_law3(NOT_DC_AT_LARGE_H[0], 5)
    assert lp_feasibility(law).status == "Borderline"
    mc = BinaryLaw(3, law.probs, stderr=np.full(8, 1e-12))
    result = lp_feasibility(mc)
    assert result.status == "Borderline" and result.q is not None
    assert result.detail["relaxed_objective"] <= solver.FEAS_TOL
    assert "phase1_objective" not in result.detail


def test_an_mc_law_beside_an_infeasible_exact_law_never_reads_feasible():
    """The exact law of square_on_sphere_cov(pi/4 + 0.02) at h = 0 is
    Infeasible.  Its MC laws of 1,000 reflected pairs are flip-symmetric
    with marginals of exactly 1/2, and some pass the strict LP: read as
    Feasible, 5 of these 40 were wrong with confidence."""
    theta = math.pi / 4 + 0.02
    assert lp_feasibility(square_threshold_law_exact(theta)).status == "Infeasible"
    laws = [threshold_law_mc(square_on_sphere_cov(theta), 0.0, 1000, seed) for seed in range(40)]
    assert all(lp_feasibility(law).status != "Feasible" for law in laws)
    strict = [phase_one(color_map_csc(4, law.marginal_p), law.probs) for law in laws]
    assert sum(lp.objective <= solver.FEAS_TOL for lp in strict) >= 3


@pytest.mark.parametrize("theta, h, seeds", [
    (math.pi / 4 + 0.02, 0.005, range(40)),
    (math.pi / 4 + 0.02, 0.02, range(40)),
    (math.pi / 4 - 0.02, 0.0, range(60)),
])
def test_the_lp_decides_every_mc_square_law(theta, h, seeds):
    """1,000-sample square laws on which the former closed-form square
    solver failed: at pi/4 + 0.02 and h = 0.005 / 0.02 it raised ValueError
    on 1 / 2 of these 40 laws (its p = 1/2 screen and ``signed_rep_3``'s
    disagreed), and at pi/4 - 0.02 and h = 0, where the exact law is
    Feasible, it read 7 of these 60 Infeasible, with no certificate.  The LP
    raises on none, and reads no law Infeasible whose exact law is
    Feasible."""
    cov = square_on_sphere_cov(theta)
    results = [lp_feasibility(threshold_law_mc(cov, h, 1000, seed)) for seed in seeds]
    if theta < math.pi / 4:
        assert lp_feasibility(square_threshold_law_exact(theta)).feasible
        assert all(res.status != "Infeasible" for res in results)
    assert all(res.status in ("Borderline", "Infeasible") for res in results)


@pytest.mark.parametrize("m", [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_the_n4_counterexample_reads_infeasible_at_every_sample_count(m):
    """The paper's n = 4 counterexample, symmetric_plus_mean_cov(4, 0) at
    h = 0, from reflected pairs: Infeasible, with a certificate of the
    whole box that verifies exactly."""
    law = threshold_law_mc(symmetric_plus_mean_cov(4, 0), 0.0, m, 12003)
    res = lp_feasibility(law)
    assert res.status == "Infeasible"
    y = res.certificate
    assert float(np.max(color_map_csc(4, law.marginal_p).T @ y)) <= 1e-7
    assert float(y @ law.probs - law.halfwidth @ np.abs(y)) > 0.0
    assert phase_one_exact(4, law.marginal_p, law.probs, y, law.halfwidth)


@pytest.mark.parametrize("miss, missed", [
    ([1e-12, 0.0, 0.0, 0.0], False),            # 1e-12 of a cell of 0.5
    ([0.0, 0.0, 0.0, 0.99e-9 * 1e-6], False),
    ([0.0, 0.0, 0.0, 1.01e-9 * 1e-6], True),   # past 1e-9 of a cell of 1e-6
    ([0.0, 2e-16, 0.0, 0.0], False),            # within ZERO_CELL of a zero cell
    ([0.0, 3e-16, 0.0, 0.0], True),
    ([0.0, 0.0, 1e-16, 0.0], False),            # a cell of 1e-16 is zero
])
def test_misses_a_cell(miss, missed):
    nu = np.array([0.5, 0.0, 1e-16, 1e-6])
    assert solver._misses_a_cell(np.array(miss), nu) is missed
