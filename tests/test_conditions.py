import math

import numpy as np
import pytest

from dcrep import conditions
from dcrep.conditions import (SavageStatus, ab_region_classify, classify_degenerate,
                              classify_large_h_3, is_dgff, is_inverse_stieltjes,
                              savage_closed_form_3, savage_report, savage_status,
                              savage_vector)
from dcrep.gaussian import (CovarianceSpec, correlations3, fully_symmetric_cov,
                            markov_chain_cov, square_on_sphere_cov)
from dcrep.reports import Regime, Verdict, _plain

from conftest import random_inverse_stieltjes, random_standard_pd

SAVAGE_COUNTEREXAMPLE = np.array([
    [1.00, 0.81, 0.51, 0.40],
    [0.81, 1.00, 0.30, 0.50],
    [0.51, 0.30, 1.00, 0.50],
    [0.40, 0.50, 0.50, 1.00],
])


def test_inverse_stieltjes_examples():
    for n, a in [(3, 0.4), (5, 0.2)]:
        ok, bad = is_inverse_stieltjes(fully_symmetric_cov(n, a))
        assert ok and not bad
        # closed-form off-diagonal inverse entry
        inv = fully_symmetric_cov(n, a).inverse
        expect = -a / ((1 + (n - 1) * a) * (1 - a))
        assert inv[0, 1] == pytest.approx(expect, rel=1e-10)
    ok, _ = is_inverse_stieltjes(CovarianceSpec(np.eye(4)))
    assert ok


def test_inverse_stieltjes_epsilon_counterexample():
    a, eps = 0.5, 0.2
    cov = correlations3(a, a, a * a - eps)
    assert cov.is_pd  # eps < 1 - a^2
    ok, bad = is_inverse_stieltjes(cov)
    assert not ok
    assert bad[0][:2] == (2, 3)
    assert bad[0][2] > 0


def test_savage_pair_and_triple():
    a = 0.3
    vec = savage_vector(CovarianceSpec([[1, a], [a, 1]]))
    assert np.allclose(vec, 1.0 / (1.0 + a), atol=1e-12)

    cov = correlations3(0.1, 0.5, 0.5)
    rep = savage_report(cov)
    assert rep.savage is SavageStatus.STRICT
    assert 1 + 2 * 0.1 > 0.1 + 0.5 + 0.5  # the min-sum form of the same condition


def test_savage_closed_form_on_random_matrices(rng):
    for _ in range(200):
        cov = random_standard_pd(rng, 3)
        vec = savage_vector(cov)
        assert vec[0] * cov.det == pytest.approx(savage_closed_form_3(cov), abs=1e-10)


def test_savage_fully_symmetric():
    for n, a in [(3, 0.5), (6, 0.2)]:
        vec = savage_vector(fully_symmetric_cov(n, a))
        assert np.allclose(vec, 1.0 / (1.0 + (n - 1) * a), atol=1e-10)


def test_dgff_markov_chain_closed_forms():
    n, a = 5, 0.45
    cov = markov_chain_cov(n, a)
    ok, failures = is_dgff(cov)
    assert ok, failures
    inv = cov.inverse
    assert inv[0, 0] == pytest.approx(1 / (1 - a * a), rel=1e-10)
    assert inv[1, 1] == pytest.approx((1 + a * a) / (1 - a * a), rel=1e-10)
    assert inv[0, 1] == pytest.approx(-a / (1 - a * a), rel=1e-10)
    assert inv[0, 2] == pytest.approx(0.0, abs=1e-10)
    vec = savage_vector(cov)
    assert vec[0] == pytest.approx(1 / (1 + a), rel=1e-10)
    assert vec[2] == pytest.approx((1 - a) / (1 + a), rel=1e-10)


def test_dgff_accepts_and_rejects():
    assert is_dgff(fully_symmetric_cov(4, 0.3))[0]
    assert is_dgff(CovarianceSpec(np.eye(3)))[0]
    # the epsilon example is not inverse Stieltjes, hence not a free field
    ok, failures = is_dgff(correlations3(0.5, 0.5, 0.05))
    assert not ok
    assert any("inverse" in f for f in failures)


def test_dgff_block_structure():
    # two independent fully symmetric blocks: still a free field
    top = fully_symmetric_cov(2, 0.4).a
    bot = fully_symmetric_cov(3, 0.2).a
    block = np.zeros((5, 5))
    block[:2, :2] = top
    block[2:, 2:] = bot
    ok, failures = is_dgff(CovarianceSpec(block))
    assert ok, failures


def test_classify_large_h_3_paper_examples():
    assert classify_large_h_3(correlations3(0.1, 0.5, 0.5)).verdict is Verdict.COLOR_REP
    assert classify_large_h_3(correlations3(0.1, 0.5, 0.5)).case_tag == "i"
    v = classify_large_h_3(correlations3(0.05, 0.6825, 0.6825))
    assert v.verdict is Verdict.NO_COLOR_REP and v.case_tag == "iii"
    v = classify_large_h_3(correlations3(0.0, 0.5, 0.5))
    assert v.verdict is Verdict.NO_COLOR_REP and v.case_tag == "zero-cov"
    v = classify_large_h_3(correlations3(0.0, 0.0, 0.5))
    assert v.verdict is Verdict.COLOR_REP and v.case_tag == "zero-cov"


def test_classify_large_h_3_case_ii_boundary():
    # b = 2a - 1 puts the smallest Savage coordinate exactly at zero
    a = 0.7
    v = classify_large_h_3(correlations3(a, a, 2 * a - 1))
    assert v.case_tag == "ii"
    assert v.verdict is Verdict.COLOR_REP


def test_classify_large_h_3_agrees_with_savage(rng):
    checked = 0
    for _ in range(2000):
        if checked >= 150:
            break
        cov = random_standard_pd(rng, 3)
        if np.min(cov.offdiag()) <= 1e-6:
            continue
        v = classify_large_h_3(cov)
        rep = savage_report(cov)
        checked += 1
        if v.case_tag == "i":
            assert rep.savage is SavageStatus.STRICT
        elif v.case_tag == "ii":
            assert rep.savage is SavageStatus.WEAK
        else:
            assert rep.savage is SavageStatus.FAILS
            assert (v.verdict is Verdict.COLOR_REP) == (rep.quadratic < 2.0)
    assert checked > 100


def test_classify_large_h_errors():
    with pytest.raises(ValueError):
        classify_large_h_3(correlations3(-0.2, 0.5, 0.5))
    # degenerate: three points on a circle
    pts = np.array([[1, 0], [0.8, 0.6], [0.6, 0.8]])
    with pytest.raises(ValueError):
        classify_large_h_3(CovarianceSpec.from_points(pts))


def test_classify_degenerate_circle_points():
    pts = np.array([[1, 0], [math.cos(0.5), math.sin(0.5)], [math.cos(1.2), math.sin(1.2)]])
    reports = classify_degenerate(CovarianceSpec.from_points(pts))
    regimes = {r.regime for r in reports}
    assert Regime.ALL_POSITIVE_H in regimes
    assert Regime.LARGE_H in regimes
    any_h = next(r for r in reports if r.regime is Regime.ALL_POSITIVE_H)
    witness = any_h.witness
    assert witness["forbidden_pattern"] in ("101", "010")
    assert sorted((witness["forbidden_pattern"], witness["required_pattern"])) == ["010", "101"]


def test_classify_degenerate_square():
    reports = classify_degenerate(square_on_sphere_cov(0.7))
    assert [r.regime for r in reports] == [Regime.LARGE_H]  # null vector sums to zero


def test_classify_degenerate_full_rank():
    assert classify_degenerate(correlations3(0.2, 0.3, 0.1)) == []


def test_savage_counterexample_matrix():
    cov = CovarianceSpec(SAVAGE_COUNTEREXAMPLE)
    assert cov.is_pd
    assert savage_status(savage_vector(cov)) is SavageStatus.STRICT
    sub = cov.principal([1, 2, 3])
    assert savage_status(savage_vector(sub)) is SavageStatus.FAILS


def test_dgff_heredity(rng):
    # free-field conditions survive principal submatrices
    for _ in range(200):
        n = int(rng.integers(3, 6))
        cov = random_inverse_stieltjes(rng, n)
        assert is_dgff(cov)[0]
        keep = sorted(rng.choice(np.arange(1, n + 1),
                                 size=int(rng.integers(2, n)), replace=False).tolist())
        sub = cov.principal(keep)
        assert is_inverse_stieltjes(sub)[0]
        assert savage_status(savage_vector(sub)) in (SavageStatus.STRICT, SavageStatus.WEAK)


def test_savage_submatrix_identity(rng):
    # dropping index k shifts the ones-row by -(1'A^-1)(k) b_jk / b_kk
    for _ in range(100):
        n = int(rng.integers(3, 6))
        cov = random_inverse_stieltjes(rng, n)
        b = cov.inverse
        vec = savage_vector(cov)
        k = int(rng.integers(n))
        keep = [i + 1 for i in range(n) if i != k]
        sub_vec = savage_vector(cov.principal(keep))
        for pos, j in enumerate([i for i in range(n) if i != k]):
            expect = vec[j] - vec[k] * b[j, k] / b[k, k]
            assert sub_vec[pos] == pytest.approx(expect, abs=1e-8)


def test_quadratic_form_monotonicity(rng):
    # 1'A_{S\k}^-1 1 <= 1'A_S^-1 1 < 1 + 1'A_{S\k}^-1 1 on the same family
    ones = np.ones
    for _ in range(100):
        n = int(rng.integers(3, 6))
        cov = random_inverse_stieltjes(rng, n, standardize=True)
        quad = float(ones(n) @ cov.inverse @ ones(n))
        k = int(rng.integers(n))
        sub = cov.principal([i + 1 for i in range(n) if i != k])
        sub_quad = float(ones(n - 1) @ sub.inverse @ ones(n - 1))
        assert sub_quad <= quad + 1e-10
        assert quad < 1.0 + sub_quad + 1e-10


def test_ab_region_paper_points():
    reg = ab_region_classify(0.3, 0.2)
    assert reg.pd and reg.large_h_color and reg.dgff
    reg = ab_region_classify(0.8, 0.3)
    assert reg.pd and not reg.large_h_color
    reg = ab_region_classify(0.9, 0.5)
    assert not reg.pd
    with pytest.raises(ValueError):
        ab_region_classify(0.0, 0.5)


def test_ab_region_near_zero_covariance_is_a_typed_error():
    # b = 1e-13 is a zero covariance to the classifier (NoColorRep) but a
    # positive one to the closed form (ColorRep for a < 1/2)
    for a in (0.3, 0.5):
        with pytest.raises(ValueError, match="unresolved"):
            ab_region_classify(a, 1e-13)
    with pytest.raises(ValueError, match="unresolved"):
        ab_region_classify(0.3, 1e-12)
    # where the two agree, the near-zero points keep their answers
    reg = ab_region_classify(0.6, 1e-13)
    assert (reg.case_tag, reg.large_h_color) == ("zero-cov", False)
    reg = ab_region_classify(1e-13, 0.5)
    assert (reg.case_tag, reg.large_h_color) == ("zero-cov", True)
    reg = ab_region_classify(0.3, 1.1e-12)
    assert (reg.case_tag, reg.large_h_color) == ("i", True)


def test_ab_region_markov_boundary_is_dgff_boundary(rng):
    # free field exactly when b >= a^2 (inside the PD region)
    for _ in range(200):
        a = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.05, 0.95))
        reg = ab_region_classify(a, b)
        if not reg.pd or abs(b - a * a) < 1e-3:
            continue
        assert reg.dgff == (b > a * a)


def test_inverse_stieltjes_implies_dc_at_zero(rng):
    # distributional verification: the sign law of an inverse-Stieltjes
    # vector is always representable at threshold zero
    from dcrep.gaussian import threshold_law_mc, zero_threshold_law_3
    from dcrep.solver import lp_feasibility

    for _ in range(10):
        cov = random_inverse_stieltjes(rng, 3, standardize=True)
        res = lp_feasibility(zero_threshold_law_3(cov))
        assert res.status == "Feasible"
    for seed in range(4):
        cov = random_inverse_stieltjes(rng, 4, standardize=True)
        law = threshold_law_mc(cov, 0.0, 400_000, seed=seed)
        res = lp_feasibility(law)
        assert res.status in ("Feasible", "Borderline")


def test_symmetric_plus_mean_blocked_for_positive_h():
    from dcrep.gaussian import symmetric_plus_mean_cov

    for n, a in [(3, 0.0), (4, 0.3), (5, 0.6)]:
        reports = classify_degenerate(symmetric_plus_mean_cov(n, a))
        assert any(r.regime is Regime.ALL_POSITIVE_H for r in reports)
        any_h = next(r for r in reports if r.regime is Regime.ALL_POSITIVE_H)
        # the mean coordinate is forced up whenever the others are up
        assert any_h.witness["forbidden_pattern"].count("1") in (1, n - 1)


@pytest.mark.parametrize("make", [lambda: correlations3(0.1, 0.5, 0.5),
                                  lambda: CovarianceSpec(SAVAGE_COUNTEREXAMPLE)])
def test_savage_report_computes_each_condition_once(make, monkeypatch):
    cov = make()
    expect = savage_report(cov)
    calls = []
    for name in ("savage_vector", "is_inverse_stieltjes"):
        func = getattr(conditions, name)
        monkeypatch.setattr(conditions, name,
                            lambda c, name=name, func=func: calls.append(name) or func(c))
    rep = savage_report(cov)
    assert sorted(calls) == ["is_inverse_stieltjes", "savage_vector"]
    assert _plain(rep) == _plain(expect)
    assert (rep.dgff, rep.dgff_failures) == is_dgff(cov)
