"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from dcrep.asymptotics import (alt_example_constants, gamma_factor,
                               phase_transition_alpha, small_h_limits_3,
                               stable_limit_report)
from dcrep.cli import main as cli_main
from dcrep.conditions import (SavageStatus, classify_degenerate, classify_large_h_3,
                              is_dgff, is_inverse_stieltjes, savage_status,
                              savage_vector)
from dcrep.embeddings import ou_partition_batch, verify_color_property
from dcrep.gaussian import (CovarianceSpec, bivariate_threshold_exact, correlations3,
                            fully_symmetric_cov, markov_chain_cov, sheppard_pair,
                            square_on_sphere_cov, square_threshold_law_exact,
                            symmetric_plus_mean_cov, threshold_law_mc,
                            zero_threshold_law_3)
from dcrep.partitions import push_forward
from dcrep.reports import Regime, Verdict
from dcrep.solver import (lp_feasibility, signed_rep_3, square_circle_solver,
                          symmetric_plus_mean_gap, symmetric_rep_family_3)
from dcrep.stable import spectral_from_matrix, stable_markov_model

from conftest import random_inverse_stieltjes, random_standard_pd, random_probability_q


def report(name, ok, started, budget):
    elapsed = time.time() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s / budget {budget})")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_01_sheppard_consistency():
    t0 = time.time()
    ok = all(
        abs(bivariate_threshold_exact(a, 0.0) - (0.5 - math.acos(a) / (2 * math.pi))) <= 1e-9
        for a in (-0.9, -0.5, 0.0, 0.5, 0.9))
    report("1 sheppard consistency", ok, t0, 1.0)


def test_02_n3_roundtrip_and_lp_agreement():
    t0 = time.time()
    rng = np.random.default_rng(12001)
    ok = True
    for i in range(1000):
        q = random_probability_q(rng, 3)
        p = (0.2, 0.35, 0.7)[i % 3]
        nu = push_forward(q, p)
        rep = signed_rep_3(nu)
        ok &= all(abs(rep.weights[k] - q.weights.get(k, 0.0)) <= 1e-10
                  for k in rep.weights)
        ok &= rep.feasible
        ok &= lp_feasibility(nu).status == "Feasible"
        if not ok:
            break
    report("2 n=3 round-trip (1000 cases)", ok, t0, 30.0)


def test_03_four_dim_zero_threshold_infeasible():
    t0 = time.time()
    cov = symmetric_plus_mean_cov(4, 0.0)
    law = threshold_law_mc(cov, 0.0, 10_000_000, seed=12003)
    res = lp_feasibility(law)  # relaxes each cell by 3 stderr before giving up
    gap = symmetric_plus_mean_gap(4)
    ok = (res.status == "Infeasible"
          and abs(gap - 0.0919) < 5e-4
          and gap > 0.0)
    report("3 four-dim zero-threshold law is LP-infeasible under 3 SE relaxation",
           ok, t0, 120.0)


def test_04_large_h_classifier():
    t0 = time.time()
    v1 = classify_large_h_3(correlations3(0.1, 0.5, 0.5))
    v2 = classify_large_h_3(correlations3(0.05, 0.6825, 0.6825))
    v3 = classify_large_h_3(correlations3(0.0, 0.5, 0.5))
    ok = (v1.verdict is Verdict.COLOR_REP
          and v2.verdict is Verdict.NO_COLOR_REP
          and v3.verdict is Verdict.NO_COLOR_REP)
    report("4 large-h classifier on the three reference matrices", ok, t0, 1.0)


def test_05_small_h_limits():
    t0 = time.time()
    l1 = small_h_limits_3(correlations3(0.05, 0.6825, 0.6825))
    l2 = small_h_limits_3(correlations3(0.1, 0.5, 0.5))
    ok = abs(l1.weights["12|3"] - (-0.05)) <= 2e-3 and abs(l2.weights["12|3"] - (-0.016)) <= 2e-3
    rng = np.random.default_rng(12005)
    for _ in range(1000):
        lims = small_h_limits_3(random_standard_pd(rng, 3))
        ok &= abs(sum(lims.weights.values()) - 1.0) <= 1e-10
        if not ok:
            break
    report("5 small-h limits: reference values + sum-to-one on 1000 matrices",
           ok, t0, 30.0)


def test_06_sphere_square_phase_transition():
    t0 = time.time()
    theta = math.pi / 4
    res = square_circle_solver(theta, 0.0, square_threshold_law_exact(theta))
    gap = math.pi / 8 - (math.acos(math.cos(theta) ** 2) - theta)
    degenerate = classify_degenerate(square_on_sphere_cov(theta))
    ok = (res.status == "Feasible"
          and abs(gap - (math.pi / 8 - math.pi / 12)) <= 1e-12
          and any(r.verdict is Verdict.NO_COLOR_REP and r.regime is Regime.LARGE_H
                  for r in degenerate))
    report("6 sphere-square: feasible at (pi/4, 0), analytic gap, degenerate large-h",
           ok, t0, 5.0)


def test_07_stable_order1_limits():
    t0 = time.time()
    ok = True
    for a in (0.3, 0.5, 0.7):
        for alpha in (0.5, 1.0, 1.5):
            meas = spectral_from_matrix(stable_markov_model(a, alpha))
            rep = stable_limit_report(meas)
            t = a ** alpha
            expected = {"111": t * t, "110": t * (1 - t), "101": 0.0,
                        "011": t * (1 - t), "010": (1 - t) ** 2,
                        "100": 1 - t, "001": 1 - t}
            ok &= all(abs(rep.order1[p] - v) <= 1e-12 for p, v in expected.items())
            ok &= abs(sum(rep.q_limits.values()) - 1.0) <= 1e-12
    report("7 stable order-1 limits (Markov measure, 9 parameter pairs)", ok, t0, 5.0)


def test_08_phase_transition_at_half():
    t0 = time.time()
    root = phase_transition_alpha(tol=1e-9)
    grid = np.linspace(0.05, 0.95, 100)
    vals = [gamma_factor(float(al)) for al in grid]
    ok = abs(root - 0.5) <= 1e-6 and all(x < y for x, y in zip(vals, vals[1:]))
    report("8 phase transition at 1/2 + increasing Gamma functional", ok, t0, 1.0)


def test_09_alternative_symmetric_example():
    t0 = time.time()
    c = alt_example_constants(0.25, 0.25)
    ok = abs(c.c1 - 1.0) <= 1e-12 and c.regime == "ii"
    rng = np.random.default_rng(12009)
    count = 0
    for a in np.linspace(0.02, 0.65, 50):
        for b in np.linspace(0.02, 0.65, 50):
            if 2 * a * a + 2 * b * b >= 1.0:
                continue
            cc = alt_example_constants(float(a), float(b))
            probe = (cc.c1 + 2.0) / 2.0
            sign = cc.g(probe)
            if cc.regime == "i":
                ok &= cc.c2 <= cc.c1 and sign > 0
            elif cc.regime == "ii":
                ok &= cc.c2 >= 2.0 and sign < 0
            else:
                ok &= cc.c1 < cc.c2 < 2.0
                ok &= (sign > 0) == (probe > cc.c2)
            count += 1
            if not ok:
                break
        if not ok:
            break
    ok &= count > 1000
    report("9 two-weight family constants + regime boundaries on a 50x50 grid",
           ok, t0, 30.0)


def test_10_embedding_verification():
    t0 = time.time()
    a, m = 0.5, 100_000
    batch = ou_partition_batch(a, 3, m, seed=12010)
    law = batch.empirical_sign_law()
    exact = zero_threshold_law_3(markov_chain_cov(3, a))
    chi2 = float(np.sum((law.probs * m - m * exact.probs) ** 2 / (m * exact.probs)))
    p_value = float(stats.chi2.sf(chi2, 7))
    rep = verify_color_property(batch)
    ok = p_value >= 1e-3 and rep.aggregate_pass
    report("10 embedding verification (chi-square + push-forward within 4 SE)",
           ok, t0, 60.0)


def test_11_dgff_condition_suite():
    t0 = time.time()
    ok = True
    # closed-form inverse entries for the two reference families
    n, a = 5, 0.45
    mc = markov_chain_cov(n, a)
    ok &= is_dgff(mc)[0]
    inv = mc.inverse
    ok &= abs(inv[0, 0] - 1 / (1 - a * a)) <= 1e-10
    ok &= abs(inv[2, 2] - (1 + a * a) / (1 - a * a)) <= 1e-10
    ok &= abs(inv[0, 1] + a / (1 - a * a)) <= 1e-10
    vec = savage_vector(mc)
    ok &= abs(vec[0] - 1 / (1 + a)) <= 1e-10
    ok &= abs(vec[2] - (1 - a) / (1 + a)) <= 1e-10
    fs = fully_symmetric_cov(4, 0.3)
    ok &= is_dgff(fs)[0]
    ok &= abs(fs.inverse[0, 1] + 0.3 / ((1 + 3 * 0.3) * (1 - 0.3))) <= 1e-10
    # heredity + the submatrix identity on 200 random inverse-Stieltjes matrices
    rng = np.random.default_rng(12011)
    for _ in range(200):
        size = int(rng.integers(3, 6))
        cov = random_inverse_stieltjes(rng, size)
        b = cov.inverse
        vec = savage_vector(cov)
        k = int(rng.integers(size))
        keep = [i + 1 for i in range(size) if i != k]
        sub = cov.principal(keep)
        ok &= is_inverse_stieltjes(sub)[0]
        sub_vec = savage_vector(sub)
        ok &= float(np.min(sub_vec)) >= -1e-10
        for pos, j in enumerate([i for i in range(size) if i != k]):
            ok &= abs(sub_vec[pos] - (vec[j] - vec[k] * b[j, k] / b[k, k])) <= 1e-8
        if not ok:
            break
    # the 4x4 counterexample: full Savage holds, {1,2,3} submatrix fails
    bad = CovarianceSpec([[1.00, 0.81, 0.51, 0.40],
                          [0.81, 1.00, 0.30, 0.50],
                          [0.51, 0.30, 1.00, 0.50],
                          [0.40, 0.50, 0.50, 1.00]])
    ok &= savage_status(savage_vector(bad)) is SavageStatus.STRICT
    ok &= savage_status(savage_vector(bad.principal([1, 2, 3]))) is SavageStatus.FAILS
    report("11 free-field condition suite", ok, t0, 60.0)


def test_12_ab_region_scan(tmp_path):
    t0 = time.time()
    out = tmp_path / "ab.csv"
    code = cli_main(["scan", "--scan", "ab", "--a-step", "0.005", "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    cols = {name: header.index(name) for name in
            ("a", "b", "pd_margin", "savage_min", "large_h_color", "pd")}
    step = 0.005
    by_a: dict[float, list] = {}
    for line in lines[2:]:
        cells = line.split(",")
        by_a.setdefault(float(cells[cols["a"]]), []).append(cells)
    ok = code == 0
    for a, rows in by_a.items():
        rows.sort(key=lambda c: float(c[cols["b"]]))
        bs = [float(c[cols["b"]]) for c in rows]
        # pd boundary: sign change of 1 + b - 2a^2 at b = 2a^2 - 1
        crossing = [b for c, b in zip(rows, bs) if float(c[cols["pd_margin"]]) <= 0]
        analytic = 2 * a * a - 1
        if step < analytic < 1 - step:
            ok &= crossing and abs(max(crossing) + step / 2 - analytic) <= step
        # savage_min sign change at b = 2a - 1 (within the PD region)
        neg = [b for c, b in zip(rows, bs)
               if c[cols["pd"]] == "1" and float(c[cols["savage_min"]]) < 0]
        analytic = 2 * a - 1
        if step < analytic < 1 - step and neg:
            ok &= abs(max(neg) + step / 2 - analytic) <= step
        # large_h_color flips at b = (2a-1)^2 for a > 1/2
        not_color = [b for c, b in zip(rows, bs)
                     if c[cols["pd"]] == "1" and c[cols["large_h_color"]] == "0"]
        analytic = (2 * a - 1) ** 2
        if a > 0.5 + step and step < analytic < 1 - step and not_color:
            ok &= abs(max(not_color) + step / 2 - analytic) <= step
        if not ok:
            break
    report("12 (a,b) region scan recovers the three analytic boundaries", ok, t0, 5.0)
