"""The stacked n = 3 classifiers against the per-point loop they replace.

``reference_*`` below are the per-matrix implementations of
``classify_large_h_3``, ``small_h_limits_3``, ``ab_region_classify`` and the
``scan ab`` row loop, kept as they were before the stacked kernel.  Every
comparison is exact: floats by ``repr``, CSV and JSON by bytes.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from dcrep import asymptotics as asym
from dcrep import cli
from dcrep import conditions as cond
from dcrep.conditions import (ZERO_BAND, ABRegion, LargeHVerdict, ab_region_classify,
                              ab_region_grid, classify_large_h_3, classify_stack_3,
                              is_dgff, savage_vector)
from dcrep.gaussian import CovarianceSpec, ab_cov, correlations3
from dcrep.reports import Verdict

from conftest import fmt_cell, random_standard_pd


def reference_large_h_3(cov: CovarianceSpec) -> LargeHVerdict:
    off = cov.offdiag()
    zeros = int(np.sum(np.abs(off) <= cond.POS_ENTRY_TOL))
    if zeros >= 2:
        return LargeHVerdict(Verdict.COLOR_REP, "zero-cov")
    if zeros == 1:
        return LargeHVerdict(Verdict.NO_COLOR_REP, "zero-cov")
    vec = savage_vector(cov)
    quad = float(np.ones(3) @ cov.inverse @ np.ones(3))
    low = float(np.min(vec))
    if low > ZERO_BAND:
        return LargeHVerdict(Verdict.COLOR_REP, "i", vec, quad)
    if low >= -ZERO_BAND:
        return LargeHVerdict(Verdict.COLOR_REP, "ii", vec, quad)
    if quad < 2.0:
        return LargeHVerdict(Verdict.COLOR_REP, "iii", vec, quad)
    return LargeHVerdict(Verdict.NO_COLOR_REP, "iii", vec, quad)


def reference_small_h(cov: CovarianceSpec) -> asym.SmallHLimits3:
    a = cov.a
    th = cov.angles
    t12, t13, t23 = th[0, 1], th[0, 2], th[1, 2]
    prod = (1.0 + a[0, 1]) * (1.0 + a[0, 2]) * (1.0 + a[1, 2])
    kappa = math.acos(max(-1.0, min(1.0, cov.det / prod - 1.0))) / math.pi
    return asym.SmallHLimits3(np.array([
        2.0 - 2.0 * kappa,                                  # 1|2|3
        (t12 + t13 - t23) / math.pi - 1.0 + kappa,          # 1|23
        (t13 + t23 - t12) / math.pi - 1.0 + kappa,          # 12|3
        2.0 - (t12 + t13 + t23) / math.pi - kappa,          # 123
        (t12 + t23 - t13) / math.pi - 1.0 + kappa]), kappa=kappa)  # 13|2


def reference_ab_region(a: float, b: float) -> ABRegion:
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0,1)")
    pd = 2.0 * a * a < 1.0 + b
    large = (2.0 * a - 1.0 <= b) or ((2.0 * a - 1.0) ** 2 < b)
    dgff, savage_min, case = False, float("nan"), None
    cov = ab_cov(a, b) if pd else None
    if cov is not None and not cov.is_pd:
        cov = None
    if cov is not None:
        dgff = is_dgff(cov)[0]
        verdict = reference_large_h_3(cov)
        if verdict.savage_vector is not None:
            savage_min = float(np.min(verdict.savage_vector))
        case = verdict.case_tag
        on_boundary = verdict.quadratic is not None and abs(verdict.quadratic - 2.0) <= 1e-9
        if verdict.color_for_large_h != large and not on_boundary:
            raise AssertionError(f"disagree at {(a, b)}")
    return ABRegion(a=a, b=b, pd=pd, numerically_pd=cov is not None, large_h_color=large,
                    dgff=dgff, markov_gap=b - a * a, savage_min=savage_min,
                    pd_margin=1.0 + b - 2.0 * a * a, case_tag=case)


def reference_scan_ab_rows(step: float) -> list[str]:
    values = np.arange(step, 1.0, step)
    lines = []
    for a in values:
        for b in values:
            reg = reference_ab_region(float(a), float(b))
            small = ""
            if reg.numerically_pd:
                small = 1 if reference_small_h(reg.cov()).minimum > 1e-10 else 0
            row = [reg.a, reg.b, int(reg.pd), int(reg.dgff), int(reg.large_h_color),
                   int(reg.markov_boundary), small, reg.savage_min, reg.pd_margin,
                   reg.markov_gap, reg.case_tag or ""]
            lines.append(",".join(fmt_cell(v) if not isinstance(v, str) else v for v in row))
    return lines


def same(x, y) -> bool:
    """Dataclasses equal field by field, floats and the entries of float
    vectors bit for bit (NaN equal to NaN, 0.0 unequal to -0.0)."""
    def fields(obj):
        return [[repr(v) for v in f.tolist()] if isinstance(f, np.ndarray)
                else repr(float(f)) if isinstance(f, (float, np.floating)) else f
                for f in dataclasses.astuple(obj)]
    return fields(x) == fields(y)


def ab_points() -> list[tuple[float, float]]:
    grid = [float(v) for v in np.arange(0.05, 1.0, 0.05)]
    pts = [(a, b) for a in grid for b in grid]
    for a in np.linspace(0.02, 0.98, 49).tolist():
        pts.append((a, a * a))                           # Markov chain line
        if a > 0.5:
            pts.append((a, 2.0 * a - 1.0))               # Savage sign change
            pts.append((a, (2.0 * a - 1.0) ** 2))        # large-h color boundary
    # where x ** 2 (libm pow) and x * x round apart, b on either value
    for a in np.linspace(0.55, 0.95, 4001).tolist():
        d = 2.0 * a - 1.0
        if d ** 2 != d * d:
            pts += [(a, d ** 2), (a, d * d)]
    return [(a, b) for a, b in pts if 0.0 < b < 1.0]


def pd_edge_points() -> list[tuple[float, float]]:
    """Points with 2a^2 within a few ulps of 1 + b, on both sides."""
    pts = []
    for a in np.linspace(0.75, 0.95, 41).tolist():
        b = 2.0 * a * a - 1.0
        for k in range(-3, 4):
            pts.append((a, b + k * math.ulp(b)))
        for eps in (1e-14, 1e-12, 1e-10, 1e-8):
            pts.append((a, b + eps))
    return [(a, b) for a, b in pts if 0.0 < b < 1.0]


def test_ab_region_matches_reference_loop():
    pts = ab_points()
    grid = ab_region_grid([a for a, _ in pts], [b for _, b in pts])
    for k, (a, b) in enumerate(pts):
        ref = reference_ab_region(a, b)
        assert same(ab_region_classify(a, b), ref), (a, b)
        assert same(grid.region(k), ref), (a, b)
    tags = {r for r in grid.case_tag}
    assert {"i", "ii", "iii", None} <= tags


def test_ab_region_pd_edge_takes_both_branches():
    pts = pd_edge_points()
    regs = [ab_region_classify(a, b) for a, b in pts]
    for (a, b), reg in zip(pts, regs):
        assert same(reg, reference_ab_region(a, b)), (a, b)
    edge = {(reg.pd, reg.numerically_pd) for reg in regs}
    assert {(True, True), (True, False), (False, False)} <= edge


def test_ab_region_cross_check_raises_on_planted_disagreement(monkeypatch):
    real = cond.classify_stack_3

    def flipped(mats):
        k = real(mats)
        return dataclasses.replace(k, large_h_color=k.pd & ~k.large_h_color)

    monkeypatch.setattr(cond, "classify_stack_3", flipped)
    with pytest.raises(AssertionError, match=r"\(a=0\.3, b=0\.5\)"):
        ab_region_classify(0.3, 0.5)
    # on b = (2a-1)^2 the quadratic form is 2 and either answer is accepted
    ab_region_classify(0.75, 0.25)
    # a grid reports its first disagreeing point in row order
    with pytest.raises(AssertionError, match=r"\(a=0\.2, b=0\.4\)"):
        ab_region_grid([0.9, 0.2, 0.3], [0.5, 0.4, 0.5])


def test_ab_region_grid_stops_where_the_loop_would():
    with pytest.raises(ValueError):
        ab_region_grid([0.3, 0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        ab_region_classify(float("nan"), 0.5)
    assert len(ab_region_grid([], []).a) == 0


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("outside", [(0.0, 0.5), (0.5, 1.0), (1.2, 0.3), (math.nan, 0.5)])
def test_ab_region_grid_refuses_one_point_outside_wherever_it_is(where, outside):
    """The whole grid is checked before any point is classified: the point
    (0.4, 1e-13), whose covariance within POS_ENTRY_TOL of 0 would raise its
    own ValueError, never gets that far."""
    a, b = [0.3, 0.4, 0.5, 0.6, 0.7], [0.5, 1e-13, 0.3, 0.2, 0.1]
    a[where], b[where] = outside
    with pytest.raises(ValueError, match=r"a and b must lie in \(0,1\)"):
        ab_region_grid(a, b)


def test_scan_ab_csv_matches_reference_loop(tmp_path):
    out = tmp_path / "ab.csv"
    assert cli.main(["scan", "--scan", "ab", "--a-step", "0.02", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2:] == reference_scan_ab_rows(0.02)
    assert len(lines[2:]) == 49 * 49


def test_stack_matches_per_matrix_classifiers(rng):
    mats = [random_standard_pd(rng, 3).a for _ in range(300)]
    for _ in range(300):
        v = rng.uniform(-0.3, 0.9, 3)
        v[rng.random(3) < 0.3] = 0.0
        mats.append(correlations3(*v).a)
    # inverses of M-matrices c I - W, standardized: free fields
    for _ in range(200):
        w = rng.uniform(0.0, 1.0, (3, 3))
        w = np.triu(w, 1) + np.triu(w, 1).T
        lam = np.linalg.eigvalsh(w)[-1]
        c = lam + rng.uniform(0.01, 1.0)
        a = np.linalg.inv(c * np.eye(3) - w)
        d = 1.0 / np.sqrt(np.diag(a))
        a = d[:, None] * a * d[None, :]
        mats.append(0.5 * (a + a.T))
    # a path 2-1-3 with a_23 = 0 whose inverse is Stieltjes within 1e-12:
    # only the strictly-positive-block condition rules out the free field
    mats += [correlations3(2e-7, 2e-7, 0.0).a, correlations3(2e-7, 0.0, 3e-7).a,
             correlations3(0.0, 0.5, 0.4).a, correlations3(0.0, 0.0, 0.4).a]
    k = classify_stack_3(np.array(mats))
    # the small-h limits of every PD matrix in one stack, as scan ab takes them
    q, kappa = asym.small_h_limits_stack(k.mats[k.pd], k.eigvals[k.pd])
    stack_row = np.cumsum(k.pd) - 1
    dgff_outcomes = set()
    for row, m in enumerate(mats):
        cov = CovarianceSpec(m)
        assert k.pd[row] == cov.is_pd
        if not cov.is_pd:
            continue
        ok, failures = is_dgff(cov)
        assert k.dgff[row] == ok, m
        dgff_outcomes.add((ok, tuple(f.split(" ")[0] for f in failures)))
        assert np.array_equal(k.savage_vector[row], savage_vector(cov))
        assert repr(float(k.quadratic[row])) == repr(float(np.ones(3) @ cov.inverse @ np.ones(3)))
        if np.min(cov.offdiag()) >= 0.0:
            ref = reference_large_h_3(cov)
            got = classify_large_h_3(cov)
            assert (got.verdict, got.case_tag) == (ref.verdict, ref.case_tag)
            assert repr(got.quadratic) == repr(ref.quadratic)
            assert np.array_equal(got.savage_vector, ref.savage_vector)
            assert k.large_h_color[row] == ref.color_for_large_h
            assert k.case_tag[row] == ref.case_tag
        lims = asym.small_h_limits_3(cov)
        assert same(lims, reference_small_h(cov))
        i = stack_row[row]
        assert same(lims, asym.SmallHLimits3(q[i], kappa[i]))
    assert {(True, ()), (False, ("block",)), (False, ("inverse",))} <= dgff_outcomes


@pytest.mark.parametrize("a", [
    [[1, 0.1, 0.5], [0.1, 1, 0.5], [0.5, 0.5, 1]],             # case i
    [[1, 0.7, 0.7], [0.7, 1, 0.4], [0.7, 0.4, 1]],             # case ii
    [[1, 0.05, 0.6825], [0.05, 1, 0.6825], [0.6825, 0.6825, 1]],  # case iii
    [[1, 0.0, 0.5], [0.0, 1, 0.5], [0.5, 0.5, 1]],             # one zero covariance
])
def test_analyze_json_matches_reference(a, tmp_path):
    out = tmp_path / "analyze.json"
    assert cli.main(["analyze", "--model", json.dumps({"a": a}), "--out", str(out)]) == 0
    text = out.read_text()
    payload = json.loads(text)
    cov = CovarianceSpec(a)
    lims = reference_small_h(cov)
    payload["results"]["large_h"] = reference_large_h_3(cov)
    payload["results"]["small_h"] = {"limits": lims.weights, "kappa": lims.kappa,
                                     "verdict": lims.verdict().value}
    expect = json.dumps(cli._plain(payload), indent=2, sort_keys=True) + "\n"
    assert text == expect
