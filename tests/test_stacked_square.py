"""The stacked square-on-sphere law and t-interval against the per-law code
they replace.

``reference_*`` below are ``square_threshold_law_exact``, the checks and
p = 1/2 interval of the former one-law square solver and the ``scan theta``
row loop as they were before the stack, kept as they were: one law at a
time, Python ``max``/``min``, numpy's 1-D sums.  Every comparison is exact:
floats by bits, CSV by bytes.  The interval's verdicts are checked against
``lp_feasibility``.
"""

import math
import tracemalloc

import numpy as np
import pytest

from dcrep import cli
from dcrep.gaussian import (_square_inclusion_exclusion, square_threshold_law_exact,
                            square_threshold_laws_exact)
from dcrep.partitions import BinaryLaw, _subset_cells
from dcrep.solver import RELAX_SIGMA, lp_feasibility, square_circle_intervals

from conftest import fmt_cell

STEP_THETAS = np.arange(0.001, math.pi / 2, 0.001)
EDGE_THETAS = np.array([math.pi / 4 - 1e-12, math.pi / 4, math.pi / 4 + 1e-12, math.pi / 2])


def reference_square_law(theta: float) -> np.ndarray:
    """One law: the (16, 16) term table, ``cumsum`` and a 1-D sum."""
    if not (0.0 < theta <= math.pi / 2):
        raise ValueError("theta must lie in (0, pi/2]")
    th_adj = math.acos(math.cos(theta) ** 2)
    th_diag = 2.0 * theta
    masses = np.array([1.0, 0.5, 0.5 - th_adj / (2 * math.pi),
                       0.5 - th_diag / (2 * math.pi),
                       0.5 - (2 * th_adj + th_diag) / (4 * math.pi),
                       0.5 - th_adj / math.pi])
    kinds, signs = _square_inclusion_exclusion()
    probs = np.cumsum(signs * masses[kinds], axis=1)[:, -1]
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


def _permute_law(probs: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Cells of the law of (X_{perm(1)}, ..., X_{perm(n)}), for the laws
    whose 2^n cells lie along the last axis of ``probs``."""
    out = np.empty_like(probs)
    out[..., _subset_cells(len(perm), perm)] = probs
    return out


def reference_interval(nu4: BinaryLaw):
    """The former square solver up to its p = 1/2 verdict, one law at a time:
    (p, None) off p = 1/2, else (p, (t_lo, t_hi, infeasible))."""
    noise = 0.0 if nu4.stderr is None else float(np.max(nu4.stderr))
    tol = max(1e-9, RELAX_SIGMA * noise)
    for perm in ((2, 3, 4, 1), (1, 4, 3, 2)):
        if float(np.max(np.abs(_permute_law(nu4.probs, perm) - nu4.probs))) > 4.0 * tol:
            raise ValueError("law is not dihedral-symmetric")
    if nu4.cell("0101") > 4.0 * tol or nu4.cell("1010") > 4.0 * tol:
        raise ValueError("nu_0101 must vanish for this family")
    marginals = nu4.marginals()
    marginal_tol = 1e-9 if nu4.stderr is None else max(1e-9, 5.0 * noise * 4)
    if float(marginals.max() - marginals.min()) > marginal_tol:
        raise ValueError("marginals differ")
    p = float(marginals.mean())
    if not abs(p - 0.5) <= max(1e-9, 2.0 * noise):
        return p, None
    nu3 = nu4.marginalize([1, 2, 3])
    tol3 = 1e-9 if nu3.stderr is None else max(1e-9, 5.0 * float(np.max(nu3.stderr)))
    if not nu3.is_zero_one_symmetric(tol3):
        raise ValueError("law is not {0,1}-symmetric")
    nu001, nu010, nu100 = nu3.cell("001"), nu3.cell("010"), nu3.cell("100")
    t_lo = max(0.0, 4.0 * (nu001 + nu010 + nu100) - 1.0)
    t_hi = 4.0 * min(nu001, nu010, nu100)
    singles = nu001 + nu010 + nu100
    lo = max(t_lo, (4.0 * nu010 + 4.0 * singles - 1.0) / 2.0, 0.0)
    hi = min(t_hi, 4.0 * (nu001 - nu010))
    return p, (lo, hi, lo > hi + tol)


def reference_scan_lines(step: float) -> list[str]:
    rows = []
    for th in np.arange(step, math.pi / 2, step).tolist():
        _, (lo, hi, infeasible) = reference_interval(BinaryLaw(4, reference_square_law(th)))
        rows.append([th, int(not infeasible), lo, hi,
                     math.pi / 8 - (math.acos(math.cos(th) ** 2) - th)])
    header = "theta,feasible,t_lo,t_hi,adjacency_gap"
    return [header] + [",".join(fmt_cell(v) for v in row) for row in rows]


def bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_stacked_laws_match_per_theta_reference():
    thetas = np.concatenate([STEP_THETAS, EDGE_THETAS])
    laws = square_threshold_laws_exact(thetas)
    assert laws.probs.shape == (len(thetas), 16)
    for i, th in enumerate(thetas.tolist()):
        assert bits(laws.probs[i]) == bits(reference_square_law(th)), th
        assert laws.th_adj[i] == math.acos(math.cos(th) ** 2)
        assert bits(square_threshold_law_exact(th).probs) == bits(laws.probs[i])


def test_stacked_intervals_match_per_law_reference():
    thetas = np.concatenate([STEP_THETAS, EDGE_THETAS])
    iv = square_circle_intervals(square_threshold_laws_exact(thetas).probs)
    for i, th in enumerate(thetas.tolist()):
        law = square_threshold_law_exact(th)
        _, (lo, hi, infeasible) = reference_interval(law)
        assert bits([iv.t_lo[i], iv.t_hi[i]]) == bits([lo, hi]), th
        assert iv.infeasible[i] == infeasible, th
        assert lp_feasibility(law).status == ("Infeasible" if infeasible else "Feasible"), th
    # the interval closes at pi/4: just past it, t_lo - t_hi ~ 4 (theta - pi/4)/pi
    # is within the 1e-9 tolerance; at pi/2 the interval is far from feasible
    gap = dict(zip(thetas.tolist(), (iv.t_lo - iv.t_hi).tolist()))
    assert gap[math.pi / 4 - 1e-12] < 0.0 == gap[math.pi / 4]
    assert 0.0 < gap[math.pi / 4 + 1e-12] < 1e-9
    assert gap[math.pi / 2] == 1.0


def test_stacked_law_rejects_theta_outside_the_family():
    for bad in (0.0, -0.1, math.pi / 2 + 1e-12, math.nan):
        with pytest.raises(ValueError, match="theta must lie"):
            square_threshold_laws_exact([0.5, bad, 1.0])
        with pytest.raises(ValueError, match="theta must lie"):
            square_threshold_law_exact(bad)


def dihedral_law(a, b, c, d, e) -> np.ndarray:
    """The dihedral law with nu_0101 = 0 that gives 0000 mass a, each single
    1 b, each adjacent pair c, each triple d and 1111 e."""
    probs = np.zeros(16)
    for idx in range(16):
        ones = bin(idx).count("1")
        probs[idx] = {0: a, 1: b, 3: d, 4: e}.get(ones, 0.0 if idx in (5, 10) else c)
    return probs


def test_the_reconstruction_cap_on_t_hi_decides():
    """Flip-symmetric dihedral laws whose adjacent pairs c weigh less than
    the singles b: t_hi = 4b but the cap 4 (nu_001 - nu_010) = 4c, so only the
    cap makes the first law Infeasible."""
    laws = np.array([dihedral_law(0.06, 0.1, 0.02, 0.1, 0.06),
                     dihedral_law(0.22, 0.05, 0.04, 0.05, 0.22)])
    iv = square_circle_intervals(laws)
    for i, probs in enumerate(laws):
        _, (lo, hi, infeasible) = reference_interval(BinaryLaw(4, probs))
        assert bits([iv.t_lo[i], iv.t_hi[i]]) == bits([lo, hi])
        assert iv.infeasible[i] == infeasible
    assert iv.t_hi.tolist() == pytest.approx([0.08, 0.16])
    assert iv.infeasible.tolist() == [True, False]


@pytest.mark.parametrize("step", [0.001, 0.0001, None], ids=["0.001", "0.0001", "default"])
def test_scan_theta_csv_matches_reference_loop(step, tmp_path):
    out = tmp_path / "theta.csv"
    argv = ["scan", "--scan", "theta", "--out", str(out)]
    assert cli.main(argv + ([] if step is None else ["--a-step", str(step)])) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1:] == reference_scan_lines(math.pi / 80 if step is None else step)


def test_scan_theta_peak_memory_is_bounded(tmp_path):
    """The rows are classified a block at a time: only the five 1-D columns
    and one block's laws and text are held, not a Python float per cell."""
    out = tmp_path / "theta.csv"
    argv = ["scan", "--scan", "theta", "--a-step", "0.0001", "--out", str(out)]
    assert cli.main(argv) == 0      # warm the caches
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20
