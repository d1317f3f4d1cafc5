"""Independent checks of dcrep's outputs.

Nothing here imports dcrep.  The coloring map, the Gaussian orthant laws the
decide workload feeds in, the Farkas certificate check, the color property of
sampler batches and the scan columns are recomputed from their definitions,
so a defect in the library cannot also hide in its own check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np
from scipy import stats

# Family-wise false-alarm rate of every statistical check below.  A correct
# sampler fails one check with probability below this, so thousands of checks
# over many benchmark runs raise no spurious failure, while a wrong sampler at
# 10^4 or more samples still misses by orders of magnitude.
FALSE_ALARM = 1e-7


def partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n} as block tuples, via restricted growth strings."""
    out = []

    def grow(labels: list[int], k: int) -> None:
        if len(labels) == n:
            out.append(tuple(tuple(i + 1 for i in range(n) if labels[i] == b)
                             for b in range(k)))
            return
        for b in range(k + 1):
            grow(labels + [b], max(k, b + 1))

    grow([], 0)
    return out


def key(blocks) -> str:
    """dcrep's canonical partition key, e.g. '13|2'."""
    return "|".join("".join(str(i) for i in b) for b in sorted(blocks))


def parse_key(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    blocks = tuple(tuple(int(c) for c in part) for part in text.split("|"))
    if sorted(i for b in blocks for i in b) != list(range(1, n + 1)):
        raise ValueError(f"{text!r} is not a partition of [{n}]")
    return blocks


def column_cells(blocks, n: int):
    """(row, #blocks colored 1) for every coloring of the blocks; row 0 is 0^n."""
    for colors in itertools.product((0, 1), repeat=len(blocks)):
        row = sum(1 << (n - i) for b, c in zip(blocks, colors) if c for i in b)
        yield row, sum(colors)


def color_law(weights: dict, n: int, p: float) -> np.ndarray:
    """Law of the color process: {blocks: weight} pushed through the coloring map."""
    probs = np.zeros(2 ** n)
    for blocks, w in weights.items():
        kk = len(blocks)
        for row, k in column_cells(blocks, n):
            probs[row] += w * p ** k * (1.0 - p) ** (kk - k)
    return probs


def orthant_law(n: int, upper) -> np.ndarray:
    """Cells of a binary law from its upper probabilities u(T) = P(X_i = 1, i in T).

    Inclusion-exclusion: nu(exactly T) = sum over S >= T of (-1)^|S-T| u(S).
    """
    probs = np.zeros(2 ** n)
    full = range(1, n + 1)
    for row in range(2 ** n):
        ones = frozenset(i for i in full if row >> (n - i) & 1)
        rest = [i for i in full if i not in ones]
        probs[row] = math.fsum((-1) ** r * upper(ones | frozenset(extra))
                               for r in range(len(rest) + 1)
                               for extra in itertools.combinations(rest, r))
    return probs


def gaussian3_zero_law(a12: float, a13: float, a23: float) -> np.ndarray:
    """Sign law of a standard Gaussian triple (Sheppard's formula and its triple form)."""
    th = {frozenset((1, 2)): math.acos(a12), frozenset((1, 3)): math.acos(a13),
          frozenset((2, 3)): math.acos(a23)}

    def upper(t: frozenset) -> float:
        if len(t) <= 1:
            return 0.5 ** len(t)
        if len(t) == 2:
            return 0.5 - th[t] / (2.0 * math.pi)
        return 0.5 - sum(th.values()) / (4.0 * math.pi)

    return orthant_law(3, upper)


def square_zero_law(theta: float) -> np.ndarray:
    """Sign law of four points in a square at latitude theta on the 2-sphere.

    Adjacent points have correlation cos^2(theta), diagonal ones cos(2 theta);
    X_1 + X_3 = X_2 + X_4 makes 0101 impossible, which fixes the fourfold
    orthant as 2 u(triple) - u(diagonal pair).
    """
    th_adj = math.acos(math.cos(theta) ** 2)
    th_diag = 2.0 * theta
    triple = 0.5 - (2.0 * th_adj + th_diag) / (4.0 * math.pi)
    diag = 0.5 - th_diag / (2.0 * math.pi)

    def upper(t: frozenset) -> float:
        if len(t) <= 1:
            return 0.5 ** len(t)
        if len(t) == 2:
            return diag if t in ({1, 3}, {2, 4}) else 0.5 - th_adj / (2.0 * math.pi)
        if len(t) == 3:
            return triple
        return 2.0 * triple - diag

    return orthant_law(4, upper)


def ou_chain3_law(a: float) -> np.ndarray:
    """Sign law of a stationary Gaussian chain of length 3 with step correlation a."""
    return gaussian3_zero_law(a, a * a, a)


def marginal_p(probs: np.ndarray, n: int) -> float:
    rows = np.arange(2 ** n)
    return float(np.mean([probs[(rows >> (n - 1 - i)) & 1 == 1].sum() for i in range(n)]))


def z_limit(cells: int) -> float:
    """Two-sided normal quantile at FALSE_ALARM shared over ``cells`` comparisons."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * cells))


def empirical_problem(observed: np.ndarray, expected: np.ndarray, m: int) -> str | None:
    """Do m-sample cell frequencies match a law, cell by cell?"""
    se = np.sqrt(np.maximum(expected * (1.0 - expected), 1.0 / m) / m)
    worst = float(np.max(np.abs(observed - expected) / se))
    limit = z_limit(expected.size)
    return None if worst <= limit else f"cell off by {worst:.2f} SE (limit {limit:.2f})"


def partition_rows(labels: np.ndarray) -> np.ndarray:
    """Each row's partition, as the smallest (0-based) element of every element's block."""
    m, n = labels.shape
    first = np.tile(np.arange(n), (m, 1))
    for i in range(n - 1, -1, -1):
        first[labels == labels[:, i:i + 1]] = i
    return first


# Bins with fewer expected samples per block coloring are not tested; the
# same minimum as verify_color_property's default, so that the two bin sets
# can be compared.
MIN_EXPECTED = 5.0


def batch_problem(signs, labels, report, chain3_a: float | None = None) -> str | None:
    """Check a sampler's batch from its raw arrays, then the report dcrep made of it.

    The color property, recomputed here: the sign is constant on each block;
    within each partition bin the block colors are iid fair coins (chi-square
    over the 2^k colorings, at the family-wise FALSE_ALARM rate); and the sign
    law matches the push-forward of the empirical partition law at p = 1/2.
    At least one bin must be tested.  ``chain3_a`` also holds the sign law to
    the closed form of a Gaussian chain of length 3.  The report must then
    agree with these recomputed bins and aggregate deviation.
    """
    signs, labels = np.asarray(signs), np.asarray(labels)
    m, n = signs.shape
    if labels.shape != (m, n) or not np.isin(signs, (-1, 1)).all():
        return "signs are not +-1, or labels do not match them in shape"
    first = partition_rows(labels)
    if not (np.take_along_axis(signs, first, axis=1) == signs).all():
        return "a block holds both signs"
    bits = (signs > 0).astype(np.int64)
    codes = first @ (n ** np.arange(n))
    _, rows, inverse, counts = np.unique(codes, return_index=True, return_inverse=True,
                                         return_counts=True)
    weights, tested, excluded = {}, [], 0
    for g, (row, count) in enumerate(zip(rows, counts)):
        reps = sorted(set(first[row].tolist()))
        blocks = tuple(tuple(j + 1 for j in range(n) if first[row, j] == r) for r in reps)
        weights[blocks] = count / m
        k = len(reps)
        expected = count / 2 ** k
        if expected < MIN_EXPECTED:
            excluded += 1
            continue
        colorings = bits[inverse.ravel() == g][:, reps] @ (1 << np.arange(k - 1, -1, -1))
        chi2 = float(np.sum((np.bincount(colorings, minlength=2 ** k) - expected) ** 2 / expected))
        tested.append((int(count), chi2, float(stats.chi2.sf(chi2, 2 ** k - 1))))
    if not tested:
        return "no partition bin has enough samples to be tested"
    worst_p = min(p for _, _, p in tested)
    if worst_p < FALSE_ALARM / len(tested):
        return f"bin chi-square p = {worst_p:.3g} over {len(tested)} bins"
    sign_law = np.bincount(bits @ (1 << np.arange(n - 1, -1, -1)), minlength=2 ** n) / m
    se = np.sqrt(np.maximum(sign_law * (1.0 - sign_law), 1.0 / m) / m)
    aggregate = float(np.max(np.abs(sign_law - color_law(weights, n, 0.5)) / se))
    limit = z_limit(2 ** n)
    if aggregate > limit:
        return f"aggregate off by {aggregate:.2f} SE (limit {limit:.2f})"
    if chain3_a is not None:
        problem = empirical_problem(sign_law, ou_chain3_law(chain3_a), m)
        if problem:
            return f"sign law against the Gaussian chain: {problem}"

    got = sorted((b.count, b.chi2) for b in report.bins)
    want = sorted((count, chi2) for count, chi2, _ in tested)
    if (report.n_samples != m or len(got) != len(want)
            or len(report.excluded_bins) != excluded):
        return (f"report has {report.n_samples} samples, {len(got)} bins tested and "
                f"{len(report.excluded_bins)} excluded; expected {m}, {len(want)} "
                f"and {excluded}")
    close = [gc == wc and math.isclose(gx, wx, rel_tol=1e-6, abs_tol=1e-6)
             for (gc, gx), (wc, wx) in zip(got, want)]
    if not all(close):
        return "report's bin counts or chi-square values differ from the batch's"
    if not math.isclose(report.aggregate_max_dev_se, aggregate, rel_tol=1e-6, abs_tol=1e-6):
        return (f"report's aggregate deviation {report.aggregate_max_dev_se:.6g} SE, "
                f"the batch's {aggregate:.6g} SE")
    return None


# -- decisions ----------------------------------------------------------------

def q_problem(q_weights: dict, nu: np.ndarray, n: int, tol: np.ndarray | float) -> str | None:
    """Is q a probability vector over B_n whose push-forward is nu within tol?"""
    weights = {parse_key(k, n): w for k, w in q_weights.items()}
    vals = np.array(list(weights.values()))
    if vals.min() < -1e-12:
        return f"negative weight {vals.min():.3g}"
    if abs(math.fsum(vals) - 1.0) > 1e-9:
        return f"weights sum to {math.fsum(vals)!r}"
    dev = np.abs(color_law(weights, n, marginal_p(nu, n)) - nu)
    if np.any(dev > tol):
        return f"|A q - nu| = {float(dev.max()):.3g} exceeds the route tolerance"
    return None


def relaxed_tolerance(nu: np.ndarray, m: int) -> np.ndarray:
    """Per-cell reach of a q found on dcrep's +-3 stderr relaxation.

    The LP finds x >= 0 with |A x - nu| <= 3 se cellwise and returns
    q = x / sum(x); since the columns of A and nu both sum to 1, rescaling
    moves cell i by at most nu_i 3 sum(se) beyond the box.
    """
    se = np.sqrt(nu * (1.0 - nu) / m)
    return 3.0 * se * (1.0 + 1e-6) + nu * 3.0 * float(se.sum()) + 1e-8


def certificate_problem(y, nu: np.ndarray, n: int) -> str | None:
    """Does y prove that nu is no color process?  Checked in exact arithmetic.

    Every column of the coloring map sums to 1, so y - max(y'A) 1 satisfies
    y'A <= 0 exactly; it remains to check (y - max(y'A) 1)'nu > 0.
    """
    if y is None:
        return "Infeasible verdict without a certificate"
    p = Fraction(marginal_p(nu, n))
    ys = [Fraction(float(v)) for v in y]
    nus = [Fraction(float(v)) for v in nu]
    if len(ys) != len(nus):
        return f"certificate has {len(ys)} entries, law has {len(nus)}"
    best = max(sum(ys[row] * p ** k * (1 - p) ** (len(blocks) - k)
                   for row, k in column_cells(blocks, n))
               for blocks in partitions(n))
    value = sum(a * b for a, b in zip(ys, nus)) - best * sum(nus)
    return None if value > 0 else f"shifted y'nu = {float(value):.3g} is not positive"


def decision_problem(result, expect: str, nu: np.ndarray, n: int,
                     mc_samples: int | None = None) -> str | None:
    """Check a FeasibilityResult against the verdict known by construction.

    ``expect`` is "Feasible" (exact law, color process by construction),
    "representable" (MC law of a color process: Feasible or Borderline) or
    "Infeasible".
    """
    status = result.status
    allowed = {"Feasible": ("Feasible",), "representable": ("Feasible", "Borderline"),
               "Infeasible": ("Infeasible",)}[expect]
    if status not in allowed:
        return f"verdict {status}, expected {expect}"
    if status == "Infeasible":
        return certificate_problem(result.certificate, nu, n)
    if result.q is None:
        return f"{status} verdict without q"
    tol = 1e-8 if status == "Feasible" else relaxed_tolerance(nu, mc_samples)
    return q_problem(result.q.weights, nu, n, tol)


# -- scans --------------------------------------------------------------------

def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def grid(step: float, stop: float) -> np.ndarray:
    return np.arange(step, stop, step)


# Grid points this close to a region boundary are not checked: float rounding
# of the inequality decides them, not the closed form.
BOUNDARY = 1e-9


def scan_ab_problem(path, step: float) -> tuple[str | None, int]:
    """pd and large_h_color from the closed-form inequalities, on the full grid.

    A column is not checked at points within BOUNDARY of one of its boundaries.
    """
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    values = grid(step, 1.0)
    if len(rows) != values.size ** 2:
        return f"{len(rows)} rows, expected {values.size ** 2}", len(rows)
    for k, row in enumerate(rows):
        a, b = float(row[col["a"]]), float(row[col["b"]])
        if (a, b) != (float(values[k // values.size]), float(values[k % values.size])):
            return f"row {k} is ({a}, {b}), off the grid", len(rows)
        c = 2.0 * a - 1.0
        pd = 2.0 * a * a < 1.0 + b
        if abs(1.0 + b - 2.0 * a * a) > BOUNDARY and row[col["pd"]] != str(int(pd)):
            return f"row {k} (a={a}, b={b}): pd disagrees", len(rows)
        if (abs(b - c) > BOUNDARY and abs(b - c * c) > BOUNDARY
                and row[col["large_h_color"]] != str(int(c <= b or c * c < b))):
            return f"row {k} (a={a}, b={b}): large_h_color disagrees", len(rows)
    return None, len(rows)


def scan_theta_problem(path, step: float) -> tuple[str | None, int]:
    """feasible must equal theta <= pi/4 away from the boundary."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    values = grid(step, math.pi / 2)
    if len(rows) != values.size:
        return f"{len(rows)} rows, expected {values.size}", len(rows)
    for k, row in enumerate(rows):
        th = float(row[col["theta"]])
        if th != float(values[k]):
            return f"row {k} has theta {th}, off the grid", len(rows)
        if abs(th - math.pi / 4) > BOUNDARY and row[col["feasible"]] != str(int(th < math.pi / 4)):
            return f"theta={th}: feasible={row[col['feasible']]}", len(rows)
    return None, len(rows)


def scan_alpha_problem(path, step: float, a: float) -> tuple[str | None, int]:
    """gamma_factor, the order-2 limit and the threshold from their closed forms."""
    header, rows = read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    values = grid(step, 2.0)
    if len(rows) != values.size:
        return f"{len(rows)} rows, expected {values.size}", len(rows)
    for k, row in enumerate(rows):
        al = float(row[col["alpha"]])
        if al != float(values[k]):
            return f"row {k} has alpha {al}, off the grid", len(rows)
        t = a ** al
        if al < 1.0:
            g = al * math.gamma(2.0 * al) * math.gamma(1.0 - al) / math.gamma(1.0 + al)
            o2 = (1.0 - t) ** 2 + t * (1.0 - t) * g
        else:
            g = o2 = math.inf
        got = [float(row[col[c]]) for c in ("gamma_factor", "order2_101", "coupling_threshold")]
        for name, want, have in zip(("gamma_factor", "order2_101", "threshold"),
                                    (g, o2, 1.0 - t), got):
            if not (want == have or abs(want - have) <= 1e-9 * abs(want)):
                return f"alpha={al}: {name} {have!r}, expected {want!r}", len(rows)
        if abs(o2 - (1.0 - t)) > BOUNDARY and row[col["large_h_color"]] != str(int(o2 > 1.0 - t)):
            return f"alpha={al}: large_h_color disagrees", len(rows)
    return None, len(rows)
