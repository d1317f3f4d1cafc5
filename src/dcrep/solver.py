"""Deciding divide-and-color representability of a binary law.

Three routes, used where each is exact:
  * n = 3, p != 1/2: the unique signed representation in closed form;
  * n = 3, p = 1/2 ({0,1}-symmetric): the one-parameter t-family;
  * general n: phase-I LP feasibility over the coloring map, solved by HiGHS,
    with a Farkas certificate on infeasibility and a +-3 stderr relaxation
    for MC laws.  ``exact=True`` keeps the float solve and checks the
    certificate by an integer check over the cells before calling a law Infeasible.
A symmetry-reduced solver handles the four-points-on-a-circle family, where
the alternating pattern is forbidden and the dihedral symmetry collapses the
problem to the t-family of the first three coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .partitions import (BinaryLaw, PartitionDistribution, _color_map_cells, color_map,
                         color_map_exact, enumerate_partitions, push_forward)
from .reports import Verdict

FEAS_TOL = 1e-9
P_HALF_TOL = 1e-9
PRIMAL_FEAS_TOL = 1e-10  # HiGHS primal feasibility tolerance in phase I
# an MC law's cells are widened by this many stderr before it is called
# Infeasible, so sampling noise can only soften a verdict to Borderline
RELAX_SIGMA = 3.0


def _noise_tol(nu: BinaryLaw) -> float:
    """Tolerance for one cell: 1e-9 on an exact law, 5 stderr on an MC law."""
    return 1e-9 if nu.stderr is None else max(1e-9, 5.0 * float(np.max(nu.stderr)))


def _marginal_tol(nu: BinaryLaw) -> float:
    """Tolerance for a marginal, a sum of 2^(n-1) cells: 5 n stderr on an MC law."""
    if nu.stderr is None:
        return 1e-9
    return max(1e-9, 5.0 * float(np.max(nu.stderr)) * nu.n)


def _require_equal_marginals(nu: BinaryLaw, tol: float) -> float:
    marginals = nu.marginals()
    gap = float(marginals.max() - marginals.min())
    if gap > tol:
        raise ValueError(f"marginals differ by {gap:.3g} (> {tol:.3g}); "
                         "a color process has equal marginals")
    return float(marginals.mean())


@dataclass(frozen=True)
class SignedRep3:
    """The unique signed representation of a 3-dim law with marginal p != 1/2."""

    p: float
    q_1_2_3: float
    q_12_3: float
    q_13_2: float
    q_1_23: float
    q_123: float
    feasible: bool

    def weights(self) -> dict[str, float]:
        return {"1|2|3": self.q_1_2_3, "12|3": self.q_12_3, "13|2": self.q_13_2,
                "1|23": self.q_1_23, "123": self.q_123}

    def as_distribution(self) -> PartitionDistribution:
        return PartitionDistribution(3, self.weights(), signed=not self.feasible)

    def min_weight(self) -> float:
        return min(self.weights().values())


def signed_rep_3(nu: BinaryLaw, tol: float = FEAS_TOL) -> SignedRep3:
    """Closed-form signed representation for n = 3, marginal p != 1/2.

    q_{1,2,3} = (nu_100 - nu_011) / ((1-p) p (1-2p)) and cyclic variants;
    the law is a color process iff all five entries are nonnegative.
    """
    if nu.n != 3:
        raise ValueError("signed_rep_3 needs n = 3")
    p = _require_equal_marginals(nu, _marginal_tol(nu))
    if abs(p - 0.5) <= P_HALF_TOL:
        raise ValueError("p = 1/2 has a one-parameter family; "
                         "use symmetric_rep_family_3")
    c = nu.cell
    den = (1.0 - p) * p * (1.0 - 2.0 * p)
    q_sing = (c("100") - c("011")) / den
    q12_3 = ((1.0 - p) * c("110") - p * c("001")) / den
    q13_2 = ((1.0 - p) * c("101") - p * c("010")) / den
    q1_23 = ((1.0 - p) * c("011") - p * c("100")) / den
    q123 = 1.0 - (p * c("000") - (1.0 - p) * c("111")) / den
    feasible = min(q_sing, q12_3, q13_2, q1_23, q123) >= -tol
    return SignedRep3(p=p, q_1_2_3=q_sing, q_12_3=q12_3, q_13_2=q13_2,
                      q_1_23=q1_23, q_123=q123, feasible=feasible)


@dataclass(frozen=True)
class SymmetricRepFamily3:
    """The t-family of representations of a {0,1}-symmetric 3-dim law.

    q_123  = 1 - 4(nu_001 + nu_010 + nu_100) + t
    q_12_3 = 4 nu_001 - t,  q_13_2 = 4 nu_010 - t,  q_1_23 = 4 nu_100 - t
    q_1_2_3 = 2t
    valid (all nonnegative) exactly for t in [t_lo, t_hi].
    """

    nu_001: float
    nu_010: float
    nu_100: float
    t_lo: float
    t_hi: float

    @property
    def is_empty(self) -> bool:
        return self.t_lo > self.t_hi + FEAS_TOL

    @property
    def t_interval(self) -> tuple[float, float] | None:
        return None if self.is_empty else (self.t_lo, self.t_hi)

    def weights_at(self, t: float) -> dict[str, float]:
        singles = self.nu_001 + self.nu_010 + self.nu_100
        return {
            "123": 1.0 - 4.0 * singles + t,
            "12|3": 4.0 * self.nu_001 - t,
            "13|2": 4.0 * self.nu_010 - t,
            "1|23": 4.0 * self.nu_100 - t,
            "1|2|3": 2.0 * t,
        }

    def at(self, t: float) -> PartitionDistribution:
        w = self.weights_at(t)
        signed = min(w.values()) < -FEAS_TOL
        return PartitionDistribution(3, w, signed=signed)

    def canonical(self) -> PartitionDistribution:
        """The reproducible representative: t = t_lo."""
        if self.is_empty:
            raise ValueError("family interval is empty; no representation")
        return self.at(self.t_lo)


def symmetric_rep_family_3(nu: BinaryLaw) -> SymmetricRepFamily3:
    """All representations of a {0,1}-symmetric n=3 law, as the t-interval."""
    if nu.n != 3:
        raise ValueError("symmetric_rep_family_3 needs n = 3")
    if not nu.is_zero_one_symmetric(_noise_tol(nu)):
        raise ValueError("law is not {0,1}-symmetric; use signed_rep_3 / lp_feasibility")
    c = nu.cell
    nu001, nu010, nu100 = c("001"), c("010"), c("100")
    t_lo = max(0.0, 4.0 * (nu001 + nu010 + nu100) - 1.0)
    t_hi = 4.0 * min(nu001, nu010, nu100)
    return SymmetricRepFamily3(nu_001=nu001, nu_010=nu010, nu_100=nu100,
                               t_lo=t_lo, t_hi=t_hi)


def gaussian_sym_family_interval(cov) -> tuple[float, float]:
    """The same t-interval, in angle form: [max(0, S/pi - 1), (S - 2 max)/pi]."""
    th = cov.angles
    t12, t13, t23 = th[0, 1], th[0, 2], th[1, 2]
    s = t12 + t13 + t23
    return (max(0.0, s / math.pi - 1.0), (s - 2.0 * max(t12, t13, t23)) / math.pi)


# -- LP feasibility -----------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityResult:
    status: str                               # "Feasible" | "Infeasible" | "Borderline"
    q: PartitionDistribution | None
    infeasibility_margin: float               # max |A q* - nu| at the best point found
    certificate: np.ndarray | None = None     # Farkas y: y'A <= 0, y'nu > 0
    detail: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == "Feasible"

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "q": None if self.q is None else
                {k: v for k, v in sorted(self.q.weights.items())},
            "infeasibility_margin": self.infeasibility_margin,
            "certificate": None if self.certificate is None
                else [float(v) for v in self.certificate],
            "detail": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                       for k, v in self.detail.items()},
        }


def _extract_q(n: int, x: np.ndarray) -> PartitionDistribution:
    x = np.clip(x, 0.0, None)
    x = x / x.sum()
    return PartitionDistribution.from_vector(n, x)


@dataclass(frozen=True)
class PhaseOneResult:
    objective: float            # minimal total slack mass (0 <=> feasible)
    x: np.ndarray               # the point q
    y: np.ndarray               # equality multipliers (Farkas certificate if infeasible)
    pivots: int                 # HiGHS simplex iterations


def phase_one(a, b, slack=None) -> PhaseOneResult:
    """Phase-I LP by HiGHS: minimize 1'(s+ + s-) subject to
    A q + e + s+ - s- = b, with q, s+, s- >= 0 and |e| <= slack cellwise
    (e = 0 when ``slack`` is None).

    The optimum is 0 iff some q >= 0 has |A q - b| <= slack.  The equality
    multipliers y satisfy y'A <= 0 and, without slack, y'b = objective, so on
    a positive optimum they are a Farkas certificate.
    """
    a = np.asarray(a, dtype=float)
    m, k = a.shape
    eye = np.eye(m)
    blocks = [a, eye, -eye]
    cost = np.concatenate([np.zeros(k), np.ones(2 * m)])
    bounds = [(0.0, None)] * (k + 2 * m)
    if slack is not None:
        blocks.append(eye)
        cost = np.concatenate([cost, np.zeros(m)])
        bounds += [(-s, s) for s in np.asarray(slack, dtype=float)]
    # at HiGHS's default primal feasibility tolerance, 1e-7, an optimum of 0
    # can leave |A q - b| near 1e-7 (8.5e-8 on an n = 6 law at p = 1/2)
    res = linprog(cost, A_eq=np.hstack(blocks), b_eq=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": PRIMAL_FEAS_TOL})
    if res.status != 0:
        raise RuntimeError(f"HiGHS phase I failed: {res.message}")
    return PhaseOneResult(objective=float(res.fun), x=res.x[:k],
                          y=res.eqlin.marginals, pivots=int(res.nit))


def phase_one_exact(n: int, p: float, nu, y) -> bool:
    """Does y prove, in exact arithmetic, that nu = color_map(n, p) q has no
    solution q >= 0?  The floats p, nu and y are taken exactly.

    Every column of the coloring map sums to 1, so with delta = max_j (y'A)_j
    the shifted y - delta 1 satisfies y'A <= 0 exactly; it is a certificate
    iff y'nu - delta sum(nu) > 0.  Scaled to integers (A = cells / b^n, and
    y and nu by their largest denominators), that is
    y'nu b^n - max_j (y'cells)_j sum(nu) > 0.
    """
    ys, nus = _dyadic_integers(y), _dyadic_integers(nu)
    cells, den = color_map_exact(n, p)
    row, col, _, _ = _color_map_cells(n)
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    columns = np.add.reduceat(np.array(ys, dtype=object)[row] * cells, starts)
    return sum(yi * vi for yi, vi in zip(ys, nus)) * den - max(columns) * sum(nus) > 0


def _dyadic_integers(values) -> list[int]:
    """Floats times their largest denominator, a power of two: exact integers."""
    fracs = [Fraction(float(v)) for v in values]
    scale = max(f.denominator for f in fracs)
    return [f.numerator * (scale // f.denominator) for f in fracs]


def lp_feasibility(nu: BinaryLaw, p: float | None = None, tol: float = FEAS_TOL,
                   exact: bool = False) -> FeasibilityResult:
    """Phase-I LP: is nu = color_map(n, p) q solvable with q >= 0?

    A phase-I objective up to ``tol`` is Feasible.  Exact laws get the strict
    verdict, Borderline up to 100 tol; MC laws that fail strictly are retried
    on the polytope widened by ``RELAX_SIGMA`` stderr per cell, and only a
    failure there is reported Infeasible.  With ``exact=True`` a verdict
    that would be Infeasible or Borderline becomes Infeasible exactly when the
    Farkas certificate verifies in an integer check over the coloring map's
    cells (the float inputs taken exactly), and Borderline otherwise;
    ``detail["certificate_verified"]`` holds the outcome.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    marginal_tol = _marginal_tol(nu)
    p_detected = _require_equal_marginals(nu, marginal_tol)
    if p is None:
        p = p_detected
    elif abs(p - p_detected) > max(marginal_tol, 1e-6):
        raise ValueError(f"stated p={p} inconsistent with marginals {p_detected:.6g}")
    n = nu.n
    mat = color_map(n, p)

    strict = phase_one(mat, nu.probs)
    detail = {"phase1_objective": strict.objective}
    if exact:
        detail["mode"] = "exact"
    if strict.objective <= tol:
        q = _extract_q(n, strict.x)
        margin = float(np.max(np.abs(mat @ q.vector - nu.probs)))
        return FeasibilityResult("Feasible", q, margin, detail=detail)

    objective, status = strict.objective, "Infeasible"
    if nu.stderr is not None and float(np.max(nu.stderr)) > 0.0:
        relaxed = phase_one(mat, nu.probs, slack=RELAX_SIGMA * nu.stderr)
        objective = detail["relaxed_objective"] = relaxed.objective
        if objective <= tol:
            q = _extract_q(n, relaxed.x)
            margin = float(np.max(np.abs(mat @ q.vector - nu.probs)))
            return FeasibilityResult("Borderline", q, margin, detail=detail)
    elif objective <= 100.0 * tol:
        status = "Borderline"
    cert = _clean_certificate(mat, nu.probs, strict.y)
    if exact:
        verified = cert is not None and phase_one_exact(n, p, nu.probs, cert)
        detail["certificate_verified"] = verified
        status = "Infeasible" if verified else "Borderline"
    return FeasibilityResult(status, None, objective,
                             certificate=cert if status == "Infeasible" else None,
                             detail=detail)


def _clean_certificate(mat: np.ndarray, nu: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Validate and normalize a Farkas certificate; None if it fails to verify."""
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return None
    y = y / scale
    if float(np.max(y @ mat)) > 1e-7 or float(y @ nu) <= 0.0:
        return None
    return y


# -- symmetry-reduced four-points-on-a-circle solver --------------------------

_ROTATE = (2, 3, 4, 1)   # square rotation 1->2->3->4->1
_REFLECT = (1, 4, 3, 2)  # reflection fixing the 1-3 diagonal


@functools.cache
def _permutation_cells(n: int, perm: tuple[int, ...]) -> np.ndarray:
    """Cell of (X_{perm(1)}, ..., X_{perm(n)}) that each cell of X maps to."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    cells = bits[:, np.array(perm) - 1] @ (1 << np.arange(n - 1, -1, -1))
    cells.setflags(write=False)
    return cells


def _permute_law(nu: BinaryLaw, perm: tuple[int, ...]) -> np.ndarray:
    """Cells of the law of (X_{perm(1)}, ..., X_{perm(n)})."""
    out = np.empty_like(nu.probs)
    out[_permutation_cells(nu.n, perm)] = nu.probs
    return out


def square_circle_solver(theta: float | None, h: float | None,
                         nu4: BinaryLaw) -> FeasibilityResult:
    """Representability of the dihedral four-point law with nu_0101 = 0.

    The four-dimensional problem reduces to the first three coordinates: a
    representation exists iff the 3-marginal admits one with
    q_123 >= q_13_2 >= 0 and 2 q_12_3 - 2 q_13_2 >= q_1_2_3 >= 0, and the full
    B_4 distribution is then reconstructed from it (zero pattern on the
    partitions separating the 1-3 and 2-4 diagonals).
    """
    if nu4.n != 4:
        raise ValueError("square_circle_solver needs n = 4")
    noise = 0.0 if nu4.stderr is None else float(np.max(nu4.stderr))
    tol = max(1e-9, RELAX_SIGMA * noise)
    for perm in (_ROTATE, _REFLECT):
        if float(np.max(np.abs(_permute_law(nu4, perm) - nu4.probs))) > 4.0 * tol:
            raise ValueError("law is not dihedral-symmetric")
    if nu4.cell("0101") > 4.0 * tol or nu4.cell("1010") > 4.0 * tol:
        raise ValueError("nu_0101 must vanish for this family")

    p = _require_equal_marginals(nu4, _marginal_tol(nu4))
    nu3 = nu4.marginalize([1, 2, 3])
    meta = {"theta": theta, "h": h, "p": p}

    if abs(p - 0.5) <= max(P_HALF_TOL, 2.0 * noise):
        fam = symmetric_rep_family_3(nu3)
        singles = fam.nu_001 + fam.nu_010 + fam.nu_100
        # extra caps from the 4-point reconstruction, linear in t:
        lo = max(fam.t_lo, (4.0 * fam.nu_010 + 4.0 * singles - 1.0) / 2.0, 0.0)
        hi = min(fam.t_hi, 4.0 * (fam.nu_001 - fam.nu_010))
        meta.update(t_lo=lo, t_hi=hi)
        if lo > hi + tol:
            return FeasibilityResult("Infeasible", None, lo - hi, detail=meta)
        t = min(max(lo, 0.0), hi) if hi >= lo else lo
        rep3 = fam.weights_at(t)
        q4 = _reconstruct_square_b4(rep3)
        margin = _square_margin(q4, nu4, p)
        return FeasibilityResult("Feasible", q4, margin, detail=meta)

    rep = signed_rep_3(nu3)
    checks = {
        "q_123 >= q_13_2": rep.q_123 - rep.q_13_2,
        "q_13_2 >= 0": rep.q_13_2,
        "2q_12_3 - 2q_13_2 >= q_1_2_3": 2.0 * rep.q_12_3 - 2.0 * rep.q_13_2 - rep.q_1_2_3,
        "q_1_2_3 >= 0": rep.q_1_2_3,
        "q_12_3 >= 0": rep.q_12_3,
        "q_1_23 >= 0": rep.q_1_23,
    }
    worst = min(checks.values())
    meta["inequalities"] = checks
    if worst < -tol * 8.0:
        return FeasibilityResult("Infeasible", None, -worst, detail=meta)
    # MC marginal noise leaks into the closed-form sum; project back onto sum 1
    weights = rep.weights()
    total = math.fsum(weights.values())
    weights = {k: v / total for k, v in weights.items()}
    q4 = _reconstruct_square_b4(weights)
    margin = _square_margin(q4, nu4, p)
    status = "Feasible" if worst >= 0.0 else "Borderline"
    return FeasibilityResult(status, q4, margin, detail=meta)


# the seven orbits of B_4 under the square's dihedral group, by representative
_SQUARE_ORBITS = ("1234", "123|4", "12|34", "13|24", "12|3|4", "13|2|4", "1|2|3|4")
_SQUARE_ORBIT = {
    "1234": "1234",
    "123|4": "123|4", "124|3": "123|4", "134|2": "123|4", "1|234": "123|4",
    "12|34": "12|34", "14|23": "12|34",
    "13|24": "13|24",
    "12|3|4": "12|3|4", "14|2|3": "12|3|4", "1|23|4": "12|3|4", "1|2|34": "12|3|4",
    "13|2|4": "13|2|4", "1|24|3": "13|2|4",
    "1|2|3|4": "1|2|3|4",
}


@functools.cache
def _square_orbit_index() -> np.ndarray:
    """Orbit of each column of B_4, as an index into ``_SQUARE_ORBITS``."""
    index = np.array([_SQUARE_ORBITS.index(_SQUARE_ORBIT[sig.key])
                      for sig in enumerate_partitions(4)])
    index.setflags(write=False)
    return index


def _reconstruct_square_b4(rep3: dict[str, float]) -> PartitionDistribution:
    """Lift a 3-marginal representation to B_4 via the dihedral zero pattern."""
    q123 = rep3["123"]
    q13_2 = rep3["13|2"]
    q_sing = rep3["1|2|3"]
    # adjacent-pair weights agree in exact arithmetic; average out MC noise
    q12_3 = 0.5 * (rep3["12|3"] + rep3["1|23"])
    orbit_weights = np.array([          # in _SQUARE_ORBITS order
        q123 - q13_2,
        q13_2,                          # the four 3+1 partitions
        q12_3 - q13_2 - q_sing / 2.0,   # {12|34, 14|23}
        0.0,
        q_sing / 2.0,                   # the four edge-pair partitions
        0.0,                            # the two diagonal-pair partitions
        0.0,
    ])
    vec = orbit_weights[_square_orbit_index()]
    vec[(-1e-7 < vec) & (vec < 1e-15)] = 0.0
    signed = bool(vec.min() < -FEAS_TOL)
    total = math.fsum(vec.tolist())
    if abs(total - 1.0) > 1e-5:
        raise RuntimeError(f"reconstructed weights sum to {total}; input too noisy")
    return PartitionDistribution.from_vector(4, vec / total, signed=signed)


def _square_margin(q4: PartitionDistribution, nu4: BinaryLaw, p: float) -> float:
    if q4.signed:
        return float("nan")
    pf = push_forward(q4, p)
    return float(np.max(np.abs(pf.probs - nu4.probs)))


# -- quick checks -------------------------------------------------------------

def quick_sufficient_symmetric(nu: BinaryLaw) -> Verdict:
    """One-sided test: a {0,1}-symmetric law with nu_{0^n} >= 1/4 is a color
    process; anything else stays Undetermined (never NoColorRep)."""
    if not nu.is_zero_one_symmetric(_noise_tol(nu)):
        raise ValueError("quick check needs a {0,1}-symmetric law")
    return Verdict.COLOR_REP if nu.probs[0] >= 0.25 else Verdict.UNDETERMINED


def symmetric_plus_mean_gap(n: int) -> float:
    """Gap in the singleton-cluster consistency identity for the
    iid-plus-normalized-mean family: (pi/2)(n-2)/(n-1) - arcsin sqrt((n-2)/(n-1)).
    Zero at n = 3; strictly positive for n >= 4, which rules out DC at h = 0."""
    if n < 3:
        raise ValueError("n must be >= 3")
    r = (n - 2) / (n - 1)
    return (math.pi / 2.0) * r - math.asin(math.sqrt(r))
