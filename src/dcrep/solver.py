"""Deciding divide-and-color representability of a binary law.

Three routes, used where each is exact:
  * n = 3, p != 1/2: the unique signed representation in closed form;
  * n = 3, p = 1/2 ({0,1}-symmetric): the one-parameter t-family;
  * general n: phase-I LP feasibility over the coloring map, solved by HiGHS,
    with a Farkas certificate on infeasibility and a +-3 stderr relaxation
    for MC laws.  ``exact=True`` keeps the float solve and checks the
    certificate in Fraction arithmetic before calling a law Infeasible.
A symmetry-reduced solver handles the four-points-on-a-circle family, where
the alternating pattern is forbidden and the dihedral symmetry collapses the
problem to the t-family of the first three coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .partitions import (BinaryLaw, Partition, PartitionDistribution,
                         color_map, color_map_exact, enumerate_partitions,
                         push_forward)
from .reports import Verdict

FEAS_TOL = 1e-9
P_HALF_TOL = 1e-9


@dataclass(frozen=True)
class TolPolicy:
    """Numerical policy for the LP route.

    ``relax`` widens each law cell by 3 stderr before declaring Infeasible on
    an MC law, so sampling noise can only soften a verdict to Borderline.
    """

    feas_tol: float = FEAS_TOL
    borderline_tol: float = 1e-7
    marginal_tol: float | None = None  # None: 1e-9 exact, 5*max stderr for MC
    relax_sigma: float = 3.0

    def marginal_tolerance(self, nu: BinaryLaw) -> float:
        if self.marginal_tol is not None:
            return self.marginal_tol
        if nu.stderr is None:
            return 1e-9
        return max(1e-9, 5.0 * float(np.max(nu.stderr)) * nu.n)


def _require_equal_marginals(nu: BinaryLaw, tol: float) -> float:
    gap = nu.max_marginal_gap()
    if gap > tol:
        raise ValueError(f"marginals differ by {gap:.3g} (> {tol:.3g}); "
                         "a color process has equal marginals")
    return nu.marginal_p


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
    p = _require_equal_marginals(nu, TolPolicy().marginal_tolerance(nu))
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


def symmetric_rep_family_3(nu: BinaryLaw, sym_tol: float | None = None) -> SymmetricRepFamily3:
    """All representations of a {0,1}-symmetric n=3 law, as the t-interval."""
    if nu.n != 3:
        raise ValueError("symmetric_rep_family_3 needs n = 3")
    if sym_tol is None:
        sym_tol = 1e-9 if nu.stderr is None else max(1e-9, 5.0 * float(np.max(nu.stderr)))
    if not nu.is_zero_one_symmetric(sym_tol):
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
    res = linprog(cost, A_eq=np.hstack(blocks), b_eq=b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS phase I failed: {res.message}")
    return PhaseOneResult(objective=float(res.fun), x=res.x[:k],
                          y=res.eqlin.marginals, pivots=int(res.nit))


def phase_one_exact(n: int, p: float, nu, y) -> bool:
    """Does y prove, in exact arithmetic, that nu = color_map(n, p) q has no
    solution q >= 0?  The floats p, nu and y are taken exactly as Fractions.

    Every column of the coloring map sums to 1, so with delta = max_j (y'A)_j
    the shifted y - delta 1 satisfies y'A <= 0 exactly; it is a certificate
    iff y'nu - delta sum(nu) > 0.
    """
    ys = [Fraction(float(v)) for v in y]
    nus = [Fraction(float(v)) for v in nu]
    columns = zip(*color_map_exact(n, Fraction(p)))
    delta = max(sum(yi * a for yi, a in zip(ys, col) if a) for col in columns)
    return sum(yi * vi for yi, vi in zip(ys, nus)) - delta * sum(nus) > 0


def lp_feasibility(nu: BinaryLaw, p: float | None = None,
                   policy: TolPolicy | None = None,
                   exact: bool = False) -> FeasibilityResult:
    """Phase-I LP: is nu = color_map(n, p) q solvable with q >= 0?

    Exact laws get the strict verdict; MC laws that fail strictly are retried
    on the polytope widened by ``relax_sigma`` stderr per cell, and only a
    failure there is reported Infeasible.  With ``exact=True`` a verdict
    that would be Infeasible or Borderline becomes Infeasible exactly when the
    Farkas certificate verifies in Fraction arithmetic (the float inputs taken
    exactly), and Borderline otherwise; ``detail["certificate_verified"]``
    holds the outcome.
    """
    policy = policy or TolPolicy()
    p_detected = _require_equal_marginals(nu, policy.marginal_tolerance(nu))
    if p is None:
        p = p_detected
    elif abs(p - p_detected) > max(policy.marginal_tolerance(nu), 1e-6):
        raise ValueError(f"stated p={p} inconsistent with marginals {p_detected:.6g}")
    n = nu.n
    mat = color_map(n, p)

    strict = phase_one(mat, nu.probs)
    detail = {"phase1_objective": strict.objective}
    if exact:
        detail["mode"] = "exact"
    if strict.objective <= policy.feas_tol:
        q = _extract_q(n, strict.x)
        margin = float(np.max(np.abs(mat @ q.as_vector() - nu.probs)))
        return FeasibilityResult("Feasible", q, margin, detail=detail)

    objective, status = strict.objective, "Infeasible"
    if nu.stderr is not None and float(np.max(nu.stderr)) > 0.0:
        relaxed = phase_one(mat, nu.probs, slack=policy.relax_sigma * nu.stderr)
        objective = detail["relaxed_objective"] = relaxed.objective
        if objective <= policy.feas_tol:
            q = _extract_q(n, relaxed.x)
            margin = float(np.max(np.abs(mat @ q.as_vector() - nu.probs)))
            return FeasibilityResult("Borderline", q, margin, detail=detail)
    elif objective <= policy.borderline_tol:
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


def _permute_law(nu: BinaryLaw, perm: tuple[int, ...]) -> np.ndarray:
    """Cells of the law of (X_{perm(1)}, ..., X_{perm(n)})."""
    n = nu.n
    out = np.zeros_like(nu.probs)
    for idx in range(2 ** n):
        bits = [(idx >> (n - 1 - i)) & 1 for i in range(n)]
        new = sum(bits[perm[i] - 1] << (n - 1 - i) for i in range(n))
        out[new] = nu.probs[idx]
    return out


def square_circle_solver(theta: float | None, h: float | None, nu4: BinaryLaw,
                         policy: TolPolicy | None = None) -> FeasibilityResult:
    """Representability of the dihedral four-point law with nu_0101 = 0.

    The four-dimensional problem reduces to the first three coordinates: a
    representation exists iff the 3-marginal admits one with
    q_123 >= q_13_2 >= 0 and 2 q_12_3 - 2 q_13_2 >= q_1_2_3 >= 0, and the full
    B_4 distribution is then reconstructed from it (zero pattern on the
    partitions separating the 1-3 and 2-4 diagonals).
    """
    policy = policy or TolPolicy()
    if nu4.n != 4:
        raise ValueError("square_circle_solver needs n = 4")
    noise = 0.0 if nu4.stderr is None else float(np.max(nu4.stderr))
    tol = max(1e-9, policy.relax_sigma * noise)
    for perm in (_ROTATE, _REFLECT):
        if float(np.max(np.abs(_permute_law(nu4, perm) - nu4.probs))) > 4.0 * tol:
            raise ValueError("law is not dihedral-symmetric")
    if nu4.cell("0101") > 4.0 * tol or nu4.cell("1010") > 4.0 * tol:
        raise ValueError("nu_0101 must vanish for this family")

    p = _require_equal_marginals(nu4, policy.marginal_tolerance(nu4))
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


_SQUARE_ORBIT = {
    "1234": "1234",
    "123|4": "123|4", "124|3": "123|4", "134|2": "123|4", "1|234": "123|4",
    "12|34": "12|34", "14|23": "12|34",
    "13|24": "13|24",
    "12|3|4": "12|3|4", "14|2|3": "12|3|4", "1|23|4": "12|3|4", "1|2|34": "12|3|4",
    "13|2|4": "13|2|4", "1|24|3": "13|2|4",
    "1|2|3|4": "1|2|3|4",
}


def _reconstruct_square_b4(rep3: dict[str, float]) -> PartitionDistribution:
    """Lift a 3-marginal representation to B_4 via the dihedral zero pattern."""
    q123 = rep3["123"]
    q13_2 = rep3["13|2"]
    q_sing = rep3["1|2|3"]
    # adjacent-pair weights agree in exact arithmetic; average out MC noise
    q12_3 = 0.5 * (rep3["12|3"] + rep3["1|23"])
    vals = {
        "1234": q123 - q13_2,
        "123|4": q13_2,     # orbit: the four 3+1 partitions
        "12|34": q12_3 - q13_2 - q_sing / 2.0,  # orbit: {12|34, 14|23}
        "13|24": 0.0,
        "12|3|4": q_sing / 2.0,  # orbit: the four edge-pair partitions
        "13|2|4": 0.0,           # orbit: the two diagonal-pair partitions
        "1|2|3|4": 0.0,
    }
    weights = {}
    for sig in enumerate_partitions(4):
        v = vals[_SQUARE_ORBIT[sig.key]]
        weights[sig.key] = 0.0 if -1e-7 < v < 1e-15 else v
    signed = min(weights.values()) < -FEAS_TOL
    total = math.fsum(weights.values())
    if abs(total - 1.0) > 1e-5:
        raise RuntimeError(f"reconstructed weights sum to {total}; input too noisy")
    weights = {k: v / total for k, v in weights.items()}
    return PartitionDistribution(4, weights, signed=signed)


def _square_margin(q4: PartitionDistribution, nu4: BinaryLaw, p: float) -> float:
    if q4.signed:
        return float("nan")
    pf = push_forward(q4, p)
    return float(np.max(np.abs(pf.probs - nu4.probs)))


# -- quick checks -------------------------------------------------------------

def quick_sufficient_symmetric(nu: BinaryLaw, sym_tol: float | None = None) -> Verdict:
    """One-sided test: a {0,1}-symmetric law with nu_{0^n} >= 1/4 is a color
    process; anything else stays Undetermined (never NoColorRep)."""
    if sym_tol is None:
        sym_tol = 1e-9 if nu.stderr is None else max(1e-9, 5.0 * float(np.max(nu.stderr)))
    if not nu.is_zero_one_symmetric(sym_tol):
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
