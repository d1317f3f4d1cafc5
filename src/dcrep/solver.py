"""Deciding divide-and-color representability of a binary law.

Three routes, used where each is exact:
  * n = 3, p != 1/2: the unique signed representation in closed form;
  * n = 3, p = 1/2 ({0,1}-symmetric): the one-parameter t-family;
  * general n: phase-I LP feasibility over the coloring map, solved by one
    direct call into the HiGHS bindings that scipy ships
    (``scipy.optimize._highspy._core``), with a Farkas certificate on
    infeasibility and a +-3 stderr relaxation for MC laws.  The map exists
    on this path only as a CSC matrix whose columns are the cached cells
    (``color_map_csc``); it goes to HiGHS by one array ``passModel``, with
    presolve off, and the margin and the certificate check read the cells
    too (``push_forward``, ``A.T @ y``).  At n = 9 (512 x 21,147) the LP of a
    Dirichlet law takes 2.1 s on a 2-core x86-64 box, with a 14 MiB
    ``tracemalloc`` peak once the caches are warm.  ``exact=True`` keeps the
    float solve and checks the certificate by an integer check over the
    cells before calling a law Infeasible.
A symmetry-reduced solver handles the four-points-on-a-circle family, where
the alternating pattern is forbidden and the dihedral symmetry collapses the
problem to the t-family of the first three coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_array

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    raise ImportError("dcrep needs scipy >= 1.15: it solves its LPs through the HiGHS "
                      "bindings scipy.optimize._highspy._core, which older scipy "
                      "releases do not ship") from exc

# color_map and enumerate_partitions are on no path here: they are imported
# only so that bench/tracing.py can time them under these names
from .partitions import (BinaryLaw, PartitionDistribution, _color_map_cells, _key_columns,
                         _one_cells, _restriction_columns, _subset_cells, color_map,  # noqa: F401
                         color_map_csc, color_map_exact, enumerate_partitions,  # noqa: F401
                         push_forward)
from .reports import Verdict

FEAS_TOL = 1e-9
P_HALF_TOL = 1e-9
PRIMAL_FEAS_TOL = 1e-10  # HiGHS primal feasibility tolerance in phase I
# an MC law's cells are widened by this many stderr before it is called
# Infeasible, so sampling noise can only soften a verdict to Borderline
RELAX_SIGMA = 3.0


def _noise(nu: BinaryLaw) -> float:
    """The largest stderr of a law's cells: 0 on an exact law."""
    return 0.0 if nu.stderr is None else float(np.max(nu.stderr))


def _noise_tol(noise):
    """Tolerance for one cell, given the largest stderr ``noise`` (a scalar,
    or one per law): 5 stderr, and 1e-9 on an exact law."""
    return np.maximum(1e-9, 5.0 * noise)


def _marginal_tol(noise, n: int):
    """Tolerance for a marginal, a sum of 2^(n-1) cells: 5 n stderr, and 1e-9
    on an exact law."""
    return np.maximum(1e-9, 5.0 * noise * n)


def _is_half(p, noise):
    """Is the marginal p = 1/2 within noise, given the largest stderr
    ``noise`` (a scalar, or one per law)?  2 stderr, and ``P_HALF_TOL`` on an
    exact law.  Where it holds, n = 3 takes the t-family route."""
    return np.abs(p - 0.5) <= np.maximum(P_HALF_TOL, 2.0 * noise)


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

    def min_weight(self) -> float:
        return min(self.weights().values())


def signed_rep_3(nu: BinaryLaw) -> SignedRep3:
    """Closed-form signed representation for n = 3, marginal p != 1/2.

    q_{1,2,3} = (nu_100 - nu_011) / ((1-p) p (1-2p)) and cyclic variants;
    the law is a color process iff all five entries are nonnegative.
    ``feasible`` reads them down to -FEAS_TOL on an exact law, and on a Monte
    Carlo law down to what RELAX_SIGMA stderr per cell, the widening of the
    relaxed LP, can move them: a law that LP calls Borderline reads feasible.
    """
    if nu.n != 3:
        raise ValueError("signed_rep_3 needs n = 3")
    noise = _noise(nu)
    p = _require_equal_marginals(nu, _marginal_tol(noise, nu.n))
    if _is_half(p, noise):
        raise ValueError("p = 1/2 has a one-parameter family; "
                         "use symmetric_rep_family_3")
    c = nu.cell
    den = (1.0 - p) * p * (1.0 - 2.0 * p)
    q_sing = (c("100") - c("011")) / den
    q12_3 = ((1.0 - p) * c("110") - p * c("001")) / den
    q13_2 = ((1.0 - p) * c("101") - p * c("010")) / den
    q1_23 = ((1.0 - p) * c("011") - p * c("100")) / den
    q123 = 1.0 - (p * c("000") - (1.0 - p) * c("111")) / den
    # RELAX_SIGMA stderr per cell move a weight (a cell_1 + b cell_2) / den by
    # up to RELAX_SIGMA (|a| se_1 + |b| se_2) / |den|
    def e(rho):
        return RELAX_SIGMA * nu.cell_stderr(rho) / abs(den)

    slack = (e("100") + e("011"), (1.0 - p) * e("110") + p * e("001"),
             (1.0 - p) * e("101") + p * e("010"), (1.0 - p) * e("011") + p * e("100"),
             p * e("000") + (1.0 - p) * e("111"))
    feasible = all(q >= -max(FEAS_TOL, sl)
                   for q, sl in zip((q_sing, q12_3, q13_2, q1_23, q123), slack))
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
    if not nu.is_zero_one_symmetric(_noise_tol(_noise(nu))):
        raise ValueError("law is not {0,1}-symmetric; use signed_rep_3 / lp_feasibility")
    c = nu.cell
    nu001, nu010, nu100 = c("001"), c("010"), c("100")
    t_lo, t_hi = _t_family_bounds(nu001, nu010, nu100)
    return SymmetricRepFamily3(nu_001=nu001, nu_010=nu010, nu_100=nu100,
                               t_lo=float(t_lo), t_hi=float(t_hi))


def _first_max(*values):
    """Elementwise ``max(*values)`` as Python's ``max`` picks it: the first
    of the values that no later one exceeds."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return out


def _first_min(*values):
    """Elementwise ``min(*values)`` as Python's ``min`` picks it."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v < out, v, out)
    return out


def _t_family_bounds(nu001, nu010, nu100):
    """t_lo = max(0, 4(nu_001 + nu_010 + nu_100) - 1) and
    t_hi = 4 min(nu_001, nu_010, nu_100), elementwise."""
    return (_first_max(0.0, 4.0 * (nu001 + nu010 + nu100) - 1.0),
            4.0 * _first_min(nu001, nu010, nu100))


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


# the settings that scipy's own HiGHS LP interface passes, with the primal
# tolerance below: at HiGHS's default, 1e-7, an optimum of 0 can leave
# |A q - b| near 1e-7 (8.5e-8 on an n = 6 law at p = 1/2).  Presolve is off:
# on laws with no zero cell it changed neither x, y nor the pivot count, and
# it took a third of an n = 6 solve
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.primal_feasibility_tolerance = PRIMAL_FEAS_TOL
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
# the post-solve check of that interface: bounds and equality residual within
# 10 sqrt(1e-9)
_SOLUTION_TOL = 10.0 * math.sqrt(1e-9)


def _phase_one_columns(csc: csc_array, signs: list[float]):
    """CSC arrays (indptr, indices, data) of [A | s_1 I | s_2 I ...] for the
    ``signs`` s_i: the CSC A, then one entry per identity column."""
    m = csc.shape[0]
    eyes = len(signs)
    indptr = np.concatenate([csc.indptr, csc.nnz + np.arange(1, eyes * m + 1,
                                                             dtype=csc.indptr.dtype)])
    indices = np.concatenate([csc.indices, np.tile(np.arange(m, dtype=csc.indices.dtype),
                                                   eyes)])
    return indptr, indices, np.concatenate([csc.data, np.repeat(signs, m)])


def phase_one(a, b, slack=None) -> PhaseOneResult:
    """Phase-I LP by HiGHS: minimize 1'(s+ + s-) subject to
    A q + e + s+ - s- = b, with q, s+, s- >= 0 and |e| <= slack cellwise
    (e = 0 when ``slack`` is None).  ``a`` is a dense or sparse matrix; it
    goes to HiGHS as CSC arrays, by one array call.

    The optimum is 0 iff some q >= 0 has |A q - b| <= slack.  The equality
    multipliers y satisfy y'A <= 0 and, without slack, y'b = objective, so on
    a positive optimum they are a Farkas certificate.

    Raises ValueError on a non-finite ``b`` or ``slack`` and RuntimeError when
    HiGHS ends without an optimum or its optimum misses the constraints.
    """
    a = csc_array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = a.shape
    if b.shape != (m,) or not np.all(np.isfinite(b)):
        raise ValueError(f"b must be {m} finite values")
    signs = [1.0, -1.0]                     # the columns of s+ and s-
    lower = np.zeros(k + 2 * m)
    upper = np.full(k + 2 * m, math.inf)
    cost = np.concatenate([np.zeros(k), np.ones(2 * m)])
    if slack is not None:
        signs.append(1.0)                   # and of e
        slack = np.asarray(slack, dtype=float)
        if slack.shape != (m,) or not np.all(np.isfinite(slack)):
            raise ValueError(f"slack must be {m} finite values")
        lower, upper = np.concatenate([lower, -slack]), np.concatenate([upper, slack])
        cost = np.concatenate([cost, np.zeros(m)])
    indptr, indices, data = _phase_one_columns(a, signs)

    num_col = len(cost)
    highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    # an empty integrality array is an error: all zeros is continuous
    if (highs.passOptions(_HIGHS_OPTIONS) == error
            or highs.passModel(num_col, m, len(data), _COLWISE, _MINIMIZE, 0.0, cost, lower,
                               upper, b, b, indptr, indices, data,
                               np.zeros(num_col, dtype=np.int32)) == error
            or highs.run() == error
            or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal):
        raise RuntimeError("HiGHS phase I failed: "
                           + highs.modelStatusToString(highs.getModelStatus()))
    info, solution = highs.getInfo(), highs.getSolution()
    x = np.array(solution.col_value)
    residual = b - np.array(solution.row_value)
    if not (math.isfinite(info.objective_function_value)
            and np.all(x >= lower - _SOLUTION_TOL) and np.all(x <= upper + _SOLUTION_TOL)
            and np.all(np.abs(residual) <= _SOLUTION_TOL)):
        raise RuntimeError("HiGHS phase I failed: the solution misses the bounds or "
                           f"the equalities by more than {_SOLUTION_TOL:.2e}")
    return PhaseOneResult(objective=float(info.objective_function_value), x=x[:k],
                          y=np.array(solution.row_dual),
                          pivots=int(info.simplex_iteration_count))


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
    failure there is reported Infeasible.  An Infeasible verdict always
    carries its Farkas certificate: when ``_clean_certificate`` rejects the
    duals, the verdict is Borderline.  With ``exact=True`` a verdict
    that would be Infeasible or Borderline becomes Infeasible exactly when the
    Farkas certificate verifies in an integer check over the coloring map's
    cells (the float inputs taken exactly), and Borderline otherwise;
    ``detail["certificate_verified"]`` holds the outcome.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    marginal_tol = _marginal_tol(_noise(nu), nu.n)
    p_detected = _require_equal_marginals(nu, marginal_tol)
    if p is None:
        p = p_detected
    elif abs(p - p_detected) > max(marginal_tol, 1e-6):
        raise ValueError(f"stated p={p} inconsistent with marginals {p_detected:.6g}")
    n = nu.n
    mat = color_map_csc(n, p)

    strict = phase_one(mat, nu.probs)
    detail = {"phase1_objective": strict.objective}
    if exact:
        detail["mode"] = "exact"
    if strict.objective <= tol:
        q = _extract_q(n, strict.x)
        margin = float(np.max(np.abs(push_forward(q, p).probs - nu.probs)))
        return FeasibilityResult("Feasible", q, margin, detail=detail)

    objective, status = strict.objective, "Infeasible"
    if nu.stderr is not None and float(np.max(nu.stderr)) > 0.0:
        relaxed = phase_one(mat, nu.probs, slack=RELAX_SIGMA * nu.stderr)
        objective = detail["relaxed_objective"] = relaxed.objective
        if objective <= tol:
            q = _extract_q(n, relaxed.x)
            margin = float(np.max(np.abs(push_forward(q, p).probs - nu.probs)))
            return FeasibilityResult("Borderline", q, margin, detail=detail)
    elif objective <= 100.0 * tol:
        status = "Borderline"
    cert = _clean_certificate(mat, nu.probs, strict.y)
    if exact:
        verified = cert is not None and phase_one_exact(n, p, nu.probs, cert)
        detail["certificate_verified"] = verified
        status = "Infeasible" if verified else "Borderline"
    elif cert is None:
        status = "Borderline"
    return FeasibilityResult(status, None, objective,
                             certificate=cert if status == "Infeasible" else None,
                             detail=detail)


def _clean_certificate(mat: csc_array, nu: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Validate and normalize a Farkas certificate; None if it fails to verify."""
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return None
    y = y / scale
    if float(np.max(mat.T @ y)) > 1e-7 or float(y @ nu) <= 0.0:
        return None
    return y


# -- symmetry-reduced four-points-on-a-circle solver --------------------------

_ROTATE = (2, 3, 4, 1)   # square rotation 1->2->3->4->1
_REFLECT = (1, 4, 3, 2)  # reflection fixing the 1-3 diagonal


def _permute_law(probs: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Cells of the law of (X_{perm(1)}, ..., X_{perm(n)}), for the laws
    whose 2^n cells lie along the last axis of ``probs``."""
    out = np.empty_like(probs)
    out[..., _subset_cells(len(perm), perm)] = probs
    return out


def _sum8(x: np.ndarray) -> np.ndarray:
    """Sum of each row of 8 columns, in the order of numpy's 1-D sum of 8 values."""
    return (((x[:, 0] + x[:, 1]) + (x[:, 2] + x[:, 3]))
            + ((x[:, 4] + x[:, 5]) + (x[:, 6] + x[:, 7])))


class SquareIntervals(NamedTuple):
    """The t-intervals of ``square_circle_solver``, row i for law i.

    ``p`` is the common marginal and ``tol`` the cell tolerance.  Rows with
    ``half`` (p = 1/2 within noise) have the 3-marginal cells ``nu3``
    (nu_001, nu_010, nu_100), the capped interval [``t_lo``, ``t_hi``] and
    ``infeasible`` = t_lo > t_hi + tol; the other rows have nan bounds and
    are not ``infeasible``: their law takes the p != 1/2 route.
    """

    p: np.ndarray
    tol: np.ndarray
    half: np.ndarray
    nu3: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    infeasible: np.ndarray


def square_circle_intervals(probs, stderr=None) -> SquareIntervals:
    """The checks and the p = 1/2 t-interval of ``square_circle_solver`` for
    each row of the (N, 16) laws ``probs``, in one array pass with the same
    bits as one law at a time.

    Raises ValueError, as the one-law solver does, if a law is not
    dihedral-symmetric, has nu_0101 or nu_1010 above tolerance, has unequal
    marginals, or has p = 1/2 and a 3-marginal that is not {0,1}-symmetric.
    ``stderr`` holds the cells' standard errors of MC laws, which widen
    every tolerance.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != 16:
        raise ValueError(f"expected (N, 16) laws, got shape {probs.shape}")
    stderr = np.zeros_like(probs) if stderr is None else np.asarray(stderr, dtype=float)
    noise = stderr.max(axis=1)
    marginal_tol = _marginal_tol(noise, 4)
    tol = np.maximum(1e-9, RELAX_SIGMA * noise)
    for perm in (_ROTATE, _REFLECT):
        if np.any(np.abs(_permute_law(probs, perm) - probs).max(axis=1) > 4.0 * tol):
            raise ValueError("law is not dihedral-symmetric")
    if np.any((probs[:, 0b0101] > 4.0 * tol) | (probs[:, 0b1010] > 4.0 * tol)):
        raise ValueError("nu_0101 must vanish for this family")

    marginals = np.stack([_sum8(probs[:, cells]) for cells in _one_cells(4)], axis=1)
    gap = marginals.max(axis=1) - marginals.min(axis=1)
    bad = np.flatnonzero(gap > marginal_tol)
    if bad.size:
        i = bad[0]
        raise ValueError(f"marginals differ by {gap[i]:.3g} (> {marginal_tol[i]:.3g}); "
                         "a color process has equal marginals")
    p = (((marginals[:, 0] + marginals[:, 1]) + marginals[:, 2]) + marginals[:, 3]) / 4
    half = _is_half(p, noise)

    # the 3-marginal on coordinates 1, 2, 3, summed from 0.0 as the bincount of
    # ``BinaryLaw.marginalize`` sums it (a -0.0 cell adds as 0.0)
    nu3 = (0.0 + probs[:, 0::2]) + probs[:, 1::2]
    se3 = np.sqrt((0.0 + stderr[:, 0::2] ** 2) + stderr[:, 1::2] ** 2)
    flip_gap = np.abs(nu3 - nu3[:, ::-1]).max(axis=1)
    if np.any(half & (flip_gap > _noise_tol(se3.max(axis=1)))):
        raise ValueError("law is not {0,1}-symmetric; use signed_rep_3 / lp_feasibility")
    nu001, nu010, nu100 = nu3[:, 1], nu3[:, 2], nu3[:, 4]
    t_lo, t_hi = _t_family_bounds(nu001, nu010, nu100)
    singles = nu001 + nu010 + nu100
    # extra caps from the 4-point reconstruction, linear in t:
    lo = _first_max(t_lo, (4.0 * nu010 + 4.0 * singles - 1.0) / 2.0, 0.0)
    hi = _first_min(t_hi, 4.0 * (nu001 - nu010))
    return SquareIntervals(p=p, tol=tol, half=half,
                           nu3=np.stack([nu001, nu010, nu100], axis=1),
                           t_lo=np.where(half, lo, math.nan), t_hi=np.where(half, hi, math.nan),
                           infeasible=half & (lo > hi + tol))


def square_circle_solver(theta: float | None, h: float | None,
                         nu4: BinaryLaw) -> FeasibilityResult:
    """Representability of the dihedral four-point law with nu_0101 = 0.

    The four-dimensional problem reduces to the first three coordinates: a
    representation exists iff the 3-marginal admits one with
    q_123 >= q_13_2 >= 0 and 2 q_12_3 - 2 q_13_2 >= q_1_2_3 >= 0, and the full
    B_4 distribution is then reconstructed from it (zero pattern on the
    partitions separating the 1-3 and 2-4 diagonals).  At p = 1/2 the checks
    and the t-interval are ``square_circle_intervals`` on a stack of one law.
    """
    if nu4.n != 4:
        raise ValueError("square_circle_solver needs n = 4")
    iv = square_circle_intervals(nu4.probs[None],
                                 None if nu4.stderr is None else nu4.stderr[None])
    p, tol = float(iv.p[0]), float(iv.tol[0])
    meta = {"theta": theta, "h": h, "p": p}

    if iv.half[0]:
        lo, hi = float(iv.t_lo[0]), float(iv.t_hi[0])
        meta.update(t_lo=lo, t_hi=hi)
        if iv.infeasible[0]:
            return FeasibilityResult("Infeasible", None, lo - hi, detail=meta)
        t = min(max(lo, 0.0), hi) if hi >= lo else lo
        fam = SymmetricRepFamily3(*iv.nu3[0].tolist(), t_lo=lo, t_hi=hi)
        q4 = _reconstruct_square_b4(fam.weights_at(t))
        margin = _square_margin(q4, nu4, p)
        return FeasibilityResult("Feasible", q4, margin, detail=meta)

    rep = signed_rep_3(nu4.marginalize([1, 2, 3]))
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


@functools.cache
def _square_orbit_index() -> np.ndarray:
    """Orbit of each column of B_4, as an index into ``_SQUARE_ORBITS``: the
    representative that one of the square's eight symmetries, closed from
    ``_ROTATE`` and ``_REFLECT``, maps the column to.  A symmetry relabels
    the columns as marginalization does (``_restriction_columns``)."""
    group = {(1, 2, 3, 4)}
    while len(group) < 8:
        group |= {tuple(g[i - 1] for i in gen) for g in group for gen in (_ROTATE, _REFLECT)}
    images = np.array([_restriction_columns(4, g) for g in sorted(group)])
    reps = np.array([_key_columns(4)[key] for key in _SQUARE_ORBITS])
    index = (images[:, :, None] == reps).any(axis=0).argmax(axis=1)
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
    if not nu.is_zero_one_symmetric(_noise_tol(_noise(nu))):
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
