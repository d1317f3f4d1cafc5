"""Deciding divide-and-color representability of a binary law.

Three routes, used where each is exact:
  * n = 3, p != 1/2: the unique signed representation in closed form, whose
    weights may fall below 0 only by their own rounding;
  * n = 3, p = 1/2 ({0,1}-symmetric): the one-parameter t-family;
  * general n: phase-I LP feasibility over the coloring map, solved by one
    direct call into the HiGHS bindings that scipy ships
    (``scipy.optimize._highspy._core``), with a Farkas certificate on
    infeasibility: the strict LP, rows [b, b], on an exact law, and only the
    box LP, rows b +- the half-widths, on an MC law.  The map exists on this
    path only as the CSC matrix of the cells cached per n
    (``color_map_csc``); it goes to HiGHS by one array ``passModel``, with
    presolve off.  The margin applies that same matrix to q, and the
    certificate checks read it by column (``A.T @ y``, and
    ``phase_one_exact`` in integers).  At p = 1/2 the strict LP starts
    from a basis cached per n (``_start_basis``).  At n = 9 (512 x 21,147)
    the LP of a Dirichlet law takes 0.2-0.4 s at p = 1/2 from that basis on
    a 2-core x86-64 box, against 0.9-2.1 s from the slack basis, where the
    other p start, with a 14 MiB ``tracemalloc`` peak once the caches are
    warm.  Every LP on a thread runs on that thread's one HiGHS instance
    (``_highs_run``).  A Feasible q on an exact law must reproduce every cell to a
    relative ``REL_TOL``.  An Infeasible verdict on either kind of law rests
    on one rule: its certificate passes an integer check over the coloring
    map's cells and the law's whole half-width box (``phase_one_exact``).

The two closed forms are identities of exact laws, and refuse a Monte Carlo
law: the box LP alone decides it, so one law gets one verdict.  Every
decision reads p from the law's own marginals.  Every tolerance that a law's
noise sets reads ``BinaryLaw.halfwidth``.  The kind of law (``stderr is
None``) picks only what an exact law alone has: a Feasible verdict (an MC law
is at best Borderline), the strict LP, ``_misses_a_cell`` and the closed
forms.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Mapping
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

# color_map, enumerate_partitions and push_forward are on no path here: they
# are imported only so that bench/tracing.py can time them under these names
from .partitions import (PROB_TOL, RELAX_SIGMA, BinaryLaw, PartitionDistribution,
                         _color_map_cells, _frozen, _keyed,
                         color_map, color_map_csc, color_map_exact,  # noqa: F401
                         enumerate_partitions, push_forward)  # noqa: F401

FEAS_TOL = 1e-9  # the phase-I objective that reads as 0
PRIMAL_FEAS_TOL = 1e-10  # HiGHS primal feasibility tolerance in phase I
# a Feasible q on an exact law reproduces each cell to this relative error,
# and the cells at most ZERO_CELL, zero to within the rounding of their sum
# 1, to ZERO_CELL absolute: an objective below FEAS_TOL alone would pass a q
# that misses every cell smaller than that
REL_TOL = 1e-9
ZERO_CELL = float(np.finfo(float).eps)
NOISE_FLOOR = 1e-9  # an exact law's identity tolerance: marginals, flip, p = 1/2, t-family gap


def _require_equal_marginals(nu: BinaryLaw, tol: float) -> float:
    gap = nu.max_marginal_gap()
    if gap > tol:
        raise ValueError(f"marginals differ by {gap:.3g} (> {tol:.3g}); "
                         "a color process has equal marginals")
    return nu.marginal_p


def _require_exact_3(nu: BinaryLaw, route: str) -> None:
    """The fit of both n = 3 closed forms: n = 3 and an exact law."""
    if nu.n != 3:
        raise ValueError(f"{route} needs n = 3")
    if nu.stderr is not None:
        raise ValueError(f"{route} reads exact laws only; "
                         "lp_feasibility decides a Monte Carlo law")


@dataclass(frozen=True, eq=False)
class SignedRep3:
    """The unique signed representation of a 3-dim law with marginal p != 1/2:
    ``vector`` holds its five weights in ``enumerate_partitions(3)`` order,
    1|2|3, 1|23, 12|3, 123, 13|2, read-only; ``weights`` keys them."""

    p: float
    vector: np.ndarray
    feasible: bool

    @property
    def weights(self) -> Mapping[str, float]:
        return _keyed(3, self.vector)


def signed_rep_3(nu: BinaryLaw) -> SignedRep3:
    """Closed-form signed representation of an exact n = 3 law, marginal p
    not 0, 1/2, 1.

    q_{1,2,3} = (nu_100 - nu_011) / ((1-p) p (1-2p)) and cyclic variants;
    the law is a color process iff all five entries are nonnegative.  Raises
    ValueError where the law does not fit: n != 3, a Monte Carlo law (the box
    LP of ``lp_feasibility`` decides it), marginals that differ by more than
    ``NOISE_FLOOR``, or (1-p) p (1-2p) = 0 (p within ``NOISE_FLOOR`` of 1/2
    has ``symmetric_rep_family_3``).  ``feasible`` reads each weight down to
    the rounding of its formula, per cell and per p (read from the cells),
    about 1e-15 on a weight of order 1.
    """
    _require_exact_3(nu, "signed_rep_3")
    p = _require_equal_marginals(nu, NOISE_FLOOR)
    if abs(p - 0.5) <= NOISE_FLOOR:
        raise ValueError("p = 1/2 has a one-parameter family; "
                         "use symmetric_rep_family_3")
    den = (1.0 - p) * p * (1.0 - 2.0 * p)
    if den == 0.0:
        raise ValueError(f"the closed form divides by (1-p) p (1-2p) = 0 at p = {p!r}")
    c = nu.probs.tolist()
    vector = ((c[0b100] - c[0b011]) / den,                           # 1|2|3
              ((1.0 - p) * c[0b011] - p * c[0b100]) / den,           # 1|23
              ((1.0 - p) * c[0b110] - p * c[0b001]) / den,           # 12|3
              1.0 - (p * c[0b000] - (1.0 - p) * c[0b111]) / den,     # 123
              ((1.0 - p) * c[0b101] - p * c[0b010]) / den)           # 13|2
    # a weight (a cell_1 + b cell_2) / den moves by up to (|a| e_1 + |b| e_2)
    # / |den| when each cell moves by up to its rounding e, its half-width.
    # That rounding moves p (a sum of cells) too, and with it a = 1 - p or
    # b = p by up to p ROUNDING_EPS: the factors become 1 and 2 p
    v = 2.0 * p
    e = (nu.halfwidth / abs(den)).tolist()
    slack = (e[0b100] + e[0b011], e[0b011] + v * e[0b100], e[0b110] + v * e[0b001],
             v * e[0b000] + e[0b111], e[0b101] + v * e[0b010])
    feasible = all(q >= -sl for q, sl in zip(vector, slack))
    return SignedRep3(p=p, vector=_frozen(vector), feasible=feasible)


@dataclass(frozen=True)
class SymmetricRepFamily3:
    """The t-family of representations of an exact {0,1}-symmetric 3-dim
    law: at t the weights of 1|2|3, 1|23, 12|3, 123, 13|2 (column order) are

    2t,  4 nu_100 - t,  4 nu_001 - t,  1 - 4(nu_001 + nu_010 + nu_100) + t,
    4 nu_010 - t,

    valid (all nonnegative) exactly for t in [t_lo, t_hi], empty where t_lo
    exceeds t_hi by more than ``NOISE_FLOOR``, as ``square_circle_intervals``
    reads its capped interval.
    """

    nu_001: float
    nu_010: float
    nu_100: float
    t_lo: float
    t_hi: float

    @property
    def is_empty(self) -> bool:
        return self.t_lo > self.t_hi + NOISE_FLOOR

    @property
    def t_interval(self) -> tuple[float, float] | None:
        return None if self.is_empty else (self.t_lo, self.t_hi)

    def at(self, t: float) -> PartitionDistribution:
        singles = self.nu_001 + self.nu_010 + self.nu_100
        w = np.array([2.0 * t, 4.0 * self.nu_100 - t, 4.0 * self.nu_001 - t,
                      1.0 - 4.0 * singles + t, 4.0 * self.nu_010 - t])
        signed = bool(w.min() < -PROB_TOL)   # the rule PartitionDistribution enforces
        return PartitionDistribution.from_vector(3, w, signed=signed)

    def canonical(self) -> PartitionDistribution:
        """The reproducible representative: t = t_lo."""
        if self.is_empty:
            raise ValueError("family interval is empty; no representation")
        return self.at(self.t_lo)


def symmetric_rep_family_3(nu: BinaryLaw) -> SymmetricRepFamily3:
    """All representations of an exact {0,1}-symmetric n = 3 law, as the
    t-interval.  Raises ValueError on n != 3, on a Monte Carlo law (the box
    LP of ``lp_feasibility`` decides it) and on a law that its flip moves by
    more than ``NOISE_FLOOR`` in a cell."""
    _require_exact_3(nu, "symmetric_rep_family_3")
    if not nu.is_zero_one_symmetric(NOISE_FLOOR):
        raise ValueError("law is not {0,1}-symmetric; use signed_rep_3 / lp_feasibility")
    c = nu.probs.tolist()
    t_lo, t_hi = _t_family_bounds(c[0b001], c[0b010], c[0b100])
    return SymmetricRepFamily3(nu_001=c[0b001], nu_010=c[0b010], nu_100=c[0b100],
                               t_lo=float(t_lo), t_hi=float(t_hi))


def _t_family_bounds(nu001, nu010, nu100):
    """t_lo = max(0, 4(nu_001 + nu_010 + nu_100) - 1) and
    t_hi = 4 min(nu_001, nu_010, nu_100), elementwise."""
    return (np.maximum(0.0, 4.0 * (nu001 + nu010 + nu100) - 1.0),
            4.0 * np.minimum(np.minimum(nu001, nu010), nu100))


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


def _q_and_miss(n: int, mat: csc_array, x: np.ndarray, nu: np.ndarray):
    """The q of an LP point x (clipped at 0 and normalized), and how far its
    push-forward, the LP's coloring map ``mat`` times q, misses each cell."""
    x = np.clip(x, 0.0, None)
    q = PartitionDistribution.from_vector(n, x / x.sum())
    return q, np.abs(mat @ q.vector - nu)


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
# it took a third of an n = 6 solve.  The dual simplex is also the method
# that restarts well from a given basis: the phase-I cost is the same for
# every law, so an optimal basis of one law stays dual feasible for every
# right-hand side b over the same matrix (``_start_basis``)
_HIGHS_OPTIONS = _highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.primal_feasibility_tolerance = PRIMAL_FEAS_TOL
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
# the post-solve check of that interface: bounds and row residual within
# 10 sqrt(1e-9)
_SOLUTION_TOL = 10.0 * math.sqrt(1e-9)
# simplex iterations per row that a warm start gets before it is abandoned
# for the slack basis.  The dual simplex can stall on these degenerate LPs:
# every feasible law has optimum 0, so its pivots need not move the
# objective.  From the optimal basis of the uniform law at p = 0.1875, an
# n = 8 law at p = 0.2 ran past 26,000 iterations in 10 s (cold: 1,100 and
# 0.3 s), while the n = 5..8 laws at p = 1/2, which start warm, took at most
# 2.2 per row
WARM_PIVOTS_PER_ROW = 4


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def _frame(m: int, k: int, nnz: int):
    """Everything of the phase-I LP over an m x k matrix with nnz entries but
    the matrix's own arrays and the row bounds: the cost (1 on s+ and s-),
    the column bounds (every column in [0, inf)), the integrality (all
    continuous) and the CSC arrays (indptr, indices, data) that append the
    columns of I and -I, one entry each."""
    cols = k + 2 * m
    return _read_only(np.concatenate([np.zeros(k), np.ones(2 * m)]), np.zeros(cols),
                      np.full(cols, math.inf), np.zeros(cols, dtype=np.int32),
                      nnz + np.arange(1, 2 * m + 1, dtype=np.int32),
                      np.tile(np.arange(m, dtype=np.int32), 2),
                      np.repeat([1.0, -1.0], m))


# this thread's HiGHS instance, built on its first LP (``_highs_run``)
_THREAD = threading.local()


def _highs_run(model: tuple, basis=None, limit: int | None = None):
    """This thread's HiGHS instance, after it has run the LP ``model`` (the
    arguments of ``passModel``) from ``basis`` (the slack basis when None),
    with at most ``limit`` simplex iterations when given.

    One instance per thread, built on its first LP, serves every LP on it.
    ``passOptions`` and ``passModel`` on each LP reset what an earlier LP
    left: its options (the iteration limit of a warm start included), model,
    basis and solution.  So a result depends on its LP alone, bit for bit,
    and reuse saves the allocation of every solver buffer (about a fifth of
    an n = 6 decision).  The caller reads what it needs from the instance
    before the next LP on its thread.  The instance keeps the buffers of its
    largest model, about 42 MB after an n = 9 LP."""
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        highs = _THREAD.highs = _highs._Highs()
    error = _highs.HighsStatus.kError
    if (highs.passOptions(_HIGHS_OPTIONS) == error
            or highs.passModel(*model) == error
            or (limit is not None
                and highs.setOptionValue("simplex_iteration_limit", limit) == error)
            or (basis is not None and highs.setBasis(basis) == error)
            or highs.run() == error):
        raise RuntimeError("HiGHS phase I failed: "
                           + highs.modelStatusToString(highs.getModelStatus()))
    return highs


def _run_phase_one(a, b, slack, basis):
    """This thread's HiGHS instance (``_highs_run``), after it has solved the
    phase-I LP of ``phase_one`` to optimality, the simplex iterations of an
    abandoned warm start, the LP's k and its row bounds.  Read the instance
    before the next LP on this thread.  From ``basis`` the dual simplex gets
    ``WARM_PIVOTS_PER_ROW`` iterations per row; a start that has not reached
    the optimum by then is abandoned, and the same instance solves the LP
    again from the slack basis, with no iteration limit."""
    if not (isinstance(a, csc_array) and a.dtype == np.float64):
        a = csc_array(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, k = a.shape
    if b.shape != (m,) or not np.all(np.isfinite(b)):
        raise ValueError(f"b must be {m} finite values")
    lo = hi = b
    if slack is not None:
        slack = np.asarray(slack, dtype=float)
        if slack.shape != (m,) or not np.all(np.isfinite(slack)):
            raise ValueError(f"slack must be {m} finite values")
        lo, hi = b - slack, b + slack
    cost, lower, upper, integrality, *tail = _frame(m, k, a.nnz)
    indptr, indices, data = (np.concatenate([head, rest]) for head, rest
                             in zip((a.indptr, a.indices, a.data), tail))
    # an empty integrality array is an error: all zeros is continuous
    model = (len(cost), m, len(data), _COLWISE, _MINIMIZE, 0.0, cost, lower, upper, lo, hi,
             indptr, indices, data, integrality)

    abandoned = 0
    if basis is not None:
        highs = _highs_run(model, basis, WARM_PIVOTS_PER_ROW * m)
        if highs.getModelStatus() == _highs.HighsModelStatus.kIterationLimit:
            abandoned = highs.getInfo().simplex_iteration_count
            basis = None
    if basis is None:
        highs = _highs_run(model)
    if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError("HiGHS phase I failed: "
                           + highs.modelStatusToString(highs.getModelStatus()))
    return highs, abandoned, k, lo, hi


def phase_one(a, b, slack=None, basis=None) -> PhaseOneResult:
    """Phase-I LP by HiGHS: minimize 1'(s+ + s-) subject to
    b - slack <= A q + s+ - s- <= b + slack, with q, s+, s- >= 0 (each row
    an equality, A q + s+ - s- = b, when ``slack`` is None).  ``a`` is a
    dense or sparse matrix; it goes to HiGHS as CSC arrays, by one array
    call.  ``basis`` is a HiGHS basis of a strict LP of the same shape
    (``_start_basis``) for the dual simplex to start from, with
    ``WARM_PIVOTS_PER_ROW`` iterations per row before it starts again from
    the slack basis, where None starts; the iterations of both runs count in
    ``pivots``.

    The optimum is 0 iff some q >= 0 has |A q - b| <= slack.  The row
    multipliers y satisfy y'A <= 0 and y'b - slack'|y| = objective (y'b
    without slack), so on a positive optimum they are a Farkas certificate
    for every b' within the slack of b.  Another start basis
    can end at another optimal vertex: the same objective, another x and y.

    Raises ValueError on a non-finite ``b`` or ``slack`` and RuntimeError when
    HiGHS ends without an optimum or its optimum misses the constraints.
    """
    highs, abandoned, k, lo, hi = _run_phase_one(a, b, slack, basis)
    info, solution = highs.getInfo(), highs.getSolution()
    x, rows = np.array(solution.col_value), np.array(solution.row_value)
    if not (math.isfinite(info.objective_function_value) and np.all(x >= -_SOLUTION_TOL)
            and np.all(rows >= lo - _SOLUTION_TOL) and np.all(rows <= hi + _SOLUTION_TOL)):
        raise RuntimeError("HiGHS phase I failed: the solution misses the bounds or "
                           f"the rows by more than {_SOLUTION_TOL:.2e}")
    return PhaseOneResult(objective=float(info.objective_function_value), x=x[:k],
                          y=np.array(solution.row_dual),
                          pivots=abandoned + int(info.simplex_iteration_count))


@functools.cache
def _start_basis(n: int):
    """The start basis of the strict phase-I LPs at n and p = 1/2: the
    optimal HiGHS basis of the strict LP of the uniform q at p = 1/2, from
    one cold solve that calls HiGHS directly (it is no ``phase_one`` call of
    a decision).  The cost never changes, so the basis is dual feasible for
    every law at p = 1/2, and the dual simplex restarts from it in a few
    pivots: 7 against 43 from the slack basis at n = 6 (medians over
    Dirichlet laws).  ``getBasis`` returns a copy, so the later LPs on the
    thread's HiGHS instance leave it as it is, and a decision's result
    depends on its law alone, never on earlier calls."""
    mat = color_map_csc(n, 0.5)
    uniform = mat @ np.full(mat.shape[1], 1.0 / mat.shape[1])
    return _run_phase_one(mat, uniform, None, None)[0].getBasis()


def phase_one_exact(n: int, p: float, nu, y, halfwidth) -> bool:
    """Does y prove, in exact arithmetic, that no law within ``halfwidth`` of
    nu (nu alone where it is 0) is color_map(n, p) q for any q >= 0?  The
    floats p, nu, halfwidth and y are taken exactly.

    Every column of the coloring map sums to 1, so with delta = max_j (y'A)_j
    the shifted z = y - delta 1 satisfies z'A <= 0 exactly; it is a
    certificate for the box iff its least value there, z'nu - halfwidth'|z|,
    is > 0.  Scaled to integers (A = cells / b^n, y by its largest
    denominator, nu and halfwidth by their common one), z b^n is the
    integer y b^n - max_j (y'cells)_j.
    """
    ys = _dyadic_integers(y)
    scaled = _dyadic_integers(np.concatenate([nu, halfwidth]))
    nus, ws = scaled[:len(ys)], scaled[len(ys):]
    cells, den = color_map_exact(n, p)
    indptr, rows, _ = _color_map_cells(n)
    delta = max(np.add.reduceat(np.array(ys, dtype=object)[rows] * cells, indptr[:-1]))
    zs = [yi * den - delta for yi in ys]
    return sum(z * v - abs(z) * wi for z, v, wi in zip(zs, nus, ws)) > 0


def _dyadic_integers(values) -> list[int]:
    """Floats times their largest denominator, a power of two: exact integers."""
    fracs = [Fraction(float(v)) for v in values]
    scale = max(f.denominator for f in fracs)
    return [f.numerator * (scale // f.denominator) for f in fracs]


def lp_feasibility(nu: BinaryLaw, exact: bool = False) -> FeasibilityResult:
    """Phase-I LP: is nu = color_map(n, p) q solvable with q >= 0, at the
    law's own marginal p?

    An exact law gets the strict LP, rows [b, b], at p = 1/2 from the cached
    basis of ``_start_basis`` and at other p from the slack basis.  An
    objective up to ``FEAS_TOL`` is Feasible when the q found reproduces every
    cell (``_misses_a_cell``): a warm q that does not is solved again from
    the slack basis, and one that still does not is Borderline.  An MC law
    gets only the box LP, from the slack basis, each row widened by its
    cell's half-width (``RELAX_SIGMA`` stderr).  The box contains the strict
    polytope; an MC law is never Feasible: an objective up to ``FEAS_TOL`` is
    Borderline with the box q, since a law within its noise may have no
    representation (an h = 0 law of reflected pairs is flip-symmetric with
    p = 1/2, and can pass where its exact law is Infeasible).  ``detail``
    holds ``phase1_objective`` or ``relaxed_objective``.

    Above ``FEAS_TOL``, on either kind of law, the law is Infeasible exactly
    when the LP's duals, cleaned by ``_clean_certificate``, pass the integer
    check of ``phase_one_exact`` over every law within the half-widths of nu
    (an exact law's are its rounding); otherwise it is Borderline, with no
    certificate.  ``detail["certificate_verified"]`` holds the outcome.
    HiGHS can end phase I at an objective of 3e-9 on a feasible law whose
    cells are that small, with duals that are no certificate.  ``exact`` is
    read nowhere: bench/workloads.py still passes it, and it goes with that
    call (ROADMAP item 2).  Marginals that differ by more than 5 n stderr
    (``NOISE_FLOOR`` on an exact law), or a p outside (0, 1), raise
    ValueError.
    """
    p = _require_equal_marginals(
        nu, max(NOISE_FLOOR, 5.0 * nu.n * (float(np.max(nu.halfwidth)) / RELAX_SIGMA)))
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0,1), got {p}")
    n = nu.n
    mat = color_map_csc(n, p)
    mc = nu.stderr is not None
    # at another p the basis is not dual feasible, and the start costs more
    # than it saves: at n = 8, p = 0.3, 130 ms cold against 300 ms warm
    warm = abs(p - 0.5) <= NOISE_FLOOR
    lp = (phase_one(mat, nu.probs, slack=nu.halfwidth) if mc
          else phase_one(mat, nu.probs, basis=_start_basis(n) if warm else None))
    detail = {"relaxed_objective" if mc else "phase1_objective": lp.objective}
    if lp.objective <= FEAS_TOL:
        q, miss = _q_and_miss(n, mat, lp.x, nu.probs)
        if mc:
            return FeasibilityResult("Borderline", q, float(np.max(miss)), detail=detail)
        missed = _misses_a_cell(miss, nu.probs)
        if missed and warm:
            # the vertex a warm start ends at can leave the LP's tolerance in
            # small or zero cells (1e-13 on zero cells of n = 6 laws on two
            # partitions) where the slack basis's vertex is exact
            lp = phase_one(mat, nu.probs)
            q, miss = _q_and_miss(n, mat, lp.x, nu.probs)
            missed = lp.objective > FEAS_TOL or _misses_a_cell(miss, nu.probs)
            detail["phase1_objective"] = lp.objective
        return FeasibilityResult("Borderline" if missed else "Feasible", q,
                                 float(np.max(miss)), detail=detail)

    cert = _clean_certificate(mat, nu.probs, lp.y)
    verified = cert is not None and phase_one_exact(n, p, nu.probs, cert, nu.halfwidth)
    detail["certificate_verified"] = verified
    return FeasibilityResult("Infeasible" if verified else "Borderline", None, lp.objective,
                             certificate=cert if verified else None, detail=detail)


def _misses_a_cell(miss: np.ndarray, nu: np.ndarray) -> bool:
    """Does a push-forward that misses the exact law nu by ``miss`` per cell
    fail to reproduce it: by more than ``REL_TOL`` of a cell above
    ``ZERO_CELL``, or by more than ``ZERO_CELL`` on a cell at most that?"""
    return bool(np.any(miss > np.where(nu > ZERO_CELL, REL_TOL * nu, ZERO_CELL)))


def _clean_certificate(mat: csc_array, nu: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """The duals y scaled to max |y| = 1, or None unless they then have
    max A'y <= 1e-7 and y'nu > 0."""
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        return None
    y = y / scale
    return y if float(np.max(mat.T @ y)) <= 1e-7 and float(y @ nu) > 0.0 else None


# -- the four-points-on-a-circle t-interval (``scan theta``) -------------------

class SquareIntervals(NamedTuple):
    """The t-intervals of ``square_circle_intervals``, row i for law i: the
    capped interval [``t_lo``, ``t_hi``] and ``infeasible`` = t_lo > t_hi +
    ``NOISE_FLOOR``."""

    t_lo: np.ndarray
    t_hi: np.ndarray
    infeasible: np.ndarray


def square_circle_intervals(probs) -> SquareIntervals:
    """The t-intervals of the (N, 16) exact laws ``probs``, in one array pass
    with the same bits as one law at a time.  Each law must be what
    ``square_threshold_laws_exact`` builds: exact, dihedral-symmetric, with
    nu_0101 = nu_1010 = 0 and every marginal 1/2, so its 3-marginal is
    {0,1}-symmetric; these are not checked.  Such a law is a color process
    iff the t-family of its first three coordinates, capped by the dihedral
    zero pattern on B_4 (no weight on a partition that separates the 1-3 and
    2-4 diagonals), is not empty.  ``scan theta`` reads its columns from it.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 2 or probs.shape[1] != 16:
        raise ValueError(f"expected (N, 16) laws, got shape {probs.shape}")
    # the 3-marginal on coordinates 1, 2, 3, summed from 0.0 as the bincount of
    # ``BinaryLaw.marginalize`` sums it (a -0.0 cell adds as 0.0)
    nu3 = (0.0 + probs[:, 0::2]) + probs[:, 1::2]
    nu001, nu010, nu100 = nu3[:, 1], nu3[:, 2], nu3[:, 4]
    t_lo, t_hi = _t_family_bounds(nu001, nu010, nu100)
    singles = nu001 + nu010 + nu100
    # the caps of the dihedral zero pattern, linear in t (t_lo is >= 0 already):
    lo = np.maximum(t_lo, (4.0 * nu010 + 4.0 * singles - 1.0) / 2.0)
    hi = np.minimum(t_hi, 4.0 * (nu001 - nu010))
    return SquareIntervals(t_lo=lo, t_hi=hi, infeasible=lo > hi + NOISE_FLOOR)


def square_circle_solver(theta: float | None, h: float | None,
                         nu4: BinaryLaw) -> FeasibilityResult:
    """``lp_feasibility(nu4)`` for an n = 4 law; ``theta`` and ``h`` are unread.
    It exists only for the two rows of bench/tracing.py that time this name in
    ``solver`` and ``cli``, and goes with them (ROADMAP item 2)."""
    if nu4.n != 4:
        raise ValueError("square_circle_solver needs n = 4")
    return lp_feasibility(nu4)


def symmetric_plus_mean_gap(n: int) -> float:
    """Gap in the singleton-cluster consistency identity for the
    iid-plus-normalized-mean family: (pi/2)(n-2)/(n-1) - arcsin sqrt((n-2)/(n-1)).
    Zero at n = 3; strictly positive for n >= 4, which rules out DC at h = 0."""
    if n < 3:
        raise ValueError("n must be >= 3")
    r = (n - 2) / (n - 1)
    return (math.pi / 2.0) * r - math.asin(math.sqrt(r))
