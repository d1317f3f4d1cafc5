"""Matrix-level classifiers for threshold Gaussian vectors.

Everything here is a pure function of the covariance matrix: the
inverse-Stieltjes test, the Savage vector 1'A^{-1} and its Strict/Weak/Fails
trichotomy, the four-condition free-field characterization, the complete
n = 3 large-threshold classifier, degeneracy obstructions, and the
two-parameter (a, b) region map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse.csgraph import connected_components

from .gaussian import RANK_RTOL, CovarianceSpec, ab_cov
from .reports import ClassificationReport, Regime, Verdict

ZERO_BAND = 1e-10       # Savage coordinates within this of 0 count as zero
STIELTJES_TOL = 1e-12
POS_ENTRY_TOL = 1e-12


class SavageStatus(str, Enum):
    STRICT = "Strict"
    WEAK = "Weak"
    FAILS = "Fails"


@dataclass(frozen=True)
class ConditionReport:
    savage_vector: np.ndarray           # 1' A^{-1}, per coordinate
    savage: SavageStatus
    stieltjes_inverse: bool
    stieltjes_offending: list[tuple[int, int, float]]
    dgff: bool
    dgff_failures: list[str]
    quadratic: float                    # 1' A^{-1} 1


def savage_vector(cov: CovarianceSpec) -> np.ndarray:
    return np.ones(cov.n) @ cov.inverse


def savage_status(vec: np.ndarray) -> SavageStatus:
    if np.min(vec) > ZERO_BAND:
        return SavageStatus.STRICT
    if np.min(vec) >= -ZERO_BAND:
        return SavageStatus.WEAK
    return SavageStatus.FAILS


def savage_closed_form_3(cov: CovarianceSpec) -> float:
    """First Savage coordinate times det A, in closed form:
    (1 + a_23 - a_12 - a_13)(1 - a_23)."""
    if cov.n != 3 or not cov.is_standard:
        raise ValueError("closed form is for standard n = 3 matrices")
    a = cov.a
    return (1.0 + a[1, 2] - a[0, 1] - a[0, 2]) * (1.0 - a[1, 2])


def is_inverse_stieltjes(cov: CovarianceSpec) -> tuple[bool, list[tuple[int, int, float]]]:
    """True iff all off-diagonal entries of A^{-1} are <= 0 (within 1e-12);
    the offending entries (i, j, value), 1-based with i < j, in row order."""
    i, j = np.triu_indices(cov.n, k=1)
    values = cov.inverse[i, j]
    hit = values > STIELTJES_TOL
    bad = list(zip((i[hit] + 1).tolist(), (j[hit] + 1).tolist(), values[hit].tolist()))
    return (len(bad) == 0, bad)


def _blocks(cov: CovarianceSpec) -> list[list[int]]:
    """Connected components of the graph with edges a_ij > POS_ENTRY_TOL
    (1-based), in order of their least element."""
    count, labels = connected_components(cov.a > POS_ENTRY_TOL, directed=False)
    return [(np.flatnonzero(labels == c) + 1).tolist() for c in range(count)]


def is_dgff(cov: CovarianceSpec) -> tuple[bool, list[str]]:
    """Four-condition free-field check.

    (i) block matrix with strictly positive blocks, (ii) inverse Stieltjes,
    (iii) weak Savage, (iv) in each block some row with a strictly positive
    Savage coordinate.
    """
    if not cov.is_pd:
        return False, ["matrix is not positive definite"]
    return _dgff(cov, savage_vector(cov), is_inverse_stieltjes(cov)[1])


def _dgff(cov: CovarianceSpec, vec: np.ndarray, bad) -> tuple[bool, list[str]]:
    """``is_dgff`` of a positive definite cov, given its Savage vector and the
    offending entries of ``is_inverse_stieltjes``."""
    failures = []
    comps = _blocks(cov)
    for comp in comps:
        sub = cov.a[np.ix_([i - 1 for i in comp], [i - 1 for i in comp])]
        if np.min(sub) <= POS_ENTRY_TOL:
            failures.append(f"block {comp} is not strictly positive")
    if bad:
        failures.append(f"inverse has positive off-diagonal entries {bad}")
    if savage_status(vec) is SavageStatus.FAILS:
        failures.append("weak Savage fails: min 1'A^-1 = %.3g" % float(np.min(vec)))
    else:
        for comp in comps:
            if not any(vec[i - 1] > ZERO_BAND for i in comp):
                failures.append(f"block {comp} has no strictly positive Savage coordinate")
    return (len(failures) == 0, failures)


def savage_report(cov: CovarianceSpec) -> ConditionReport:
    vec = savage_vector(cov)            # raises unless cov is positive definite
    ok, bad = is_inverse_stieltjes(cov)
    dgff, fails = _dgff(cov, vec, bad)
    return ConditionReport(
        savage_vector=vec,
        savage=savage_status(vec),
        stieltjes_inverse=ok,
        stieltjes_offending=bad,
        dgff=dgff,
        dgff_failures=fails,
        quadratic=float(np.ones(cov.n) @ cov.inverse @ np.ones(cov.n)),
    )


# -- the complete n = 3 large-threshold classifier ----------------------------

@dataclass(frozen=True)
class LargeHVerdict:
    verdict: Verdict
    case_tag: str                      # "i" | "ii" | "iii" | "zero-cov" | "degenerate"
    savage_vector: np.ndarray | None = None
    quadratic: float | None = None

    @property
    def color_for_large_h(self) -> bool:
        return self.verdict is Verdict.COLOR_REP


def classify_large_h_3(cov: CovarianceSpec) -> LargeHVerdict:
    """Exact trichotomy for fully supported standard triples with a_ij in [0,1).

    All covariances positive: representable for large h iff the Savage vector
    is strictly positive (i), or its minimum is zero (ii), or its minimum is
    negative with 1'A^{-1}1 < 2 (iii).  Exactly one zero covariance kills
    large-h representability; two zeros make it trivial.  The verdict comes
    from ``classify_stack_3`` on a stack of one.
    """
    if cov.n != 3:
        raise ValueError("classify_large_h_3 needs n = 3")
    if not cov.is_standard:
        raise ValueError("classifier needs a unit-diagonal matrix")
    if np.min(cov.offdiag()) < -POS_ENTRY_TOL:
        raise ValueError("classifier needs nonnegative correlations")
    if not cov.is_pd:
        raise ValueError("degenerate covariance: use classify_degenerate")
    k = classify_stack_3(cov.a[None])
    verdict = Verdict.COLOR_REP if k.large_h_color[0] else Verdict.NO_COLOR_REP
    tag = str(k.case_tag[0])
    if tag == "zero-cov":
        return LargeHVerdict(verdict, tag)
    return LargeHVerdict(verdict, tag, k.savage_vector[0], float(k.quadratic[0]))


# -- stacked n = 3 classifier -------------------------------------------------

_IU3 = (np.array([0, 0, 1]), np.array([1, 2, 2]))   # upper off-diagonal of 3x3


@dataclass(frozen=True)
class Classified3:
    """Classifier output for a stack of standard 3x3 matrices, one row each.

    Rows that are not numerically PD hold NaN in ``savage_vector`` and
    ``quadratic``, False in the flags and "" as tag.
    """

    mats: np.ndarray               # (N, 3, 3)
    eigvals: np.ndarray            # (N, 3), ascending
    pd: np.ndarray                 # (N,) smallest eigenvalue above RANK_RTOL * largest
    savage_vector: np.ndarray      # (N, 3) 1'A^{-1}
    quadratic: np.ndarray          # (N,) 1'A^{-1}1
    dgff: np.ndarray               # (N,) is_dgff says True
    large_h_color: np.ndarray      # (N,) classify_large_h_3 says ColorRep
    case_tag: np.ndarray           # (N,) "i" | "ii" | "iii" | "zero-cov" | ""


def classify_stack_3(mats) -> Classified3:
    """``is_dgff`` and the large-h trichotomy of ``classify_large_h_3`` on an
    (N, 3, 3) stack of unit-diagonal symmetric matrices, as array operations.

    Each matrix goes through the same LAPACK/BLAS calls as a lone
    ``CovarianceSpec`` (eigvalsh, inv, 1'A^{-1} as a vector-matrix product,
    1'A^{-1}1 as a dot product), so every row matches the per-matrix path
    bit for bit.  Input checks are the callers' job.
    """
    mats = np.asarray(mats, dtype=float)
    eig = np.linalg.eigvalsh(mats)
    pd = eig[:, 0] > RANK_RTOL * eig[:, -1]
    inv = np.linalg.inv(mats[pd])
    inv += np.swapaxes(inv, 1, 2)
    inv *= 0.5
    ones = np.ones(3)
    vec = np.full((len(mats), 3), np.nan)
    vec[pd] = ones @ inv
    quad = (vec[:, None, :] @ ones)[:, 0]
    low = vec.min(axis=1)

    # large h: zero covariances first, then the Savage trichotomy
    zeros = np.sum(np.abs(mats[:, _IU3[0], _IU3[1]]) <= POS_ENTRY_TOL, axis=1)
    color = np.where(zeros >= 2, True,
                     np.where(zeros == 1, False, (low >= -ZERO_BAND) | (quad < 2.0)))
    case = np.select([zeros >= 1, low > ZERO_BAND, low >= -ZERO_BAND],
                     ["zero-cov", "i", "ii"], "iii")

    # free field: with three indices, paths of length <= 2 reach a whole block.
    # Condition (iv) follows from (iii) here: a block's Savage coordinates sum
    # to 1'A_B^{-1}1 >= |B| / lambda_max(A_B) >= 1, so one is at least 1/3.
    edge = mats > POS_ENTRY_TOL
    blocks_positive = np.all(edge @ edge == edge, axis=(1, 2))
    stieltjes = np.ones(len(mats), dtype=bool)
    stieltjes[pd] = ~np.any(inv[:, _IU3[0], _IU3[1]] > STIELTJES_TOL, axis=1)
    dgff = blocks_positive & stieltjes & (low >= -ZERO_BAND)

    return Classified3(mats=mats, eigvals=eig, pd=pd, savage_vector=vec,
                       quadratic=quad, dgff=pd & dgff, large_h_color=pd & color,
                       case_tag=np.where(pd, case, ""))


# -- degeneracy obstructions --------------------------------------------------

def classify_degenerate(cov: CovarianceSpec) -> list[ClassificationReport]:
    """Obstructions available when rank(A) < n; empty list for full rank.

    (a) A null relation sum a_i X_i = 0 with sum a_i != 0 (plus full support
        of the reduced subvector) forbids one sign pattern while its
        complement stays charged: no representation for any h > 0.
    (b) Any rank-deficient standard matrix with correlations in [0,1) has no
        representation for large h.
    """
    out: list[ClassificationReport] = []
    if cov.rank == cov.n:
        return out

    if cov.is_standard:
        off = cov.offdiag()
        if off.size and np.min(off) >= -POS_ENTRY_TOL and np.max(off) < 1.0:
            out.append(ClassificationReport(
                Verdict.NO_COLOR_REP, Regime.LARGE_H, "classify_degenerate",
                witness={"rank": cov.rank, "n": cov.n,
                         "reason": "not fully supported"}))

    vals, vecs = np.linalg.eigh(cov.a)
    null = vecs[:, vals <= RANK_RTOL * vals[-1]]
    if null.shape[1] > 0:
        coeff = null @ (null.T @ np.ones(cov.n))  # projection of 1 onto the null space
        norm = float(np.linalg.norm(coeff))
        if norm > 1e-9:
            a = coeff / norm
            support = [i for i in range(cov.n) if abs(a[i]) > 1e-9]
            sub = cov.a[np.ix_(support, support)]
            sub_vals = np.linalg.eigvalsh(sub)
            sub_rank = int(np.sum(sub_vals > RANK_RTOL * sub_vals[-1]))
            if sub_rank == len(support) - 1 and len(support) >= 2:
                pos = sum(a[i] for i in support if a[i] > 0)
                neg = -sum(a[i] for i in support if a[i] < 0)
                if pos >= neg:
                    a = -a
                pattern = ["-"] * cov.n
                required = ["-"] * cov.n
                for i in support:
                    pattern[i] = "1" if a[i] < 0 else "0"
                    required[i] = "0" if a[i] < 0 else "1"
                out.append(ClassificationReport(
                    Verdict.NO_COLOR_REP, Regime.ALL_POSITIVE_H, "classify_degenerate",
                    witness={"null_vector": [float(v) for v in a],
                             "forbidden_pattern": "".join(pattern),
                             "required_pattern": "".join(required)}))
    return out


# -- the (a, b) example region map --------------------------------------------

def on_markov_boundary(gap):
    """Is b - a^2 = ``gap`` within 1e-12 of 0, on the Markov-chain boundary
    b = a^2?  Elementwise on an array of gaps."""
    return np.abs(gap) <= 1e-12


@dataclass(frozen=True)
class ABRegion:
    """Region data for the family (1, a, a; a, 1, b; a, b, 1)."""

    a: float
    b: float
    pd: bool
    numerically_pd: bool       # False on the razor edge of the PD boundary
    large_h_color: bool
    dgff: bool
    markov_gap: float          # b - a^2; zero on the Markov-chain boundary
    savage_min: float
    pd_margin: float           # 1 + b - 2 a^2; positive iff PD
    case_tag: str | None

    @property
    def markov_boundary(self) -> bool:
        return bool(on_markov_boundary(self.markov_gap))

    def cov(self) -> CovarianceSpec:
        return ab_cov(self.a, self.b)


@dataclass(frozen=True)
class ABGrid:
    """``ABRegion`` fields as arrays over N points (a_k, b_k), plus the stacked
    classifier output for the matrices ab_cov(a_k, b_k)."""

    a: np.ndarray
    b: np.ndarray
    pd: np.ndarray
    numerically_pd: np.ndarray
    large_h_color: np.ndarray
    dgff: np.ndarray
    markov_gap: np.ndarray
    savage_min: np.ndarray
    pd_margin: np.ndarray
    case_tag: np.ndarray           # object array: str, or None off the PD region
    classified: Classified3

    def region(self, k: int) -> ABRegion:
        return ABRegion(a=float(self.a[k]), b=float(self.b[k]), pd=bool(self.pd[k]),
                        numerically_pd=bool(self.numerically_pd[k]),
                        large_h_color=bool(self.large_h_color[k]), dgff=bool(self.dgff[k]),
                        markov_gap=float(self.markov_gap[k]),
                        savage_min=float(self.savage_min[k]),
                        pd_margin=float(self.pd_margin[k]), case_tag=self.case_tag[k])


def ab_region_grid(a, b) -> ABGrid:
    """``ab_region_classify`` on the points (a[k], b[k]) in one array pass.

    A point outside (0,1)^2 anywhere in the grid raises ValueError before any
    point is classified.  Then the first point, in order, with classifier and
    closed form in disagreement raises: ValueError where b <= POS_ENTRY_TOL,
    which the classifier reads as a zero covariance and the closed form as a
    positive one, AssertionError anywhere else.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all((0.0 < a) & (a < 1.0) & (0.0 < b) & (b < 1.0)):
        raise ValueError("a and b must lie in (0,1)")
    pd = 2.0 * a * a < 1.0 + b
    # float_power is libm pow, as Python's ** on floats; x * x differs from it
    # in the last ulp on about one input in a thousand
    large = (2.0 * a - 1.0 <= b) | (np.float_power(2.0 * a - 1.0, 2.0) < b)
    mats = np.empty((len(a), 3, 3))
    mats[:] = np.eye(3)
    mats[:, 0, 1] = mats[:, 1, 0] = mats[:, 0, 2] = mats[:, 2, 0] = a
    mats[:, 1, 2] = mats[:, 2, 1] = b
    k = classify_stack_3(mats)
    usable = pd & k.pd         # False on the razor edge of the PD boundary
    zero_cov = k.case_tag == "zero-cov"
    # exactly on b = (2a-1)^2 the quadratic form equals 2 and rounding may land
    # either side; anywhere else the two forms must agree
    on_boundary = ~zero_cov & (np.abs(k.quadratic - 2.0) <= 1e-9)
    wrong = np.flatnonzero(usable & (k.large_h_color != large) & ~on_boundary)
    if wrong.size:
        i = wrong[0]
        if zero_cov[i]:
            # b in (0, POS_ENTRY_TOL]: a zero covariance to the classifier,
            # a positive one to the closed form
            raise ValueError(f"(a={float(a[i])}, b={float(b[i])}): a covariance within "
                             f"{POS_ENTRY_TOL} of 0 leaves the large-h verdict unresolved")
        raise AssertionError("classifier and closed-form region disagree at "
                             f"(a={float(a[i])}, b={float(b[i])})")
    case = np.where(usable, k.case_tag, None)
    return ABGrid(a=a, b=b, pd=pd, numerically_pd=usable, large_h_color=large,
                  dgff=usable & k.dgff, markov_gap=b - a * a,
                  savage_min=np.where(usable & ~zero_cov, k.savage_vector.min(axis=1), np.nan),
                  pd_margin=1.0 + b - 2.0 * a * a, case_tag=case, classified=k)


def ab_region_classify(a: float, b: float) -> ABRegion:
    """Evaluate the displayed inequalities for the two-parameter family.

    PD iff 2a^2 < 1 + b; representable for large h iff 2a - 1 <= b or
    (2a - 1)^2 < b; the line b = a^2 is the Gaussian Markov chain boundary
    (also the free-field boundary).  The classifier's large-h verdict is
    checked against the closed form; where they disagree because b is within
    POS_ENTRY_TOL of 0, the point raises ValueError.
    """
    return ab_region_grid([a], [b]).region(0)
