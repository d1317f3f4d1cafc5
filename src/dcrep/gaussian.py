"""Threshold laws of mean-zero Gaussian vectors.

Exact closed forms at threshold zero for n <= 3 (arccos formulas), adaptive
quadrature for n = 2 at any threshold, seeded Monte Carlo for general (n, h),
and the leading-order orthant tail asymptote for large h.  No general-n exact
orthant routine is provided; everything past n=3/h=0 and n=2/any h is MC or
asymptotics by design.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from .partitions import BinaryLaw, _check_n, threshold_mc_law

SYM_TOL = 1e-12
RANK_RTOL = 1e-10  # eigenvalue cutoff, relative to the largest

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def normal_sf(x: float) -> float:
    """Upper tail P(Z > x), accurate in the far tail via erfc."""
    return 0.5 * math.erfc(x / SQRT2)


def normal_pdf(x: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * x * x)


class CovarianceSpec:
    """Symmetric covariance matrix with cached spectral data.

    Exposes: ``n``, ``a`` (the matrix), ``rank``, ``is_pd``, ``is_standard``
    (unit diagonal), ``inverse`` (when PD) and ``angles`` theta_ij =
    arccos(a_ij) (when standard).  Rejects a_ij = 1 off the diagonal on a
    standard matrix: perfectly equal coordinates are outside scope.
    """

    def __init__(self, a):
        a = np.array(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"covariance must be square, got shape {a.shape}")
        if np.max(np.abs(a - a.T)) > SYM_TOL:
            raise ValueError("covariance must be symmetric to 1e-12")
        if np.min(np.diagonal(a)) <= 0.0:
            raise ValueError("diagonal must be strictly positive")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self.a = a
        self.n = a.shape[0]
        self.eigvals = np.linalg.eigvalsh(a)
        cutoff = RANK_RTOL * self.eigvals[-1]
        self.rank = int(np.sum(self.eigvals > cutoff))
        self.is_pd = bool(self.eigvals[0] > cutoff)
        self.is_standard = bool(np.max(np.abs(np.diagonal(a) - 1.0)) <= SYM_TOL)
        if self.is_standard:
            off = a[~np.eye(self.n, dtype=bool)]
            if off.size and np.max(off) >= 1.0 - SYM_TOL:
                raise ValueError("a_ij = 1 on a unit-diagonal matrix: "
                                 "coordinates i and j would be a.s. equal")
            if off.size and np.min(off) < -1.0 - SYM_TOL:
                raise ValueError("correlations must lie in [-1, 1]")
        self._inverse = None

    @property
    def inverse(self) -> np.ndarray:
        if not self.is_pd:
            raise np.linalg.LinAlgError("covariance is singular; no inverse")
        if self._inverse is None:
            inv = np.linalg.inv(self.a)
            inv = 0.5 * (inv + inv.T)
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    @property
    def angles(self) -> np.ndarray:
        if not self.is_standard:
            raise ValueError("angles are defined for unit-diagonal matrices only")
        return np.arccos(np.clip(self.a, -1.0, 1.0))

    @property
    def det(self) -> float:
        return float(np.prod(self.eigvals))

    def offdiag(self) -> np.ndarray:
        iu = np.triu_indices(self.n, k=1)
        return self.a[iu]

    def principal(self, subset) -> "CovarianceSpec":
        idx = np.array(sorted(set(subset))) - 1
        if idx.size == 0 or idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"bad subset {subset} for n={self.n}")
        return CovarianceSpec(self.a[np.ix_(idx, idx)])

    @staticmethod
    def from_points(points) -> "CovarianceSpec":
        """Gram matrix of row vectors; rows on the unit sphere give a standard spec."""
        pts = np.asarray(points, dtype=float)
        return CovarianceSpec(pts @ pts.T)

    def __repr__(self):
        return f"CovarianceSpec(n={self.n}, rank={self.rank}, pd={self.is_pd})"


# -- named covariance families used throughout ------------------------------

def correlations3(a12: float, a13: float, a23: float) -> CovarianceSpec:
    return CovarianceSpec([[1.0, a12, a13], [a12, 1.0, a23], [a13, a23, 1.0]])


def fully_symmetric_cov(n: int, a: float) -> CovarianceSpec:
    m = np.full((n, n), float(a))
    np.fill_diagonal(m, 1.0)
    return CovarianceSpec(m)


def markov_chain_cov(n: int, a: float) -> CovarianceSpec:
    idx = np.arange(n)
    return CovarianceSpec(a ** np.abs(idx[:, None] - idx[None, :]))


def ab_cov(a: float, b: float) -> CovarianceSpec:
    return correlations3(a, a, b)


def square_on_sphere_cov(theta: float) -> CovarianceSpec:
    """Four points in a square at one latitude of the 2-sphere."""
    c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    d = c2 - s2
    return CovarianceSpec([[1, c2, d, c2],
                           [c2, 1, c2, d],
                           [d, c2, 1, c2],
                           [c2, d, c2, 1]])


def symmetric_plus_mean_cov(n: int, a: float) -> CovarianceSpec:
    """Fully symmetric (n-1)-vector at correlation a plus its normalized mean."""
    if not (0.0 <= a < 1.0):
        raise ValueError("a must lie in [0,1)")
    k = n - 1
    norm = math.sqrt(a * k * k + (1.0 - a) * k)
    m = np.full((n, n), float(a))
    np.fill_diagonal(m, 1.0)
    cross = (1.0 + (k - 1) * a) * k / (k * norm)
    m[:k, k] = cross
    m[k, :k] = cross
    return CovarianceSpec(m)


# -- exact threshold-zero laws ----------------------------------------------

def sheppard_pair(a: float) -> float:
    """P(X_1 > 0, X_2 > 0) = 1/2 - arccos(a)/(2 pi) for correlation a."""
    if not (-1.0 < a < 1.0):
        raise ValueError(f"correlation must lie in (-1,1), got {a}")
    return 0.5 - math.acos(a) / (2.0 * math.pi)


def pair_cluster_weight(a: float) -> float:
    """Weight of the paired partition in the unique n=2, h=0 representation."""
    if not (-1.0 < a < 1.0):
        raise ValueError(f"correlation must lie in (-1,1), got {a}")
    return 1.0 - 2.0 * math.acos(a) / math.pi

def zero_threshold_law_3(cov: CovarianceSpec) -> BinaryLaw:
    """Exact law of (I(X_i > 0))_{i<=3} for a standard Gaussian triple.

    nu_000 = 1/2 - (theta_12 + theta_13 + theta_23)/(4 pi); pair cells come
    from Sheppard's formula and the remaining cells follow from the {0,1}
    symmetry of the zero-threshold process.  Rank-2 matrices are accepted.
    """
    if cov.n != 3:
        raise ValueError("zero_threshold_law_3 needs n = 3")
    th = cov.angles
    t12, t13, t23 = th[0, 1], th[0, 2], th[1, 2]
    nu000 = 0.5 - (t12 + t13 + t23) / (4.0 * math.pi)
    pair12 = 0.5 - t12 / (2.0 * math.pi)  # P(X1>0, X2>0)
    pair13 = 0.5 - t13 / (2.0 * math.pi)
    pair23 = 0.5 - t23 / (2.0 * math.pi)
    nu111 = nu000
    nu110 = pair12 - nu111
    nu101 = pair13 - nu111
    nu011 = pair23 - nu111
    cells = {
        "000": nu000, "111": nu111,
        "110": nu110, "001": nu110,
        "101": nu101, "010": nu101,
        "011": nu011, "100": nu011,
    }
    probs = np.zeros(8)
    for rho, v in cells.items():
        if v < -1e-12:
            raise ValueError(f"matrix is not a valid correlation matrix: cell {rho} = {v}")
        probs[int(rho, 2)] = max(v, 0.0)
    probs /= probs.sum()
    return BinaryLaw(3, probs)


_SQUARE_ADJACENT = ({1, 2}, {2, 3}, {3, 4}, {1, 4})


def _square_mass_kind(corners: set) -> int:
    """Which orthant mass P(X_i > 0 for i in corners) of the square: 0 none,
    1 one corner, 2 an adjacent pair, 3 a diagonal pair, 4 three, 5 all four."""
    if len(corners) == 2:
        return 2 if corners in _SQUARE_ADJACENT else 3
    return {0: 0, 1: 1, 3: 4, 4: 5}[len(corners)]


@functools.cache
def _square_inclusion_exclusion() -> tuple[np.ndarray, np.ndarray]:
    """The inclusion-exclusion of ``square_threshold_law_exact`` as two
    (16, 16) tables, one row per cell.

    Cell idx (element 1 the high bit) with ones O and the rest R is
    sum over E within R, by |E| and then in combinations order, of
    (-1)^|E| P(X_i > 0 for i in O | E).  Row idx lists the kind of each
    term's orthant mass (``_square_mass_kind``) and its sign; rows are padded
    with sign 0.
    """
    kinds = np.zeros((16, 16), dtype=np.intp)
    signs = np.zeros((16, 16))
    for idx in range(16):
        ones = {i + 1 for i in range(4) if (idx >> (3 - i)) & 1}
        rest = sorted({1, 2, 3, 4} - ones)
        terms = [(ones | set(extra), (-1.0) ** r) for r in range(len(rest) + 1)
                 for extra in itertools.combinations(rest, r)]
        for t, (corners, sign) in enumerate(terms):
            kinds[idx, t] = _square_mass_kind(corners)
            signs[idx, t] = sign
    kinds.setflags(write=False)
    signs.setflags(write=False)
    return kinds, signs


class SquareLaws(NamedTuple):
    """Exact zero-threshold laws of the square-on-sphere quadruple, row i at
    ``theta[i]``: ``th_adj`` is the adjacent-pair angle arccos(cos^2 theta)
    and ``probs`` the (N, 16) cells."""

    theta: np.ndarray
    th_adj: np.ndarray
    probs: np.ndarray


def square_threshold_laws_exact(theta) -> SquareLaws:
    """``square_threshold_law_exact`` for each value of the 1-D ``theta``, in
    one array pass with the same bits.

    The 16 inclusion-exclusion terms are added one at a time, in ``cumsum``
    order, so no (N, 16, 16) temporary is built; the cells are normalized by
    their sum in the order of numpy's 1-D sum of 16 values.
    """
    theta = np.array(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta must be a 1-D array, got shape {theta.shape}")
    if not np.all((0.0 < theta) & (theta <= math.pi / 2)):
        raise ValueError("theta must lie in (0, pi/2]")
    # libm's cos and acos per value: numpy's ufuncs may round differently
    th_adj = np.array([math.acos(math.cos(t) ** 2) for t in theta.tolist()])
    th_diag = 2.0 * theta
    masses = np.empty((len(theta), 6))  # column k: the orthant mass of kind k
    masses[:, 0] = 1.0
    masses[:, 1] = 0.5
    masses[:, 2] = 0.5 - th_adj / (2 * math.pi)
    masses[:, 3] = 0.5 - th_diag / (2 * math.pi)
    # every triple: 2 adjacent + 1 diagonal
    masses[:, 4] = 0.5 - (2 * th_adj + th_diag) / (4 * math.pi)
    masses[:, 5] = 0.5 - th_adj / math.pi  # from nu_0101 = 0
    kinds, signs = _square_inclusion_exclusion()
    probs = signs[:, 0] * masses[:, kinds[:, 0]]
    for t in range(1, 16):
        probs += signs[:, t] * masses[:, kinds[:, t]]
    if probs.size and probs.min() < -1e-12:
        raise ValueError(f"inconsistent construction: min cell {probs.min()}")
    np.clip(probs, 0.0, None, out=probs)
    r = probs[:, :8] + probs[:, 8:]
    probs /= (((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3]))
              + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])))[:, None]
    return SquareLaws(theta, th_adj, probs)


def square_threshold_law_exact(theta: float) -> BinaryLaw:
    """Exact zero-threshold law of the square-on-sphere quadruple.

    All P(X_i > 0 for i in T) with |T| <= 3 are arccos expressions; the single
    four-fold orthant mass is pinned by the forbidden alternating pattern
    (X_1 + X_3 = X_2 + X_4 makes 0101 impossible), and the 16 cells follow by
    inclusion-exclusion, summed term by term from the left.  A stack of one
    over ``square_threshold_laws_exact``.
    """
    return BinaryLaw(4, square_threshold_laws_exact([theta]).probs[0])


def bivariate_threshold_exact(a: float, h: float) -> float:
    """P(X_1 > h, X_2 > h) for a standard pair at correlation a.

    One-dimensional adaptive quadrature of
    phi(x) * SF((h - a x)/sqrt(1-a^2)) over x in (h, inf), written as
    phi(h) * integral of exp(-h t - t^2/2) * SF(...) so the result keeps
    relative accuracy deep in the tail.  Absolute error stays below 1e-10.
    """
    if not (-1.0 < a < 1.0):
        raise ValueError(f"correlation must lie in (-1,1), got {a}")
    if a == 0.0:
        return normal_sf(h) ** 2
    if h < 0.0:
        # reflect: P(X1>h, X2>h) = 1 - 2 Phi(h) + P(X1>-h, X2>-h)
        return 1.0 - 2.0 * normal_cdf(h) + bivariate_threshold_exact(a, -h)
    s = math.sqrt(1.0 - a * a)

    def integrand(t):
        return math.exp(-h * t - 0.5 * t * t) * normal_sf((h * (1.0 - a) - a * t) / s)

    val, err = integrate.quad(integrand, 0.0, np.inf,
                              epsabs=1e-13, epsrel=1e-11, limit=200)
    if err > 1e-8:
        raise RuntimeError(f"quadrature did not converge (err={err})")
    return normal_pdf(h) * val


# -- Monte Carlo -------------------------------------------------------------

def sampling_factor(cov: CovarianceSpec) -> np.ndarray:
    """n x r loading matrix L with L L^T = A, from the top-r eigenpairs."""
    vals, vecs = np.linalg.eigh(cov.a)
    keep = vals > RANK_RTOL * vals[-1]
    return vecs[:, keep] * np.sqrt(vals[keep])


def threshold_law_mc(cov: CovarianceSpec, h: float, m: int, seed) -> BinaryLaw:
    """Monte Carlo estimate of the threshold law, with per-cell stderr.

    Rank-deficient covariances are sampled through their r leading eigenpairs.
    Unreliable for h > 4 at n >= 3: the orthant mass decays like exp(-h^2).
    """
    _check_n(cov.n)
    ell = sampling_factor(cov)

    def draw(k, rng):
        return (ell @ rng.standard_normal((k, ell.shape[1])).T).T

    return threshold_mc_law(draw, cov.n, h, m, seed)


# -- large-h tail asymptote ---------------------------------------------------

@dataclass(frozen=True)
class TailAsymptote:
    """Leading-order estimate of a far-orthant cell, or the half-ratio rule."""

    status: str                 # "ok" | "half-ratio"
    value: float | None
    pattern: str
    alpha_vector: np.ndarray    # ones-row of the inverse covariance
    quadratic: float            # 1' A^{-1} 1, the exponential rate
    prefactor: float | None     # value = prefactor * h^{-n} * exp(-h^2 quadratic / 2)
    half_ratio: float | None    # lim nu_{1^n} / nu_{.1^{n-1}} when a component vanishes


def tail_asymptote(cov: CovarianceSpec, pattern, h: float) -> TailAsymptote:
    """Leading-order nu_pattern(h) for h -> infinity.

    Valid for the single sign pattern picked out by alpha = 1' A^{-1}:
    nu ~ (2 pi)^{-n/2} det(A)^{-1/2} (prod |alpha_i|)^{-1} h^{-n}
         exp(-h^2 (1'A^{-1}1)/2).
    When some alpha_i = 0 the cell-level formula degenerates; the half-ratio
    rule lim nu_{1^n}/nu_{.1^{n-1}} = 1/2 is reported instead of a number.
    """
    if not cov.is_pd:
        raise ValueError("tail asymptote needs a positive definite covariance")
    if not cov.is_standard:
        raise ValueError("tail asymptote is stated for unit-diagonal matrices")
    if not isinstance(pattern, str):
        pattern = "".join(str(int(b)) for b in pattern)
    if len(pattern) != cov.n or any(c not in "01" for c in pattern):
        raise ValueError(f"bad pattern {pattern!r} for n={cov.n}")
    alpha = np.ones(cov.n) @ cov.inverse
    quadratic = float(np.ones(cov.n) @ cov.inverse @ np.ones(cov.n))
    band = 1e-10 * max(1.0, float(np.max(np.abs(alpha))))
    zeros = np.abs(alpha) <= band
    if np.any(zeros):
        return TailAsymptote(status="half-ratio", value=None, pattern=pattern,
                             alpha_vector=alpha, quadratic=quadratic,
                             prefactor=None, half_ratio=0.5)
    expected = "".join("1" if x > 0 else "0" for x in alpha)
    if pattern != expected:
        raise ValueError(f"pattern {pattern!r} does not match the sign pattern "
                         f"{expected!r} of 1'A^-1; only that cell has this asymptote")
    n = cov.n
    prefactor = ((2.0 * math.pi) ** (-n / 2.0)
                 / math.sqrt(cov.det)
                 / float(np.prod(np.abs(alpha))))
    value = prefactor * h ** (-n) * math.exp(-0.5 * h * h * quadratic)
    return TailAsymptote(status="ok", value=value, pattern=pattern,
                         alpha_vector=alpha, quadratic=quadratic,
                         prefactor=prefactor, half_ratio=None)
