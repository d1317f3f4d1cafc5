"""Symmetric alpha-stable machinery.

Variate generation by the Chambers-Mallows-Stuck transform, spectral measures
of linear images of iid stable variables, threshold-law Monte Carlo, the
two-dimensional correlation criterion, and the second-coordinate integral
governing large-threshold representability.

The transform is evaluated from tangents alone (``_cms``): numpy runs float64
tan with vector instructions at about 2 ns per element, but sin and cos
through scalar libm at 12-18 ns, so on a 2-core x86-64 box with AVX-512 a
variate costs 22-24 ns in place of 42-56 ns with sin and cos.

Conventions follow the scale parameterization with characteristic function
exp(-sigma^alpha |t|^alpha) in the symmetric case; at alpha = 2 the scale is
the standard deviation divided by sqrt(2).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .partitions import MC_BLOCK, BinaryLaw, _check_n, threshold_mc_law

DIRECTION_MERGE_TOL = 1e-10
STANDARD_ROW_TOL = 1e-9


def _check_alpha(alpha: float, upper_open: bool = True) -> None:
    hi_ok = alpha < 2.0 if upper_open else alpha <= 2.0
    if not (alpha > 0.0 and hi_ok):
        raise ValueError(f"alpha out of range: {alpha}")


def sample_sym_stable(alpha: float, sigma: float, m: int, seed) -> np.ndarray:
    """m draws from the symmetric stable law with exponent alpha, scale sigma.

    alpha = 2 returns Gaussians with standard deviation sigma*sqrt(2);
    alpha = 1 uses the tan(U) Cauchy special case; otherwise the symmetric
    Chambers-Mallows-Stuck transform of a (uniform, exponential) pair.
    """
    _check_alpha(alpha, upper_open=False)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    if alpha == 2.0:
        return sigma * math.sqrt(2.0) * rng.standard_normal(m)
    u = _angles(m, rng)
    if alpha == 1.0:
        return sigma * np.tan(u)
    return sigma * _cms(alpha, u, rng.exponential(1.0, m))


def _angles(m: int, rng, out=None) -> np.ndarray:
    """m uniform angles on (-pi/2, pi/2): (U - 1/2) pi for U uniform on [0, 1),
    written to ``out`` when it is given."""
    u = rng.random(m, out=out)
    u -= 0.5
    u *= math.pi
    return u


def _cms(alpha: float, u: np.ndarray, w: np.ndarray, theta0: float = 0.0) -> np.ndarray:
    """The Chambers-Mallows-Stuck transform, in place:
    sin(alpha (u + theta0)) / cos(u)^(1/alpha)
        * (cos(u - alpha (u + theta0)) / w)^((1 - alpha)/alpha)
    for angles u in [-pi/2, pi/2) and Exp(1) draws w; theta0 = 0 gives the
    symmetric law and theta0 = pi/2 (alpha < 1) the totally skewed positive
    one.  Returns u, which holds the values; w is overwritten.

    Every factor comes from a tangent, since the angles stay inside
    (-pi, pi) for the sine and (-pi/2, pi/2) for the cosines:
    sin(x) = 2 T / (1 + T^2) with T = tan(x / 2), cos(u)^(-1/alpha) =
    (1 + tan(u)^2)^(1/(2 alpha)) and, with v = u - alpha (u + theta0),
    (cos(v) / w)^((1 - alpha)/alpha) = ((1 + tan(v)^2) w^2)^((alpha - 1)/(2 alpha)).
    numpy runs float64 tan with vector instructions, but sin and cos through
    scalar libm (module docstring).  Each element goes through the same
    floating-point operations as the whole-array expression, so the values
    match it bit for bit.
    """
    if theta0:          # v; u + theta0 is exact near u = -theta0, where cos(v) -> 0
        t = np.add(u, theta0)
        t *= alpha
        np.subtract(u, t, out=t)
    else:
        t = np.multiply(1.0 - alpha, u)
    np.tan(t, out=t)
    t *= t
    t += 1.0
    w *= w
    t *= w
    t **= (alpha - 1.0) / (2.0 * alpha)
    if theta0:
        np.add(u, theta0, out=w)
        w *= 0.5 * alpha
    else:
        np.multiply(0.5 * alpha, u, out=w)
    np.tan(w, out=w)
    np.tan(u, out=u)
    u *= u
    u += 1.0
    u **= 0.5 / alpha
    u *= w
    w *= w
    w += 1.0
    u /= w
    u *= 2.0
    u *= t
    return u


def sample_pos_stable(alpha_half: float, scale: float, m: int, seed) -> np.ndarray:
    """m draws from the totally skewed positive stable law S_a(scale, 1, 0),
    a = alpha_half in (0,1): the transform with theta0 = arctan(tan(pi a/2))/a
    = pi/2.  All outputs are strictly positive."""
    if not (0.0 < alpha_half < 1.0):
        raise ValueError("alpha_half must lie in (0,1)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    a = alpha_half
    s_fac = math.cos(math.pi * a / 2.0) ** (-1.0 / a)
    u = _angles(m, rng)
    return scale * s_fac * _cms(a, u, rng.exponential(1.0, m), math.pi / 2.0)


def subordinator_scale(alpha: float) -> float:
    """Scale making S^(1/2) N(0,1) symmetric alpha-stable with unit scale:
    2 cos(pi alpha / 4)^(2/alpha)."""
    _check_alpha(alpha)
    return 2.0 * math.cos(math.pi * alpha / 4.0) ** (2.0 / alpha)


def _canonical(x: np.ndarray) -> np.ndarray:
    """The one of +-x whose first nonzero coordinate is positive."""
    for c in x:
        if c != 0.0:
            return -x if c < 0.0 else x
    return x


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric atomic measure on the unit sphere.

    Atoms come in +-x pairs of equal weight, so only one of each pair is
    kept: ``representatives`` lists (x, w) with x a unit vector whose first
    nonzero coordinate is positive, and ``atoms`` lists every atom, each
    representative and then its mirror.
    """

    alpha: float
    d: int
    representatives: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        for x, w in self.representatives:
            x = np.asarray(x)
            if x.shape != (self.d,):
                raise ValueError(f"atom {x} is not {self.d}-dimensional")
            if abs(np.linalg.norm(x) - 1.0) > 1e-12:
                raise ValueError(f"atom {x} is not on the unit sphere")
            if not np.array_equal(_canonical(x), x):
                raise ValueError(f"atom {x} is not canonically signed; give {-x}")
            if w <= 0.0:
                raise ValueError("atom weights must be positive")
        keys = [tuple(np.round(x, 9)) for x, _ in self.atoms]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate atom direction; merge weights first")

    @staticmethod
    def symmetric(pairs, alpha: float, d: int) -> "SpectralMeasure":
        """Build from (direction, weight) pairs, one per +-pair: each
        direction is normalized and canonically signed."""
        reps = []
        for x, w in pairs:
            x = np.asarray(x, dtype=float)
            reps.append((tuple(_canonical(x / np.linalg.norm(x))), float(w)))
        return SpectralMeasure(alpha=alpha, d=d, representatives=tuple(reps))

    @property
    def atoms(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        return tuple(atom for x, w in self.representatives
                     for atom in ((x, w), (tuple(-np.asarray(x)), w)))

    def scaled_atoms(self) -> list[np.ndarray]:
        """(2 w)^{1/alpha} x for every atom x; the natural tail-limit scaling."""
        return [np.asarray(x) * (2.0 * w) ** (1.0 / self.alpha)
                for x, w in self.atoms]

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "d": self.d,
                "atoms": [{"x": [float(v) for v in x], "w": float(w)}
                          for x, w in self.representatives]}


@dataclass(frozen=True)
class StableLinearModel:
    """X = loadings @ (S_1, ..., S_m) with S_i iid symmetric alpha-stable."""

    alpha: float
    loadings: np.ndarray

    def __post_init__(self):
        _check_alpha(self.alpha)
        lo = np.array(self.loadings, dtype=float)
        if lo.ndim != 2:
            raise ValueError("loadings must be a d x m matrix")
        lo.setflags(write=False)
        object.__setattr__(self, "loadings", lo)
        for i in range(lo.shape[0]):
            for j in range(i + 1, lo.shape[0]):
                if np.max(np.abs(lo[i] - lo[j])) <= 1e-12:
                    raise ValueError(f"rows {i+1} and {j+1} are identical: "
                                     "coordinates would be a.s. equal")

    @property
    def d(self) -> int:
        return self.loadings.shape[0]

    @property
    def m(self) -> int:
        return self.loadings.shape[1]

    def row_scales(self) -> np.ndarray:
        """sigma_i^alpha = sum_j |loadings_ij|^alpha per coordinate."""
        return np.sum(np.abs(self.loadings) ** self.alpha, axis=1)

    @property
    def standardized(self) -> bool:
        return bool(np.max(np.abs(self.row_scales() - 1.0)) <= STANDARD_ROW_TOL)


def spectral_from_matrix(model: StableLinearModel) -> SpectralMeasure:
    """Spectral measure of the linear model: weight ||x||^alpha / 2 at
    +-x/||x|| per column x, duplicate directions merged."""
    merged: list[tuple[np.ndarray, float]] = []
    for j in range(model.m):
        x = model.loadings[:, j]
        r = float(np.linalg.norm(x))
        if r == 0.0:
            raise ValueError(f"column {j+1} of the loadings is zero")
        u = _canonical(x / r)
        w = r ** model.alpha / 2.0
        for k, (v, wv) in enumerate(merged):
            if np.max(np.abs(v - u)) <= DIRECTION_MERGE_TOL:
                merged[k] = (v, wv + w)
                break
        else:
            merged.append((u, w))
    return SpectralMeasure.symmetric(merged, alpha=model.alpha, d=model.d)


def sample_stable_vector(model: StableLinearModel, m: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    s = sample_sym_stable(model.alpha, 1.0, m * model.m, rng).reshape(m, model.m)
    return s @ model.loadings.T


def stable_threshold_law_mc(model: StableLinearModel, h: float, m: int, seed) -> BinaryLaw:
    """Monte Carlo threshold law of the model; refuses h != 0 on
    non-standardized rows (unequal marginals cannot be a color process)."""
    _check_n(model.d)
    if h != 0.0 and not model.standardized:
        raise ValueError("rows are not standardized: marginals differ, so a "
                         "nonzero threshold cannot give a color process")
    cols = model.m
    # each thread draws its blocks' angles and exponentials into the same two
    # arrays: freed after every block, they went back to the system and the
    # next block faulted them in again, a fifth of a law's time on one CPU
    arrays = threading.local()

    def draw(k, rng):
        if not hasattr(arrays, "u"):
            arrays.u, arrays.w = np.empty(MC_BLOCK * cols), np.empty(MC_BLOCK * cols)
        # the block's angles, then its exponentials, transformed in place
        s = _angles(k * cols, rng, out=arrays.u[:k * cols])
        if model.alpha == 1.0:
            np.tan(s, out=s)
        else:
            _cms(model.alpha, s, rng.standard_exponential(out=arrays.w[:k * cols]))
        return s.reshape(k, cols) @ model.loadings.T

    return threshold_mc_law(draw, model.d, h, m, seed)


# -- named models -------------------------------------------------------------

def corr2d_model(a: float, alpha: float) -> StableLinearModel:
    """X_1 = a S_1 + (1-a^alpha)^{1/alpha} S_2, X_2 the same with -a S_1."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    _check_alpha(alpha)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    return StableLinearModel(alpha, [[a, c], [-a, c]])


def common_shock_model(a: float, alpha: float, n: int = 3) -> StableLinearModel:
    """X_i = a S_0 + (1-a^alpha)^{1/alpha} S_i: the fully symmetric family
    with one shared shock (phase transition at alpha = 1/2 for n = 3)."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    _check_alpha(alpha)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    lo = np.zeros((n, n + 1))
    lo[:, 0] = a
    for i in range(n):
        lo[i, i + 1] = c
    return StableLinearModel(alpha, lo)


def stable_markov_model(a: float, alpha: float, n: int = 3) -> StableLinearModel:
    """X_1 = S_1, X_{i+1} = a X_i + (1-a^alpha)^{1/alpha} S_{i+1}."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    _check_alpha(alpha)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    lo = np.zeros((n, n))
    for i in range(n):
        lo[i, 0] = a ** i
        for j in range(1, i + 1):
            lo[i, j] = a ** (i - j) * c
    return StableLinearModel(alpha, lo)


def two_weight_symmetric_model(a: float, b: float, alpha: float) -> StableLinearModel:
    """The permutation-invariant 3 x 7 family with weights a and b; defined
    for 2 a^alpha + 2 b^alpha < 1."""
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0,1)")
    _check_alpha(alpha)
    rem = 1.0 - 2.0 * a ** alpha - 2.0 * b ** alpha
    if rem <= 0.0:
        raise ValueError("need 2 a^alpha + 2 b^alpha < 1")
    c = rem ** (1.0 / alpha)
    return StableLinearModel(alpha, [
        [a, b, 0, b, a, 0, c],
        [0, a, b, 0, b, a, c],
        [b, 0, a, a, 0, b, c],
    ])


# -- the two-dimensional criterion and the support integral -------------------

class Corr2DVerdict(str, Enum):
    ALWAYS_COLOR = "AlwaysColor"
    NOT_COLOR_AT_ZERO = "NotColorAtZero"


def corr2d_criterion(a: float, alpha: float) -> Corr2DVerdict:
    """a <= 2^{-1/alpha}: representable for every h; otherwise the threshold
    pair is negatively correlated at h = 0 and not representable there."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    _check_alpha(alpha)
    return (Corr2DVerdict.ALWAYS_COLOR if a <= 2.0 ** (-1.0 / alpha)
            else Corr2DVerdict.NOT_COLOR_AT_ZERO)


def corr2d_inequality_mc(a: float, alpha: float, h: float, m: int, seed):
    """MC estimate of P((1-a^alpha)^{1/alpha} S_2 >= a|S_1| + h) - P(S_1 >= h)^2
    (the raw correlation inequality), with a standard error."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    _check_alpha(alpha)
    rng = np.random.default_rng(seed)
    s1 = sample_sym_stable(alpha, 1.0, m, rng)
    s2 = sample_sym_stable(alpha, 1.0, m, rng)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    lhs_ind = (c * s2 >= a * np.abs(s1) + h)
    rhs_ind = (s1 >= h)
    lhs = float(np.mean(lhs_ind))
    rhs = float(np.mean(rhs_ind))
    value = lhs - rhs ** 2
    se = math.sqrt(lhs * (1 - lhs) / m + (2 * rhs) ** 2 * rhs * (1 - rhs) / m)
    return value, se


def stablegood_integral(measure: SpectralMeasure) -> tuple[float, bool]:
    """(2 * integral of (second-largest coordinate vee 0)^alpha, and whether
    the measure charges the interior of every orthant).

    Small integral (< 1) plus full orthant support is the sufficient condition
    for representability at large thresholds."""
    if measure.d < 2:
        raise ValueError("needs dimension >= 2")
    total = 0.0
    orthants = set()
    for x, w in measure.atoms:
        v = np.asarray(x)
        second = float(np.sort(v)[-2])
        total += w * max(second, 0.0) ** measure.alpha
    for x, w in measure.atoms:
        v = np.asarray(x)
        if np.all(np.abs(v) > 0.0):
            orthants.add(tuple(v > 0.0))
    full_support = len(orthants) == 2 ** measure.d
    return 2.0 * total, full_support
