"""Closed-form limit objects: the h -> 0 limits of the n = 3 representation,
large-threshold order-1 and order-2 limits over discrete stable spectral
measures, the Gamma-functional whose root sits at exponent 1/2, and the
(c1, c2) constants of the two-weight symmetric family.

Order-1 stable limits are computed per atom analytically (the s-interval on
which the scaled atom realizes the pattern), never by quadrature, so they can
be asserted against closed forms at 1e-12.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gamma as _gamma

from .gaussian import CovarianceSpec, fully_symmetric_cov, markov_chain_cov
from .partitions import _frozen, _keyed
from .reports import Verdict
from .stable import SpectralMeasure

LIMIT_TOL = 1e-10


# -- small h, n = 3 -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SmallHLimits3:
    """Limits of the five representation weights as h -> 0, the read-only
    ``vector`` in column order (1|2|3, 1|23, 12|3, 123, 13|2), keyed by ``weights``.

    kappa = arccos(det A / prod(1 + a_ij) - 1) / pi is the shared term; all
    five limits are combinations of it and the pairwise angles, and they sum
    to one.  Strict positivity of all five gives representability for all
    sufficiently small h by continuity; a strictly negative limit rules it
    out; zeros leave the question open.
    """

    vector: np.ndarray
    kappa: float

    @property
    def weights(self) -> Mapping[str, float]:
        return _keyed(3, self.vector)

    @property
    def minimum(self) -> float:
        return float(self.vector.min())

    def verdict(self) -> Verdict:
        if self.minimum > LIMIT_TOL:
            return Verdict.COLOR_REP
        if self.minimum < -LIMIT_TOL:
            return Verdict.NO_COLOR_REP
        return Verdict.UNDETERMINED


def small_h_limits_3(cov: CovarianceSpec) -> SmallHLimits3:
    if cov.n != 3 or not cov.is_standard:
        raise ValueError("small_h_limits_3 needs a standard n = 3 matrix")
    if not cov.is_pd:
        raise ValueError("small_h_limits_3 needs a positive definite matrix")
    q, kappa = small_h_limits_stack(cov.a[None], cov.eigvals[None])
    return SmallHLimits3(_frozen(q[0]), kappa=float(kappa[0]))


def small_h_limits_stack(mats: np.ndarray, eigvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The h -> 0 limits of an (N, 3, 3) stack of standard PD matrices.

    ``eigvals`` are their ascending spectra, det A = their product.  Returns
    the (N, 5) limits, each row in column order, and the (N,) kappa.
    """
    off = mats[:, [0, 0, 1], [1, 2, 2]]
    t12, t13, t23 = np.arccos(np.clip(off, -1.0, 1.0)).T
    prod = (1.0 + off[:, 0]) * (1.0 + off[:, 1]) * (1.0 + off[:, 2])
    det = eigvals[:, 0] * eigvals[:, 1] * eigvals[:, 2]
    arg = np.clip(det / prod - 1.0, -1.0, 1.0)
    # math.acos, not np.arccos: the two differ in the last ulp on about one
    # input in ten, and kappa is printed
    kappa = np.array([math.acos(x) for x in arg.tolist()]) / math.pi
    q = np.stack([2.0 - 2.0 * kappa,                                  # 1|2|3
                  (t12 + t13 - t23) / math.pi - 1.0 + kappa,          # 1|23
                  (t13 + t23 - t12) / math.pi - 1.0 + kappa,          # 12|3
                  2.0 - (t12 + t13 + t23) / math.pi - kappa,          # 123
                  (t12 + t23 - t13) / math.pi - 1.0 + kappa], axis=1)  # 13|2
    return q, kappa


def small_h_positive_families(family: str, a_values) -> list[tuple[float, SmallHLimits3, bool]]:
    """Evaluate the corollary families on a grid of a values.

    family: "fully-symmetric" (all correlations a) or "markov"
    (consecutive a, long-range a^2).  Returns (a, limits, all positive).
    """
    if family not in ("fully-symmetric", "markov"):
        raise ValueError(f"unknown family {family!r}")
    if np.isscalar(a_values):
        a_values = [a_values]
    out = []
    for a in a_values:
        if not (0.0 < a < 1.0):
            raise ValueError("a must lie in (0,1)")
        cov = fully_symmetric_cov(3, a) if family == "fully-symmetric" \
            else markov_chain_cov(3, a)
        lims = small_h_limits_3(cov)
        out.append((float(a), lims, lims.minimum > LIMIT_TOL))
    return out


def fully_symmetric_kappa_argument(a: float) -> float:
    """Inner arccos argument for the fully symmetric family: a(a^2-6a-3)/(1+a)^3."""
    return a * (a * a - 6.0 * a - 3.0) / (1.0 + a) ** 3


def markov_kappa_argument(a: float) -> float:
    """Inner arccos argument for the Markov family: -2a/(1+a^2)."""
    return -2.0 * a / (1.0 + a * a)


# -- stable large-h limits ----------------------------------------------------

def stable_order1_limit(measure: SpectralMeasure, pattern) -> float:
    """lim nu_pattern(h) / nu_1(h) for a discrete spectral measure.

    Per atom x with weight w, set xhat = (2w)^{1/alpha} x; the atom
    contributes the mass of {s > 0 : s xhat matches the pattern} under
    alpha s^{-(1+alpha)} ds, which is a difference of endpoint powers.
    The pattern must contain at least one 1.
    """
    if not isinstance(pattern, str):
        pattern = "".join(str(int(b)) for b in pattern)
    if len(pattern) != measure.d or any(c not in "01" for c in pattern):
        raise ValueError(f"bad pattern {pattern!r} for d={measure.d}")
    if "1" not in pattern:
        raise ValueError("pattern must have at least one 1 (ratios are to nu_1)")
    alpha = measure.alpha
    total = 0.0
    for xhat in measure.scaled_atoms():
        lo = 0.0
        hi = math.inf
        ok = True
        for c, coord in zip(pattern, xhat):
            if c == "1":
                if coord <= 0.0:
                    ok = False
                    break
                lo = max(lo, 1.0 / coord)
            else:
                if coord > 0.0:
                    hi = min(hi, 1.0 / coord)
        if not ok or lo >= hi:
            continue
        lo_term = lo ** (-alpha) if lo > 0.0 else math.inf
        hi_term = hi ** (-alpha) if hi < math.inf else 0.0
        if lo_term == math.inf:
            raise ValueError("pattern charges s -> 0; ratios diverge")
        total += lo_term - hi_term
    return total


@dataclass(frozen=True, eq=False)
class StableLimitReport:
    """Order-1 limits per pattern and the derived representation limits, the
    read-only ``vector`` in ``enumerate_partitions(3)`` order, keyed by ``q_limits``."""

    order1: dict[str, float]
    vector: np.ndarray

    @property
    def q_limits(self) -> Mapping[str, float]:
        return _keyed(3, self.vector)

    def to_json_dict(self) -> dict:
        return {"formula": "nu-ratio and q limits as h -> infinity",
                "order1": dict(sorted(self.order1.items())),
                "q_limits": dict(sorted(self.q_limits.items()))}


def stable_limit_report(measure: SpectralMeasure) -> StableLimitReport:
    """All order-1 limits of a 3-dim measure plus the derived q-limits.

    As h -> infinity the weights of 1|2|3, 1|23, 12|3, 123, 13|2 converge
    to (L_100 - L_011, L_011, L_110, L_111, L_101), which sum to one.
    """
    if measure.d != 3:
        raise ValueError("q-limits are derived for d = 3")
    pats = ["100", "010", "001", "110", "101", "011", "111"]
    order1 = {p: stable_order1_limit(measure, p) for p in pats}
    o = order1
    return StableLimitReport(order1=order1, vector=_frozen(
        [o["100"] - o["011"], o["011"], o["110"], o["111"], o["101"]]))


def gamma_factor(alpha: float) -> float:
    """alpha Gamma(2 alpha) Gamma(1 - alpha) / Gamma(1 + alpha), alpha in (0,1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("gamma_factor is defined on (0,1)")
    return float(_gamma_factors(np.array([alpha]))[0])


def _gamma_factors(alphas: np.ndarray) -> np.ndarray:
    """``gamma_factor`` over an array of alphas, +infinity for alpha >= 1."""
    below = alphas < 1.0
    al = alphas[below]
    gamma = np.full(len(alphas), math.inf)
    gamma[below] = al * _gamma(2.0 * al) * _gamma(1.0 - al) / _gamma(1.0 + al)
    return gamma


def stable_order2_limit_101_symmetric(a: float, alpha: float) -> float:
    """lim nu_101(h)/nu_1(h)^2 for the common-shock family:
    (1-a^alpha)^2 + a^alpha (1-a^alpha) gamma_factor(alpha) for alpha in (0,1),
    +infinity for alpha in [1,2).  ``stable_order2_limits_101_symmetric`` on
    one alpha."""
    return float(stable_order2_limits_101_symmetric(a, [alpha])[2][0])


def stable_order2_limits_101_symmetric(a: float, alphas) -> tuple[np.ndarray, ...]:
    """``stable_order2_limit_101_symmetric(a, alpha)`` over an array of
    alphas, in one array pass: returns t = a^alpha, ``gamma_factor(alpha)``
    (+infinity for alpha >= 1) and the limit.  The powers are
    ``np.float_power``, libm's ``pow`` as Python's ``**`` on floats, so each
    is bit for bit ``a ** alpha`` and ``(1 - t) ** 2``: numpy's ``power``
    rounds some of them an ulp away."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas > 0.0) & (alphas < 2.0)):
        raise ValueError("alpha must lie in (0,2)")
    t = np.float_power(a, alphas)
    gamma = _gamma_factors(alphas)
    below = alphas < 1.0
    tb = t[below]
    limit = np.full(len(alphas), math.inf)
    limit[below] = np.float_power(1.0 - tb, 2.0) + tb * (1.0 - tb) * gamma[below]
    return t, gamma, limit


def stable_order2_limit_101_markov(a: float, alpha: float) -> float:
    """lim nu_101(h)/nu_1(h)^2 for the stable Markov chain:
    (1-a^alpha) * integral_1^{1/a} (1 - a^2 s)^{-alpha} alpha s^{-(1+alpha)} ds.
    Always strictly exceeds (1-a^alpha)^2."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0,2)")

    def integrand(s):
        return (1.0 - a * a * s) ** (-alpha) * alpha * s ** (-(1.0 + alpha))

    val, err = integrate.quad(integrand, 1.0, 1.0 / a, epsabs=1e-12, epsrel=1e-11)
    if err > 1e-10:
        raise RuntimeError(f"quadrature did not converge (err={err})")
    return (1.0 - a ** alpha) * val


def phase_transition_alpha(tol: float = 1e-9) -> float:
    """Root of gamma_factor(alpha) = 1 on (0.01, 0.99); lands at 1/2."""
    root = brentq(lambda al: gamma_factor(al) - 1.0, 0.01, 0.99, xtol=tol)
    return float(root)


# -- the two-weight symmetric family ------------------------------------------

@dataclass(frozen=True)
class AltExampleConstants:
    """c1: unique root of 2 a^c + 2 b^c = 1; c2 = log 2 / |log a - log b|.

    regime "i"  (c2 <= c1):      representable for large h on all of (c1, 2);
    regime "ii" (c2 >= 2):       never representable for large h on (c1, 2);
    regime "iii" (c1 < c2 < 2):  transition at alpha = c2.
    """

    a: float
    b: float
    c1: float
    c2: float
    regime: str

    def g(self, alpha: float) -> float:
        """max(a,b)^alpha - 2 min(a,b)^alpha; its sign decides large-h color."""
        return max(self.a, self.b) ** alpha - 2.0 * min(self.a, self.b) ** alpha

    def large_h_q_limits(self, alpha: float) -> Mapping[str, float]:
        """The weights' large-h limits, read-only, keyed in column order."""
        if not (self.c1 < alpha < 2.0):
            raise ValueError(f"alpha must lie in (c1, 2) = ({self.c1}, 2)")
        lo, hi = min(self.a, self.b), max(self.a, self.b)
        pair = 2.0 * lo ** alpha
        return _keyed(3, np.array([2.0 * (hi ** alpha - 2.0 * lo ** alpha), pair, pair,
                                   1.0 - 2.0 * self.a ** alpha - 2.0 * self.b ** alpha, pair]))

    def color_for_large_h(self, alpha: float) -> bool:
        if not (self.c1 < alpha < 2.0):
            raise ValueError(f"alpha must lie in (c1, 2) = ({self.c1}, 2)")
        return self.g(alpha) > 0.0


def alt_example_constants(a: float, b: float) -> AltExampleConstants:
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0,1)")
    if not (2.0 * a * a + 2.0 * b * b < 1.0):
        raise ValueError("need 2 a^2 + 2 b^2 < 1")
    # c -> 2 a^c + 2 b^c is strictly decreasing, > 1 at 0+, < 1 at 2
    c1 = float(brentq(lambda c: 2.0 * a ** c + 2.0 * b ** c - 1.0,
                      1e-12, 2.0, xtol=1e-15, rtol=8.9e-16))
    c2 = math.inf if a == b else math.log(2.0) / abs(math.log(a) - math.log(b))
    if c2 <= c1:
        regime = "i"
    elif c2 >= 2.0:
        regime = "ii"
    else:
        regime = "iii"
    return AltExampleConstants(a=a, b=b, c1=c1, c2=c2, regime=regime)
