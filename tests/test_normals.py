"""The tangent Box-Muller kernel ``partitions._normals``, dcrep's one source of
Gaussian variates: each normal against the exact transform of its uniforms,
its law against Phi, and the threshold laws drawn through it against the
exact laws."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from dcrep.gaussian import (CovarianceSpec, bivariate_threshold_exact, correlations3,
                            square_on_sphere_cov, square_threshold_laws_exact,
                            threshold_law_mc, zero_threshold_law_3)
from dcrep.partitions import _normals

from conftest import reference_normals


class Planted:
    """A generator whose one ``random`` call returns the planted uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size, out=None):
        assert size == len(self.u)
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


def planted_pairs():
    """(U1, U2) pairs: U1 = 0, 2^-53, 1/2 and 1 - 2^-53 (R = 0, its smallest
    positive value, 1.18 and its largest, 8.57) against U2 = 0 (T = -1.6e16),
    1/4 and 3/4 (T = -1 and +1), 1/2 (T = 0) and 1 - 2^-53, then random
    uniforms."""
    edges = np.array([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    angles = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53])
    u1, u2 = (a.ravel() for a in np.meshgrid(edges, angles))
    rng = np.random.default_rng(41)
    return np.r_[u1, rng.random(500)], np.r_[u2, rng.random(500)]


def exact_pair(u1, u2):
    """R cos and R sin of the angle 2 pi U2 - pi, R = sqrt(-2 log(1 - U1)),
    in 40 digits from the float uniforms."""
    with mpmath.workdps(40):
        radius = mpmath.sqrt(-2 * mpmath.log(1 - mpmath.mpf(u1)))
        angle = 2 * mpmath.pi * mpmath.mpf(u2) - mpmath.pi
        return radius, radius * mpmath.cos(angle), radius * mpmath.sin(angle)


def test_each_normal_is_the_exact_transform_of_its_uniforms_within_ulps_of_r():
    """The float angle pi (U2 - 1/2) is off by up to 1.7e-16 rad (its
    rounding and that of pi), twice that once doubled: 3 ulps of an R just
    below a power of 2.  tan and R round by about one more, so 4 ulps of R
    bound each z (3.3 measured over 30,000 random pairs), and R = 0 gives 0
    exactly."""
    u1, u2 = planted_pairs()
    p = len(u1)
    z = _normals(Planted(np.r_[u1, u2]), np.empty(2 * p))
    assert np.all(np.isfinite(z))
    for j in range(p):
        radius, cos_part, sin_part = exact_pair(u1[j], u2[j])
        ulp = np.spacing(float(radius)) if radius else 0.0
        assert abs(mpmath.mpf(z[j]) - cos_part) <= 4 * ulp, (u1[j], u2[j])
        assert abs(mpmath.mpf(z[p + j]) - sin_part) <= 4 * ulp, (u1[j], u2[j])
    assert np.max(np.abs(z)) == pytest.approx(math.sqrt(106 * math.log(2.0)), rel=1e-15)


@pytest.mark.parametrize("c", (1, 2, 7, 10 ** 4 + 1))
def test_normals_follow_the_seed_contract(c):
    """One call of 2 ceil(c/2) uniforms, the z1 of every pair and then the
    z2 of the first floor(c/2): the whole-array reference bit for bit, into
    an array of any shape, with or without a uniform buffer, and the
    generator left where the reference leaves it."""
    for shape, uniforms in (((c,), None), ((1, c), np.empty(c + 3))):
        rng, want_rng = np.random.default_rng(c), np.random.default_rng(c)
        got = _normals(rng, np.empty(shape), uniforms)
        assert got.shape == shape
        assert np.array_equal(got.ravel(), reference_normals(want_rng, c))
        assert rng.random() == want_rng.random()


def test_normals_pass_ks_against_phi():
    z = _normals(np.random.default_rng(42), np.empty(10 ** 6))
    assert stats.kstest(z, "norm").pvalue > 1e-3


def test_tail_counts_are_binomial():
    """Beyond 3 and 4 on either side, over 10^7 draws: each count within 4.5
    standard deviations of its Binomial(10^7, Phi(-t)) mean."""
    rng = np.random.default_rng(43)
    draws, chunk = 10 ** 7, 10 ** 6
    z = np.empty(chunk)
    counts = {(t, side): 0 for t in (3.0, 4.0) for side in (-1, 1)}
    for _ in range(draws // chunk):
        _normals(rng, z)
        for t, side in counts:
            counts[t, side] += int(np.count_nonzero(side * z > t))
    for (t, side), count in counts.items():
        p = stats.norm.sf(t)
        assert abs(count - draws * p) <= 4.5 * math.sqrt(draws * p * (1.0 - p)), (t, side, count)


def assert_within_stderr(got, want, m, sigmas=4.5):
    """Each cell within ``sigmas`` binomial standard errors of the exact law."""
    se = np.sqrt(want * (1.0 - want) / m)
    assert np.all(np.abs(got - want) <= sigmas * se + 1e-15), np.abs(got - want) / se


@pytest.mark.parametrize("a", ((0.3, 0.5, 0.2), (0.9, -0.4, -0.7), (0.0, 0.0, 0.0)))
def test_mc_laws_match_the_exact_law_at_h_0(a):
    m = 10 ** 6
    cov = correlations3(*a)
    assert_within_stderr(threshold_law_mc(cov, 0.0, m, 44).probs,
                         zero_threshold_law_3(cov).probs, m)


@pytest.mark.parametrize("a", (-0.6, 0.2, 0.8))
def test_mc_laws_match_the_exact_pair_law_at_h_1(a):
    m = 10 ** 6
    both = bivariate_threshold_exact(a, 1.0)
    one = stats.norm.sf(1.0) - both
    want = np.array([1.0 - 2.0 * one - both, one, one, both])
    cov = CovarianceSpec([[1.0, a], [a, 1.0]])
    assert_within_stderr(threshold_law_mc(cov, 1.0, m, 45).probs, want, m)


@pytest.mark.parametrize("theta", (0.3, math.pi / 4, 1.2))
def test_mc_laws_match_the_exact_square_laws(theta):
    """The square on the sphere has rank 3: three normals a row."""
    m = 10 ** 6
    want = square_threshold_laws_exact([theta]).probs[0]
    assert_within_stderr(threshold_law_mc(square_on_sphere_cov(theta), 0.0, m, 46).probs,
                         want, m)
