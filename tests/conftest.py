import functools
import itertools
import math

import numpy as np
import pytest

from dcrep.gaussian import CovarianceSpec
from dcrep.partitions import MC_BLOCK


def brute_force_partitions(n):
    """Independent oracle: canonicalized label assignments, deduplicated."""
    seen = set()
    for labels in itertools.product(range(n), repeat=n):
        blocks = {}
        for i, lab in enumerate(labels, start=1):
            blocks.setdefault(lab, []).append(i)
        seen.add(frozenset(frozenset(b) for b in blocks.values()))
    return seen


def edge_of_family_law():
    """The {0,1}-symmetric n = 3 law with 000 = 111 = (1 - 6 s)/2 and the
    other six cells s = 1/8 + 1e-11: its t_lo exceeds t_hi by 8e-11, within
    FEAS_TOL, so its t-family is not empty and its t_lo member is signed."""
    from dcrep.partitions import BinaryLaw

    s = 1 / 8 + 1e-11
    probs = np.full(8, s)
    probs[[0, 7]] = (1.0 - 6.0 * s) / 2.0
    return BinaryLaw(3, probs)


@functools.cache
def plackett_law3(rho, h):
    """The law of the signs 1{X_i > h} of a standard normal triple with
    correlations rho = (r12, r13, r23), from 40-digit mpmath.  Each upper
    orthant comes from Plackett's identity, integrated from zero correlation;
    the cells follow by inclusion-exclusion."""
    import mpmath

    from dcrep.partitions import BinaryLaw

    with mpmath.workdps(40):
        h = mpmath.mpf(h)
        corr = {(0, 1): mpmath.mpf(rho[0]), (0, 2): mpmath.mpf(rho[1]),
                (1, 2): mpmath.mpf(rho[2])}

        def sf(x):
            return mpmath.ncdf(-x)

        def phi2(r):                      # the bivariate density at (h, h)
            return mpmath.exp(-h * h / (1 + r)) / (2 * mpmath.pi * mpmath.sqrt(1 - r * r))

        def triple(t):
            total = mpmath.mpf(0)
            for (i, j), r in corr.items():
                k = 3 - i - j
                a, b = t * corr[tuple(sorted((i, k)))], t * corr[tuple(sorted((j, k)))]
                # X_k given X_i = X_j = h under the correlations t rho
                mean = h * (a + b) / (1 + t * r)
                var = 1 - (a * a + b * b - 2 * t * r * a * b) / (1 - (t * r) ** 2)
                total += r * phi2(t * r) * sf((h - mean) / mpmath.sqrt(var))
            return total

        upper = {(): mpmath.mpf(1), **{(i,): sf(h) for i in range(3)}}
        for pair, r in corr.items():
            upper[pair] = sf(h) ** 2 + mpmath.quad(lambda t: r * phi2(t * r), [0, 1])
        upper[(0, 1, 2)] = sf(h) ** 3 + mpmath.quad(triple, [0, 1])
        cells = []
        for index in range(8):
            ones = [i for i in range(3) if index >> (2 - i) & 1]
            zeros = [i for i in range(3) if i not in ones]
            cells.append(sum((-1) ** len(extra) * upper[tuple(sorted(ones + list(extra)))]
                             for size in range(len(zeros) + 1)
                             for extra in itertools.combinations(zeros, size)))
        return BinaryLaw(3, [float(c) for c in cells])


def random_standard_pd(rng, n, jitter=0.3):
    """Random unit-diagonal PD matrix from a factor model."""
    while True:
        g = rng.normal(size=(n, n + 2))
        a = g @ g.T + jitter * np.eye(n)
        d = np.sqrt(np.diag(a))
        a = a / np.outer(d, d)
        if np.max(np.abs(a - np.eye(n)) * (1 - np.eye(n))) < 0.999:
            try:
                return CovarianceSpec(a)
            except ValueError:
                continue


def random_inverse_stieltjes(rng, n, standardize=False):
    """Random PD inverse-Stieltjes matrix with weak Savage and positive entries.

    Built as the inverse of an irreducible M-matrix with nonnegative row sums,
    which gives 1'A^{-1} = row sums of B >= 0 and A = B^{-1} > 0 entrywise.
    """
    while True:
        w = rng.uniform(0.05, 1.0, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        sigma = rng.uniform(0.0, 0.5, size=n)
        sigma[rng.integers(n)] += 0.5  # at least one strictly positive row sum
        b = np.diag(sigma + w.sum(axis=1)) - w
        a = np.linalg.inv(b)
        a = 0.5 * (a + a.T)
        if standardize:
            d = np.sqrt(np.diag(a))
            a = a / np.outer(d, d)
        if np.min(np.linalg.eigvalsh(a)) > 1e-10 and np.min(a) > 0:
            return CovarianceSpec(a)


def fmt_cell(x) -> str:
    """A CSV cell as dcrep spells it, one value at a time: a float by
    ``format(x, ".17g")`` (17 significant digits, '.' decimal, nan and +-inf
    by name), an integer by ``str`` and a bool as 1 or 0.  The per-cell
    reference of ``csvtext.csv_lines``."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x != x:
        return "nan"
    if x in (math.inf, -math.inf):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def random_probability_q(rng, n):
    from dcrep.partitions import PartitionDistribution, bell_number

    w = rng.dirichlet(np.ones(bell_number(n)))
    return PartitionDistribution.from_vector(n, w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def block_streams(m, seed):
    """(rows, generator) of each block of an MC law of m draws: MC_BLOCK rows
    a block, the last one partial, and block i draws from child i of a
    SeedSequence over four 32-bit words of ``default_rng(seed)``."""
    entropy = np.random.default_rng(seed).integers(2 ** 32, size=4, dtype=np.uint32)
    rows = [min(MC_BLOCK, m - start) for start in range(0, m, MC_BLOCK)]
    children = np.random.SeedSequence(entropy).spawn(len(rows))
    return [(k, np.random.default_rng(child)) for k, child in zip(rows, children)]


def reference_color_process(weights: dict, n, p, m, seed):
    """The color process drawn by ``rng.choice`` over its (partition, coloring)
    pairs of positive mass q(sigma) p^k (1-p)^(K-k), built from ``Partition``
    objects and listed as the coloring map lists its cells: by number of
    blocks K, then partition, then coloring.  Each block of ``block_streams``
    makes one ``choice`` from its own generator.  Returns (samples, law)."""
    from dcrep.partitions import BinaryLaw, enumerate_partitions

    masses, strings = [], []
    for big in range(1, n + 1):
        for sig in enumerate_partitions(n):
            if sig.num_blocks != big:
                continue
            for colors in itertools.product((0, 1), repeat=big):
                k = sum(colors)
                mass = weights.get(sig.key, 0.0) * (p ** k * (1.0 - p) ** (big - k))
                if mass > 0.0:
                    string = np.zeros(n, dtype=np.uint8)
                    for block, c in zip(sig.blocks, colors):
                        string[np.array(block) - 1] = c
                    masses.append(mass)
                    strings.append(string)
    which = np.concatenate([rng.choice(len(masses), size=k, p=np.array(masses))
                            for k, rng in block_streams(m, seed)])
    samples = np.array(strings)[which]
    counts = np.bincount(samples @ (1 << np.arange(n - 1, -1, -1)), minlength=2 ** n)
    return samples, BinaryLaw.from_counts(counts, m)
