"""Exact samplers that realize zero-threshold color representations by path
embedding.

A stationary chain is embedded in a continuous path (time-changed Brownian
motion for the Gaussian chain; subordinated Brownian segments for the stable
chain), and consecutive indices are clustered when the path does not hit zero
between them.  Conditioned on its endpoints the within-step segment is a
Brownian bridge, so the crossing indicator is an exact Bernoulli draw,
exp(-2 u v / T) for same-sign endpoints u, v over bridge time T, certain
crossing otherwise; there is no discretization anywhere.

For the Gaussian chain with step correlation a, the bridge exponent collapses
to 2 a Y_i Y_{i+1} / (1 - a^2) after the time change, which also removes the
a^{-2i} overflow of the naive clock.  The stable chain jumps from Y_i to
a Y_i at each integer (never over zero, as a > 0) and then runs a Brownian
segment of subordinated length to Y_{i+1}.

Star trees (one root, n leaves) reuse the one-step sampler per edge; general
trees are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .partitions import BinaryLaw, Partition, PartitionDistribution, push_forward
from .rng import make_rng
from .stable import sample_pos_stable, sample_sym_stable, subordinator_scale


@dataclass(frozen=True)
class EmbeddingSample:
    """One draw: signs, the crossing partition, and the step crossing odds.

    Signs are constant on every block.  For path topology the blocks are
    intervals of consecutive indices; for star topology element 1 is the root
    and every other element is a leaf tied only to it.
    """

    signs: tuple[int, ...]
    partition: Partition
    crossing_probs: tuple[float, ...]
    topology: str = "path"

    def __post_init__(self):
        n = len(self.signs)
        if self.partition.n != n:
            raise ValueError("partition size must match signs")
        for block in self.partition.blocks:
            vals = {self.signs[i - 1] for i in block}
            if len(vals) != 1:
                raise ValueError("signs must be constant on blocks")
            if self.topology == "path" and list(block) != list(range(block[0], block[-1] + 1)):
                raise ValueError("path blocks must be consecutive intervals")


class EmbeddingBatch:
    """Vectorized batch of embedding samples (memory-friendly for large m)."""

    def __init__(self, signs: np.ndarray, labels: np.ndarray,
                 crossing_probs: np.ndarray, topology: str = "path",
                 values: np.ndarray | None = None):
        self.signs = signs              # (m, n) of +-1
        self.labels = labels            # (m, n) block labels, 0-based per sample
        self.crossing_probs = crossing_probs
        self.topology = topology
        self.values = values            # underlying chain values, when kept
        self.m, self.n = signs.shape

    def __len__(self) -> int:
        return self.m

    def sample(self, i: int) -> EmbeddingSample:
        lab = self.labels[i]
        blocks = [tuple(int(j + 1) for j in np.nonzero(lab == b)[0])
                  for b in range(lab.max() + 1)]
        return EmbeddingSample(
            signs=tuple(int(s) for s in self.signs[i]),
            partition=Partition.of(blocks),
            crossing_probs=tuple(float(c) for c in self.crossing_probs[i]),
            topology=self.topology)

    def __iter__(self):
        return (self.sample(i) for i in range(self.m))

    def empirical_sign_law(self) -> BinaryLaw:
        bits = (self.signs > 0).astype(np.int64)
        pow2 = 1 << np.arange(self.n - 1, -1, -1)
        counts = np.bincount(bits @ pow2, minlength=2 ** self.n)
        return BinaryLaw.from_counts(counts, self.m)

    def empirical_partition_distribution(self) -> PartitionDistribution:
        keys: dict[str, int] = {}
        for i in range(self.m):
            key = self._key(i)
            keys[key] = keys.get(key, 0) + 1
        return PartitionDistribution(
            self.n, {k: c / self.m for k, c in keys.items()})

    def _key(self, i: int) -> str:
        lab = self.labels[i]
        blocks = [tuple(int(j + 1) for j in np.nonzero(lab == b)[0])
                  for b in range(lab.max() + 1)]
        return Partition.of(blocks).key

    def pair_cluster_frequency(self, i: int, j: int) -> float:
        return float(np.mean(self.labels[:, i - 1] == self.labels[:, j - 1]))


def _path_batch_from_chain(y: np.ndarray, bridge_exponent: np.ndarray,
                           rng: np.random.Generator) -> EmbeddingBatch:
    """Assemble a batch from chain values and per-step bridge exponents.

    ``bridge_exponent[:, i]`` is u v / T for the step i -> i+1; the no-crossing
    probability for same-sign endpoints is 1 - exp(-2 u v / T).
    """
    m, n = y.shape
    signs = np.where(y > 0.0, 1, -1).astype(np.int8)
    cross_p = np.where(
        signs[:, :-1] == signs[:, 1:],
        np.exp(-2.0 * np.clip(bridge_exponent, 0.0, None)),
        1.0,
    )
    crossing = rng.random((m, n - 1)) < cross_p if n > 1 else np.zeros((m, 0), bool)
    labels = np.zeros((m, n), dtype=np.int16)
    if n > 1:
        labels[:, 1:] = np.cumsum(crossing, axis=1)
    return EmbeddingBatch(signs, labels, cross_p, values=y)


def ou_partition_batch(a: float, n: int, m: int, seed) -> EmbeddingBatch:
    """m draws from the zero-crossing construction for the Gaussian Markov
    chain with step correlation a (covariances a^{|i-j|})."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = make_rng(seed)
    y = np.empty((m, n))
    y[:, 0] = rng.standard_normal(m)
    c = math.sqrt(1.0 - a * a)
    for i in range(1, n):
        y[:, i] = a * y[:, i - 1] + c * rng.standard_normal(m)
    # bridge exponent u v / T in the Brownian clock == a Y_i Y_{i+1} / (1 - a^2)
    expo = a * y[:, :-1] * y[:, 1:] / (1.0 - a * a) if n > 1 else np.zeros((m, 0))
    return _path_batch_from_chain(y, expo, rng)


def ou_partition_sample(a: float, n: int, seed) -> EmbeddingSample:
    return ou_partition_batch(a, n, 1, seed).sample(0)


def stable_chain_partition_batch(alpha: float, a: float, n: int, m: int, seed) -> EmbeddingBatch:
    """m draws from the subordinated-Brownian construction for the symmetric
    stable Markov chain Y_{i+1} = a Y_i + (1-a^alpha)^{1/alpha} S^{1/2} B_1."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0,2)")
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = make_rng(seed)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    scale = subordinator_scale(alpha)
    y = np.empty((m, n))
    expo = np.empty((m, max(n - 1, 0)))
    y[:, 0] = sample_sym_stable(alpha, 1.0, m, rng)
    for i in range(1, n):
        s = sample_pos_stable(alpha / 2.0, scale, m, rng)
        y[:, i] = a * y[:, i - 1] + c * np.sqrt(s) * rng.standard_normal(m)
        # segment runs from a Y_{i-1} to Y_i with bridge time c^2 S
        expo[:, i - 1] = a * y[:, i - 1] * y[:, i] / (c * c * s)
    return _path_batch_from_chain(y, expo, rng)


def stable_chain_partition_sample(alpha: float, a: float, n: int, seed) -> EmbeddingSample:
    return stable_chain_partition_batch(alpha, a, n, 1, seed).sample(0)


# -- star trees ----------------------------------------------------------------

def _star_batch(y: np.ndarray, expo: np.ndarray, rng: np.random.Generator) -> EmbeddingBatch:
    """y[:, 0] is the root, y[:, 1:] the leaves; expo per root-leaf edge."""
    m, n1 = y.shape
    signs = np.where(y > 0.0, 1, -1).astype(np.int8)
    cross_p = np.where(signs[:, :1] == signs[:, 1:],
                       np.exp(-2.0 * np.clip(expo, 0.0, None)), 1.0)
    crossing = rng.random((m, n1 - 1)) < cross_p
    labels = np.zeros((m, n1), dtype=np.int16)
    for i in range(m):
        nxt = 1
        for j in range(n1 - 1):
            if crossing[i, j]:
                labels[i, j + 1] = nxt
                nxt += 1
    return EmbeddingBatch(signs, labels, cross_p, topology="star", values=y)


def ou_star_partition_batch(a: float, leaves: int, m: int, seed) -> EmbeddingBatch:
    """Gaussian star tree: one root, ``leaves`` children at step correlation a.
    Index 1 is the root, indices 2..leaves+1 the leaves."""
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    if leaves < 1 or m < 1:
        raise ValueError("leaves and m must be >= 1")
    rng = make_rng(seed)
    c = math.sqrt(1.0 - a * a)
    y = np.empty((m, leaves + 1))
    y[:, 0] = rng.standard_normal(m)
    for j in range(1, leaves + 1):
        y[:, j] = a * y[:, 0] + c * rng.standard_normal(m)
    expo = a * y[:, :1] * y[:, 1:] / (1.0 - a * a)
    return _star_batch(y, expo, rng)


def stable_star_partition_batch(alpha: float, a: float, leaves: int, m: int, seed) -> EmbeddingBatch:
    """Stable star tree; the leaf marginals realize the common-shock family."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0,2)")
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")
    if leaves < 1 or m < 1:
        raise ValueError("leaves and m must be >= 1")
    rng = make_rng(seed)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    scale = subordinator_scale(alpha)
    y = np.empty((m, leaves + 1))
    expo = np.empty((m, leaves))
    y[:, 0] = sample_sym_stable(alpha, 1.0, m, rng)
    for j in range(1, leaves + 1):
        s = sample_pos_stable(alpha / 2.0, scale, m, rng)
        y[:, j] = a * y[:, 0] + c * np.sqrt(s) * rng.standard_normal(m)
        expo[:, j - 1] = a * y[:, 0] * y[:, j] / (c * c * s)
    return _star_batch(y, expo, rng)


# -- verification ----------------------------------------------------------------

@dataclass(frozen=True)
class BinVerdict:
    key: str
    count: int
    chi2: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class ColorPropertyReport:
    """Did the sampler produce a color process with its own representation?

    Per partition bin: block colors must be iid fair coins (chi-square over
    the 2^k colorings).  Aggregate: the empirical sign law must match the
    push-forward of the empirical partition law at p = 1/2, cell by cell.
    """

    n_samples: int
    bins: tuple[BinVerdict, ...]
    excluded_bins: tuple[str, ...]
    aggregate_max_dev_se: float
    significance: float

    @property
    def bins_pass(self) -> bool:
        return all(b.p_value >= self.significance for b in self.bins)

    @property
    def aggregate_pass(self) -> bool:
        return self.aggregate_max_dev_se <= 4.0

    @property
    def passed(self) -> bool:
        return self.bins_pass and self.aggregate_pass


def batch_from_samples(samples) -> EmbeddingBatch:
    samples = list(samples)
    if not samples:
        raise ValueError("no samples")
    n = len(samples[0].signs)
    m = len(samples)
    signs = np.empty((m, n), dtype=np.int8)
    labels = np.empty((m, n), dtype=np.int16)
    probs = np.empty((m, len(samples[0].crossing_probs)))
    for i, s in enumerate(samples):
        signs[i] = s.signs
        for b, block in enumerate(s.partition.blocks):
            for j in block:
                labels[i, j - 1] = b
        probs[i] = s.crossing_probs
    return EmbeddingBatch(signs, labels, probs, topology=samples[0].topology)


def verify_color_property(batch, min_expected: float = 5.0,
                          significance: float = 1e-3) -> ColorPropertyReport:
    """Statistical check of the color property on >= 10^4 samples."""
    if not isinstance(batch, EmbeddingBatch):
        batch = batch_from_samples(batch)
    if len(batch) < 10_000:
        raise ValueError("verification needs at least 10^4 samples")
    m, n = batch.m, batch.n
    pow2_cache = {}
    groups: dict[str, list[int]] = {}
    for i in range(m):
        groups.setdefault(batch._key(i), []).append(i)

    bins = []
    excluded = []
    for key, rows in sorted(groups.items()):
        sig = Partition.from_key(key)
        k = sig.num_blocks
        count = len(rows)
        if count / 2 ** k < min_expected:
            excluded.append(key)
            continue
        # observed distribution over the 2^k block colorings
        obs = np.zeros(2 ** k, dtype=np.int64)
        firsts = [b[0] - 1 for b in sig.blocks]
        sub = (batch.signs[np.ix_(rows, firsts)] > 0).astype(np.int64)
        pw = pow2_cache.setdefault(k, 1 << np.arange(k - 1, -1, -1))
        np.add.at(obs, sub @ pw, 1)
        expected = count / 2 ** k
        chi2 = float(np.sum((obs - expected) ** 2 / expected))
        dof = 2 ** k - 1
        p = float(stats.chi2.sf(chi2, dof))
        bins.append(BinVerdict(key=key, count=count, chi2=chi2, dof=dof, p_value=p))

    sign_law = batch.empirical_sign_law()
    part_law = batch.empirical_partition_distribution()
    pf = push_forward(part_law, 0.5)
    se = np.sqrt(np.maximum(sign_law.probs * (1.0 - sign_law.probs), 1.0 / m) / m)
    dev = np.abs(sign_law.probs - pf.probs) / se
    return ColorPropertyReport(
        n_samples=m,
        bins=tuple(bins),
        excluded_bins=tuple(excluded),
        aggregate_max_dev_se=float(np.max(dev)),
        significance=significance,
    )
