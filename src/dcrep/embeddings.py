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

Both chains run on one tree sampler: counting columns from 0, column i >= 1
hangs off column parents[i - 1], so a path has parents range(n - 1) and a star
(one root, its leaves) has parents [0] * leaves.  Each edge is one step of the
chain, and its crossing is drawn as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .partitions import (BELL, BinaryLaw, PartitionDistribution, _check_n, _column_keys,
                         _normals, _partition_table, _rg_ranks, bell_number, pattern_counts,
                         push_forward)
from .stable import sample_pos_stable, sample_sym_stable, subordinator_scale


class EmbeddingBatch:
    """m embedding samples as arrays, one row per sample: the one sample
    representation.

    Each row of ``labels`` is a restricted-growth string (Knuth, TAOCP 4A
    7.2.1.5): element 1 has label 0, and every later label is at most one more
    than the largest label before it.  So block b is the b-th block in order
    of least element, and a row's labels name its partition in exactly one
    way.  Its rank among the Bell(n) such strings in lexicographic order
    (``partitions._rg_ranks``) maps it to its column of
    ``enumerate_partitions(n)`` through the partition table's ``rank_columns``.

    Signs are constant on every block.  For path topology the blocks are
    intervals of consecutive indices; for star topology element 1 is the root
    and every other element is a leaf tied only to it.
    """

    def __init__(self, signs: np.ndarray, labels: np.ndarray,
                 crossing_probs: np.ndarray, topology: str = "path",
                 values: np.ndarray | None = None):
        if not _restricted_growth(labels):
            raise ValueError("labels must be restricted-growth strings")
        self.signs = signs              # (m, n) of +-1
        self.labels = labels            # (m, n) block labels, 0-based per sample
        self.crossing_probs = crossing_probs
        self.topology = topology
        self.values = values            # underlying chain values, when kept
        self.m, self.n = signs.shape

    def partition_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows grouped by their partition, groups in rank order.

        Returns ``(columns, inverse, counts)``: each group's column of
        ``enumerate_partitions(n)``, each row's group and each group's size,
        all intp.  One ``bincount`` over the Bell(n) ranks (``_rg_ranks``)
        groups the rows, with no sort.
        """
        ranks = _rg_ranks(self.labels)
        counts = np.bincount(ranks, minlength=BELL[self.n])
        present = np.flatnonzero(counts)
        group = np.cumsum(counts > 0) - 1       # each present rank's group
        return _partition_table(self.n).rank_columns[present], group[ranks], counts[present]

    def empirical_sign_law(self) -> BinaryLaw:
        return BinaryLaw.from_counts(pattern_counts(self.signs > 0), self.m)

    def empirical_partition_distribution(self) -> PartitionDistribution:
        cols, _, counts = self.partition_groups()
        return _partition_law(self.n, self.m, cols, counts)

    def pair_cluster_frequency(self, i: int, j: int) -> float:
        """Share of the rows in which elements i and j (1-based) share a block."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"elements must be in [1, {self.n}], got {i} and {j}")
        return float(np.mean(self.labels[:, i - 1] == self.labels[:, j - 1]))


def _restricted_growth(labels: np.ndarray) -> bool:
    """Whether every row of ``labels`` is a restricted-growth string, in one
    pass per column: the first label is 0, and each later one lies in
    [0, top + 1], top the largest label before it."""
    top = labels[:, 0]
    if (top != 0).any():
        return False
    for label in labels.T[1:]:
        if ((label < 0) | (label > top + 1)).any():
            return False
        top = np.maximum(top, label)
    return True


def _partition_law(n: int, m: int, cols, counts) -> PartitionDistribution:
    """Empirical partition law from the groups of ``partition_groups``: group
    g puts counts[g] / m on column cols[g]."""
    vec = np.zeros(bell_number(n))
    vec[cols] = counts / m
    return PartitionDistribution.from_vector(n, vec)


def _assemble_tree(y: np.ndarray, expo: np.ndarray, parents, rng: np.random.Generator,
                   topology: str) -> EmbeddingBatch:
    """Assemble a batch from the (m, n) node values and (m, n - 1) per-edge
    bridge exponents.

    Column i >= 1 hangs off the earlier column ``parents[i - 1]``, and
    ``expo[:, i - 1]`` is u v / T on that edge.  An edge whose endpoints differ
    in sign is always crossed; otherwise it is crossed with probability
    exp(-2 u v / T).  A crossed edge opens the next block, and an uncrossed one
    keeps its parent's block, so the labels are restricted-growth strings.
    The crossings' uniforms are one (m, n - 1) draw.  The work runs on rows
    of the transposes: contiguous when y and expo are transposes of (n, m)
    arrays, as ``_sample_tree`` passes them, and the batch's arrays are
    transposes of (n, m) arrays too.

    Nothing selects per element, as a random mask makes ``np.where`` branch
    on each one: the signs are the comparison's bytes times 2, minus 1; a
    sign change zeroes its exponent's bits, so exp gives 1 even for an
    infinite or NaN exponent; and a node's label is its parent's plus
    crossed times the difference to the block its edge opens.
    """
    m, n = y.shape
    nodes, edges = y.T, expo.T
    signs = (nodes > 0.0).view(np.int8) * 2 - 1
    uniforms = rng.random((m, n - 1)).T
    cross_p = np.empty((n - 1, m))
    labels = np.zeros((n, m), dtype=np.int16)
    opened = np.zeros(m, dtype=np.int16)
    for i, parent in enumerate(parents, start=1):
        p = cross_p[i - 1]
        np.maximum(edges[i - 1], 0.0, out=p)
        p *= -2.0
        p.view(np.int64)[...] &= np.negative(signs[parent] == signs[i], dtype=np.int64)
        np.exp(p, out=p)
        crossed = uniforms[i - 1] < p
        opened += crossed
        step = opened - labels[parent]
        step *= crossed
        np.add(labels[parent], step, out=labels[i])
    return EmbeddingBatch(signs.T, labels.T, cross_p.T, topology=topology, values=y)


def _sample_tree(rule, parents, m: int, seed, topology: str) -> EmbeddingBatch:
    """m draws of a chain run down the tree ``parents`` (see ``_assemble_tree``).

    ``rule`` is ``(root, step)``: ``root(m, rng)`` draws the root, and
    ``step(prev, rng)`` draws a child from its parent's values ``prev`` and
    returns it with the edge's bridge exponent.  The draws come in a fixed
    order: the root, each child in index order, then the crossings.  Each
    node's values fill one row of an (n, m) array.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    root, step = rule
    rng = np.random.default_rng(seed)
    n = len(parents) + 1
    y = np.empty((n, m))
    expo = np.empty((n - 1, m))
    y[0] = root(m, rng)
    for i, parent in enumerate(parents, start=1):
        y[i], expo[i - 1] = step(y[parent], rng)
    return _assemble_tree(y.T, expo.T, parents, rng, topology)


def _path_parents(n: int) -> list[int]:
    _check_n(n)
    return list(range(n - 1))


def _star_parents(leaves: int) -> list[int]:
    """Index 1 is the root, indices 2..leaves+1 the leaves."""
    _check_n(leaves + 1)
    if leaves < 1:
        raise ValueError("leaves must be >= 1")
    return [0] * leaves


def _check_a(a: float) -> None:
    if not (0.0 < a < 1.0):
        raise ValueError("a must lie in (0,1)")


def _gaussian_rule(a: float):
    """The Gaussian chain with step correlation a: the root and each step
    draw their m standard normals in one call of ``partitions._normals``."""
    _check_a(a)
    c = math.sqrt(1.0 - a * a)

    def step(prev, rng):
        y = a * prev + c * _normals(rng, np.empty(len(prev)))
        # bridge exponent u v / T in the Brownian clock == a Y_i Y_{i+1} / (1 - a^2)
        return y, a * prev * y / (1.0 - a * a)
    return (lambda m, rng: _normals(rng, np.empty(m))), step


def _stable_rule(alpha: float, a: float):
    """The symmetric stable chain Y' = a Y + (1-a^alpha)^{1/alpha} S^{1/2} B_1."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0,2)")
    _check_a(a)
    c = (1.0 - a ** alpha) ** (1.0 / alpha)
    scale = subordinator_scale(alpha)

    def step(prev, rng):
        s = sample_pos_stable(alpha / 2.0, scale, len(prev), rng)
        y = a * prev + c * np.sqrt(s) * _normals(rng, np.empty(len(prev)))
        # segment runs from a Y_i to Y_{i+1} with bridge time c^2 S
        return y, a * prev * y / (c * c * s)
    return (lambda m, rng: sample_sym_stable(alpha, 1.0, m, rng)), step


def ou_partition_batch(a: float, n: int, m: int, seed) -> EmbeddingBatch:
    """m draws from the zero-crossing construction for the Gaussian Markov
    chain with step correlation a (covariances a^{|i-j|})."""
    return _sample_tree(_gaussian_rule(a), _path_parents(n), m, seed, "path")


def stable_chain_partition_batch(alpha: float, a: float, n: int, m: int, seed) -> EmbeddingBatch:
    """m draws from the subordinated-Brownian construction for the symmetric
    stable Markov chain Y_{i+1} = a Y_i + (1-a^alpha)^{1/alpha} S^{1/2} B_1."""
    return _sample_tree(_stable_rule(alpha, a), _path_parents(n), m, seed, "path")


def ou_star_partition_batch(a: float, leaves: int, m: int, seed) -> EmbeddingBatch:
    """Gaussian star tree: one root, ``leaves`` children at step correlation a.
    Index 1 is the root, indices 2..leaves+1 the leaves."""
    return _sample_tree(_gaussian_rule(a), _star_parents(leaves), m, seed, "star")


def stable_star_partition_batch(alpha: float, a: float, leaves: int, m: int, seed) -> EmbeddingBatch:
    """Stable star tree; the leaf marginals realize the common-shock family."""
    return _sample_tree(_stable_rule(alpha, a), _star_parents(leaves), m, seed, "star")


# -- verification ----------------------------------------------------------------

MIN_EXPECTED = 5.0     # a bin with fewer expected samples per block coloring is not tested
SIGNIFICANCE = 1e-3    # a tested bin fails below this chi-square p-value


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


def verify_color_property(batch: EmbeddingBatch) -> ColorPropertyReport:
    """Statistical check of the color property on >= 10^4 samples.

    Each tested bin's p-value is the chi-square upper tail
    ``special.chdtrc(dof, chi2)``: what ``stats.chi2.sf`` evaluates, less its
    argument handling, to the same bits."""
    if not isinstance(batch, EmbeddingBatch):
        raise TypeError(f"expected an EmbeddingBatch, got {type(batch).__name__}")
    if batch.m < 10_000:
        raise ValueError("verification needs at least 10^4 samples")
    m, n = batch.m, batch.n
    cols, inverse, counts = batch.partition_groups()
    table, keys = _partition_table(n), _column_keys(n)

    # each row's block coloring: the signs at the least element of each
    # block, block 0 the high bit, read one column at a time
    coloring = np.zeros(m, dtype=np.intp)
    blocks = np.zeros(m, dtype=batch.labels.dtype)     # blocks opened so far
    for label, sign in zip(batch.labels.T, batch.signs.T):
        first = label == blocks
        blocks += first
        coloring <<= first
        coloring |= first & (sign > 0)
    # every bin's colorings counted at once: group g owns its 2^k cells
    # from start[g]; the chi-square sums each group's cells as one row
    cells = 1 << table.num_blocks[cols].astype(np.intp)
    end = np.cumsum(cells)
    start = end - cells
    observed = np.bincount(start[inverse] + coloring, minlength=end[-1])
    expected = counts / cells
    chi2 = np.empty(len(cols))
    for size in np.unique(cells):
        groups = np.flatnonzero(cells == size)
        obs = observed[start[groups, None] + np.arange(size)]
        chi2[groups] = np.sum((obs - expected[groups, None]) ** 2 / expected[groups, None],
                              axis=1)

    order = sorted(range(len(cols)), key=lambda g: keys[cols[g]])
    tested = [g for g in order if expected[g] >= MIN_EXPECTED]
    dof = cells[tested] - 1
    p_values = special.chdtrc(dof, chi2[tested])
    bins = tuple(BinVerdict(keys[cols[g]], int(counts[g]), float(chi2[g]), int(d), float(p))
                 for g, d, p in zip(tested, dof, p_values))
    excluded = [keys[cols[g]] for g in order if expected[g] < MIN_EXPECTED]

    sign_law = batch.empirical_sign_law()
    pf = push_forward(_partition_law(batch.n, m, cols, counts), 0.5)
    se = np.sqrt(np.maximum(sign_law.probs * (1.0 - sign_law.probs), 1.0 / m) / m)
    dev = np.abs(sign_law.probs - pf.probs) / se
    return ColorPropertyReport(
        n_samples=m,
        bins=bins,
        excluded_bins=tuple(excluded),
        aggregate_max_dev_se=float(np.max(dev)),
        significance=SIGNIFICANCE,
    )
