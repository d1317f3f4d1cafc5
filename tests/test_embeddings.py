import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dcrep.embeddings import (BinVerdict, ColorPropertyReport, EmbeddingBatch,
                              _assemble_tree, ou_partition_batch,
                              ou_star_partition_batch, stable_chain_partition_batch,
                              stable_star_partition_batch, verify_color_property)
from dcrep.gaussian import markov_chain_cov, pair_cluster_weight, zero_threshold_law_3
from dcrep.partitions import (MAX_N, BinaryLaw, Partition, PartitionDistribution,
                              _column_keys, _partition_table, _rank_weights,
                              enumerate_partitions, push_forward, simulate_color_process)
from dcrep.stable import common_shock_model, sample_sym_stable, stable_threshold_law_mc

from conftest import random_probability_q, reference_color_process


def test_blocks_are_intervals_and_signs_constant():
    m, n = 2000, 5
    batch = ou_partition_batch(0.3, n, m, seed=1)
    assert batch.topology == "path"
    assert batch.signs.shape == batch.labels.shape == (m, n)
    assert batch.crossing_probs.shape == (m, n - 1)
    assert np.isin(batch.signs, (-1, 1)).all()
    # every row: each element's sign is that of its block's least element
    first = np.argmax(batch.labels[:, None, :] == batch.labels[:, :, None], axis=2)
    assert (np.take_along_axis(batch.signs, first, axis=1) == batch.signs).all()
    # on a path a block is an interval: the labels never fall and rise by at most one
    assert np.isin(np.diff(batch.labels, axis=1), (0, 1)).all()


def test_pair_cluster_frequency_matches_pair_weight():
    a, m = 0.5, 100_000
    batch = ou_partition_batch(a, 3, m, seed=2)
    expect = pair_cluster_weight(a)
    for i, j in [(1, 2), (2, 3)]:
        freq = batch.pair_cluster_frequency(i, j)
        se = math.sqrt(expect * (1 - expect) / m)
        assert abs(freq - expect) <= 3 * se


@pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (-1, 2), (1, 4), (4, 4)])
def test_pair_cluster_frequency_refuses_an_element_outside_the_batch(i, j):
    """Elements are 1..n: 0 or -1 would read the last column, as if it were
    the element asked for."""
    batch = ou_partition_batch(0.5, 3, 100, seed=2)
    with pytest.raises(ValueError, match=r"\[1, 3\]"):
        batch.pair_cluster_frequency(i, j)


def test_high_correlation_one_block():
    # pair weight 1 - 2 arccos(0.99)/pi = 0.9099...: nearly always one block
    batch = ou_partition_batch(0.99, 2, 50_000, seed=3)
    one_block = np.mean(batch.labels.max(axis=1) == 0)
    assert one_block > 0.9


def test_sign_marginals_fair():
    batch = ou_partition_batch(0.6, 4, 100_000, seed=4)
    p = (batch.signs > 0).mean(axis=0)
    assert np.all(np.abs(p - 0.5) <= 3 * math.sqrt(0.25 / batch.m))


def test_ou_sign_law_matches_markov_exact():
    a, m = 0.5, 100_000
    batch = ou_partition_batch(a, 3, m, seed=5)
    law = batch.empirical_sign_law()
    exact = zero_threshold_law_3(markov_chain_cov(3, a))
    counts = law.probs * m
    chi2 = float(np.sum((counts - m * exact.probs) ** 2 / (m * exact.probs)))
    assert stats.chi2.sf(chi2, 7) >= 1e-3


def test_ou_color_property_verification():
    batch = ou_partition_batch(0.5, 3, 100_000, seed=6)
    report = verify_color_property(batch)
    assert report.passed
    assert report.aggregate_max_dev_se <= 4.0
    # path topology never produces the non-interval partition
    assert all(b.key != "13|2" for b in report.bins)


def test_verification_negative_control():
    batch = ou_partition_batch(0.5, 3, 50_000, seed=7)
    signs = batch.signs.copy()
    # tamper: force the second block's color to copy block one
    for i in range(batch.m):
        lab = batch.labels[i]
        if lab.max() >= 1:
            first = int(np.nonzero(lab == 0)[0][0])
            signs[i, lab == 1] = signs[i, first]
    tampered = EmbeddingBatch(signs, batch.labels, batch.crossing_probs)
    report = verify_color_property(tampered)
    assert not report.passed


def test_verification_on_sample_list_and_n1():
    batch = ou_partition_batch(0.5, 1, 12_000, seed=8)
    report = verify_color_property(batch)
    assert report.passed
    # only a batch is checked: a list of per-sample rows is refused
    batch = ou_partition_batch(0.4, 2, 12_000, seed=9)
    with pytest.raises(TypeError, match="EmbeddingBatch"):
        verify_color_property(list(zip(batch.signs, batch.labels)))
    with pytest.raises(ValueError):
        verify_color_property(ou_partition_batch(0.5, 2, 100, seed=10))


def test_stable_chain_marginal_law():
    alpha, a, m = 1.0, 0.5, 100_000
    batch = stable_chain_partition_batch(alpha, a, 3, m, seed=11)
    # signs are fair and the law is symmetric
    p = (batch.signs > 0).mean(axis=0)
    assert np.all(np.abs(p - 0.5) <= 3 * math.sqrt(0.25 / m))
    law = batch.empirical_sign_law()
    assert law.is_zero_one_symmetric(4 * float(np.max(law.stderr)))


def test_stable_chain_cross_estimator_agreement():
    alpha, a, m = 1.0, 0.5, 100_000
    batch = stable_chain_partition_batch(alpha, a, 3, m, seed=12)
    law = batch.empirical_sign_law()
    from dcrep.stable import stable_markov_model
    mc = stable_threshold_law_mc(stable_markov_model(a, alpha), 0.0, m, seed=13)
    se = np.sqrt(law.stderr ** 2 + mc.stderr ** 2)
    assert np.all(np.abs(law.probs - mc.probs) <= 4 * se)


def test_stable_chain_color_property():
    batch = stable_chain_partition_batch(0.8, 0.4, 3, 100_000, seed=14)
    report = verify_color_property(batch)
    assert report.passed


def test_stable_pair_cluster_monotone_in_gap():
    batch = stable_chain_partition_batch(1.2, 0.6, 4, 50_000, seed=15)
    freqs = [batch.pair_cluster_frequency(1, j) for j in (2, 3, 4)]
    assert freqs[0] >= freqs[1] >= freqs[2]  # containment makes this samplewise


def test_ou_star_matches_common_shock_structure():
    # leaves of the Gaussian star have pairwise correlation a^2
    a, m = 0.6, 100_000
    batch = ou_star_partition_batch(a, 2, m, seed=16)
    law = batch.empirical_sign_law().marginalize([2, 3])
    expect = 0.25 + math.asin(a * a) / (2 * math.pi)  # Sheppard at rho = a^2
    assert abs(law.cell("11") - expect) <= 4 * math.sqrt(expect * (1 - expect) / m)


def test_stable_star_leaves_match_common_shock_mc():
    alpha, a, m = 0.8, 0.4, 100_000
    batch = stable_star_partition_batch(alpha, a, 3, m, seed=17)
    bits = (batch.signs[:, 1:] > 0).astype(np.int64)
    counts = np.bincount(bits @ np.array([4, 2, 1]), minlength=8)
    law = BinaryLaw.from_counts(counts, m)
    mc = stable_threshold_law_mc(common_shock_model(a, alpha), 0.0, m, seed=18)
    se = np.sqrt(law.stderr ** 2 + mc.stderr ** 2)
    assert np.all(np.abs(law.probs - mc.probs) <= 4 * se)


def test_star_color_property():
    batch = stable_star_partition_batch(1.1, 0.5, 3, 60_000, seed=19)
    report = verify_color_property(batch)
    assert report.passed
    assert batch.topology == "star"


def test_determinism_in_seed():
    b1 = ou_partition_batch(0.5, 3, 500, seed=42)
    b2 = ou_partition_batch(0.5, 3, 500, seed=42)
    assert np.array_equal(b1.signs, b2.signs)
    assert np.array_equal(b1.labels, b2.labels)
    b3 = stable_chain_partition_batch(1.0, 0.5, 3, 500, seed=42)
    b4 = stable_chain_partition_batch(1.0, 0.5, 3, 500, seed=42)
    assert np.array_equal(b3.signs, b4.signs)


def test_parameter_errors():
    with pytest.raises(ValueError):
        ou_partition_batch(1.0, 3, 10, seed=0)
    with pytest.raises(ValueError):
        stable_chain_partition_batch(2.0, 0.5, 3, 10, seed=0)
    with pytest.raises(ValueError):
        stable_chain_partition_batch(1.0, 0.5, 0, 10, seed=0)


# the marginal checks pool three seeded batches, 3 x 10^5 draws a marginal,
# and split the level 0.01 over a test's checks (Bonferroni): a correct sampler
# fails a test on at most 1 % of seeds, and a 3 % scale error fails every check
MARGINAL_LEVEL = 0.01


def pooled_values(sample, seeds):
    return np.concatenate([sample(seed) for seed in seeds])


def test_ou_marginals_are_standard_normal():
    values = pooled_values(lambda seed: ou_partition_batch(0.5, 3, 100_000, seed).values,
                           (20, 21, 22))
    for i in range(3):
        assert stats.kstest(values[:, i], "norm").pvalue > MARGINAL_LEVEL / 3, i


def test_stable_chain_marginals_are_stationary():
    # alpha = 1 with unit scale is the standard Cauchy at every index
    values = pooled_values(
        lambda seed: stable_chain_partition_batch(1.0, 0.5, 3, 100_000, seed).values,
        (23, 24, 25))
    for i in range(3):
        assert stats.kstest(values[:, i], "cauchy").pvalue > MARGINAL_LEVEL / 4, i
    direct = pooled_values(lambda seed: sample_sym_stable(1.0, 1.0, 100_000, seed),
                           (26, 27, 28))
    assert stats.ks_2samp(values[:, 2], direct).pvalue > MARGINAL_LEVEL / 4


# -- integer partition codes against the per-row reference ---------------------

def reference_key(labels_row):
    """A row's partition key built block by block, as the per-row grouping did."""
    blocks = [tuple(int(j + 1) for j in np.nonzero(labels_row == b)[0])
              for b in range(labels_row.max() + 1)]
    return Partition.of(blocks).key


def reference_groups(batch):
    """Rows by partition key, keys in order of first occurrence."""
    groups = {}
    for i in range(batch.m):
        groups.setdefault(reference_key(batch.labels[i]), []).append(i)
    return groups


def reference_verify(batch, groups, min_expected=5.0, significance=1e-3):
    """verify_color_property with one string key per row."""
    m = batch.m
    bins, excluded = [], []
    for key, rows in sorted(groups.items()):
        sig = Partition.from_key(key)
        k = sig.num_blocks
        count = len(rows)
        if count / 2 ** k < min_expected:
            excluded.append(key)
            continue
        obs = np.zeros(2 ** k, dtype=np.int64)
        firsts = [b[0] - 1 for b in sig.blocks]
        sub = (batch.signs[np.ix_(rows, firsts)] > 0).astype(np.int64)
        np.add.at(obs, sub @ (1 << np.arange(k - 1, -1, -1)), 1)
        expected = count / 2 ** k
        chi2 = float(np.sum((obs - expected) ** 2 / expected))
        dof = 2 ** k - 1
        bins.append(BinVerdict(key=key, count=count, chi2=chi2, dof=dof,
                               p_value=float(stats.chi2.sf(chi2, dof))))
    weights = {key: len(rows) / m for key, rows in groups.items()}
    sign_law = batch.empirical_sign_law()
    pf = push_forward(PartitionDistribution(batch.n, weights), 0.5)
    se = np.sqrt(np.maximum(sign_law.probs * (1.0 - sign_law.probs), 1.0 / m) / m)
    return ColorPropertyReport(
        n_samples=m, bins=tuple(bins), excluded_bins=tuple(excluded),
        aggregate_max_dev_se=float(np.max(np.abs(sign_law.probs - pf.probs) / se)),
        significance=significance)


def every_partition_batch(n, m, seed):
    """Uniform over all partitions of [n], fair block colors.  Unlike path and
    star batches it has partitions whose code order is not their key order,
    such as 1|234 (labels 0111) before 14|2|3 (labels 0120)."""
    sigs = enumerate_partitions(n)
    table = np.zeros((len(sigs), n), dtype=np.int16)
    for r, sig in enumerate(sigs):
        for b, block in enumerate(sig.blocks):
            table[r, [j - 1 for j in block]] = b
    gen = np.random.default_rng(seed)
    labels = table[gen.integers(len(sigs), size=m)]
    colors = gen.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    signs = np.take_along_axis(colors, labels.astype(np.intp), axis=1)
    return EmbeddingBatch(signs, labels, np.ones((m, n - 1)), topology="star")


@pytest.mark.parametrize("make", [
    lambda: every_partition_batch(4, 12_000, seed=29),
    lambda: ou_partition_batch(0.5, 1, 10_000, seed=30),
    lambda: ou_partition_batch(0.5, 3, 10_000, seed=31),
    lambda: ou_partition_batch(0.3, 6, 10_000, seed=32),
    lambda: stable_chain_partition_batch(1.2, 0.5, 4, 10_000, seed=33),
    lambda: ou_star_partition_batch(0.5, 3, 10_000, seed=34),
    lambda: stable_star_partition_batch(1.2, 0.5, 4, 10_000, seed=35),
], ids=["all_partitions", "ou1", "ou3", "ou6", "stable4", "ou_star", "stable_star"])
def test_verify_matches_per_row_reference(make):
    batch = make()
    groups = reference_groups(batch)
    assert verify_color_property(batch) == reference_verify(batch, groups)
    weights = batch.empirical_partition_distribution().weights
    observed = {k: len(rows) / batch.m for k, rows in groups.items()}
    assert weights == {**dict.fromkeys(weights, 0.0), **observed}


@st.composite
def restricted_growth_labels(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 40))
    rows = []
    for _ in range(m):
        row = [0]
        for _ in range(n - 1):
            row.append(draw(st.integers(0, max(row) + 1)))
        rows.append(row)
    return np.array(rows, dtype=np.int16)


@given(restricted_growth_labels())
@settings(max_examples=200, deadline=None)
def test_codes_group_rows_as_partitions(labels):
    m, n = labels.shape
    batch = EmbeddingBatch(np.ones((m, n), dtype=np.int8), labels, np.zeros((m, n - 1)))
    cols, inverse, counts = batch.partition_groups()
    group_keys = [_column_keys(n)[j] for j in cols]
    keys = [reference_key(row) for row in labels]
    assert [group_keys[g] for g in inverse] == keys
    assert len(cols) == len(set(keys))
    assert counts.tolist() == [keys.count(k) for k in group_keys]


def reference_partition_groups(batch):
    """The grouping by sorted label rows, ``np.unique(axis=0)``, each distinct
    row looked up among the partition table's rows."""
    rows, inverse, counts = np.unique(batch.labels, axis=0, return_inverse=True,
                                      return_counts=True)
    table = _partition_table(batch.n).labels.tolist()
    column = {tuple(row): j for j, row in enumerate(table)}
    cols = np.array([column[tuple(row)] for row in rows.tolist()], dtype=np.intp)
    return cols, inverse, counts


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
@pytest.mark.parametrize("support", ["every", "some", "one"])
def test_partition_groups_match_the_sorted_codes(n, support):
    """Every partition of [n] present, about half of them, or only one, in
    shuffled rows: the same groups, inverse, counts and dtypes."""
    table = _partition_table(n).labels.astype(np.int16)
    gen = np.random.default_rng(n)
    if support == "every":
        rows = np.concatenate([np.arange(len(table)), gen.integers(len(table), size=500)])
    elif support == "some":
        rows = gen.choice(gen.choice(len(table), size=max(1, len(table) // 2), replace=False),
                          size=1000)
    else:
        rows = np.full(300, gen.integers(len(table)))
    labels = table[gen.permutation(rows)]
    m = len(labels)
    batch = EmbeddingBatch(np.ones((m, n), dtype=np.int8), labels, np.zeros((m, n - 1)))
    for got, want in zip(batch.partition_groups(), reference_partition_groups(batch)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_rank_weights_count_completions_and_hold_nothing_else(n):
    """weights[i, top], top < i: the strings of the partition table that
    share one prefix of places 0..i whose largest label is top.  The entries
    never read, top >= i, are 0."""
    table = _partition_table(n).labels
    weights = _rank_weights(n)
    assert weights.dtype == np.int16 and not weights.flags.writeable
    for i in range(n):
        for top in range(n):
            if top >= i:
                assert weights[i, top] == 0
                continue
            prefix = np.r_[np.arange(top + 1), np.full(i - top, top)]
            assert weights[i, top] == np.all(table[:, :i + 1] == prefix, axis=1).sum()


def test_labels_must_be_restricted_growth():
    signs = np.ones((1, 3), dtype=np.int8)
    for labels in ([[1, 0, 0]], [[0, 2, 1]], [[0, 1, -1]]):
        with pytest.raises(ValueError):
            EmbeddingBatch(signs, np.array(labels, dtype=np.int16), np.zeros((1, 2)))


def reference_star_batch(y, expo, rng):
    """The star assembler with a per-row labelling loop."""
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
    return labels


@pytest.mark.parametrize("leaves", [1, 3, 6])
def test_star_labels_match_per_row_loop(leaves):
    a, m = 0.4, 5000
    gen = np.random.default_rng(leaves)
    y = gen.standard_normal((m, leaves + 1))
    expo = a * y[:, :1] * y[:, 1:] / (1.0 - a * a)
    batch = _assemble_tree(y, expo, [0] * leaves, np.random.default_rng(40), "star")
    expect = reference_star_batch(y, expo, np.random.default_rng(40))
    assert batch.labels.dtype == expect.dtype
    assert np.array_equal(batch.labels, expect)


def reference_assemble_tree(y, expo, parents, rng):
    """The tree assembler as it selected with ``np.where``, one edge at a time:
    (signs, labels, crossing probabilities)."""
    m, n = y.shape
    signs = np.where(y > 0.0, 1, -1).astype(np.int8)
    uniforms = rng.random((m, n - 1))
    cross_p = np.empty((m, n - 1))
    labels = np.zeros((m, n), dtype=np.int16)
    opened = np.zeros(m, dtype=np.int16)
    for i, parent in enumerate(parents, start=1):
        cross_p[:, i - 1] = np.where(signs[:, parent] == signs[:, i],
                                     np.exp(-2.0 * np.clip(expo[:, i - 1], 0.0, None)), 1.0)
        crossed = uniforms[:, i - 1] < cross_p[:, i - 1]
        opened += crossed
        labels[:, i] = np.where(crossed, opened, labels[:, parent])
    return signs, labels, cross_p


TREES = {"path": [0, 1, 2, 3], "star": [0, 0, 0, 0], "tree": [0, 0, 1, 1, 3]}


@pytest.mark.parametrize("parents", TREES.values(), ids=TREES)
def test_tree_assembly_matches_the_where_reference_on_planted_exponents(parents):
    """Exponents 0, +inf and NaN beside finite ones of either sign, on edges
    with and without a sign change, and nodes at exactly 0 (sign -1).  A NaN
    exponent arises only if ``sample_pos_stable`` returns inf: the bridge time
    and the endpoint are then both infinite."""
    n, m = len(parents) + 1, 4000
    gen = np.random.default_rng(len(parents))
    y = gen.standard_normal((m, n))
    y[gen.random((m, n)) < 0.05] = 0.0
    expo = gen.standard_normal((m, n - 1))
    kind = gen.integers(4, size=(m, n - 1))
    expo[kind == 1] = 0.0
    expo[kind == 2] = np.inf
    expo[kind == 3] = np.nan
    batch = _assemble_tree(y, expo, parents, np.random.default_rng(7), "path")
    signs, labels, cross_p = reference_assemble_tree(y, expo, parents, np.random.default_rng(7))
    for got, want in ((batch.signs, signs), (batch.labels, labels)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(batch.crossing_probs, cross_p, equal_nan=True)
    change = signs[:, parents] != signs[:, 1:]
    for k in range(1, 4):       # each planted exponent meets both kinds of edge
        assert (change & (kind == k)).any() and (~change & (kind == k)).any()
    # a sign change is always a crossing, whatever its exponent
    assert (batch.crossing_probs[change] == 1.0).all()
    assert np.isnan(batch.crossing_probs[~change & (kind == 3)]).all()


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("seed", [1, 2])
def test_color_process_matches_per_partition_loop(n, seed):
    q = random_probability_q(np.random.default_rng(100 + n), n)
    samples, law = simulate_color_process(q, 0.3, 20_000, seed)
    expect, expect_law = reference_color_process(dict(q.weights), n, 0.3, 20_000, seed)
    assert samples.dtype == expect.dtype
    assert np.array_equal(samples, expect)
    assert np.array_equal(law.probs, expect_law.probs)
    assert np.array_equal(law.stderr, expect_law.stderr)
