"""The vector-backed partition distribution against the key-based code it
replaced.

``reference_*`` below are the implementations that walked ``"13|2"`` keys
(``Partition.from_key`` per key, a Python loop over colorings or subsets),
kept as they were.  Where the arithmetic is unchanged the comparison is exact;
``push_forward`` now sums each cell in column order, so it is compared within
1e-15.
"""

import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dcrep import cli
from dcrep.gaussian import square_threshold_law_exact
from dcrep.partitions import (BELL, MAX_N, BinaryLaw, Partition, PartitionDistribution,
                              _partition_table, _restriction_columns,
                              enumerate_partitions, marginalize_partition, push_forward,
                              simulate_color_process)
from dcrep.solver import lp_feasibility

from conftest import fmt_cell, random_probability_q, reference_color_process
from test_stacked_square import reference_interval

SIZES = range(1, 9)


def reference_push_forward(weights: dict, n: int, p: float) -> np.ndarray:
    probs = np.zeros(2 ** n)
    for key, w in weights.items():
        if w == 0.0:
            continue
        sig = Partition.from_key(key)
        bits = [sum(1 << (n - i) for i in b) for b in sig.blocks]
        for colors in itertools.product((0, 1), repeat=len(bits)):
            row = sum(bit for bit, c in zip(bits, colors) if c)
            k = sum(colors)
            probs[row] += w * p ** k * (1.0 - p) ** (sig.num_blocks - k)
    return probs


def reference_marginalize_partition(weights: dict, subset) -> dict:
    out: dict[str, float] = {}
    for key, w in weights.items():
        restricted = Partition.from_key(key).restrict(subset).key
        out[restricted] = out.get(restricted, 0.0) + w
    return out


def reference_simulate(weights: dict, n: int, p: float, m: int, seed):
    """The sampler as it drew before one uniform per sample: a partition from
    sorted keys (one ``from_key`` per key), then one uniform per block.  Its
    stream differs from ``simulate_color_process``'s, its law does not."""
    rng = np.random.default_rng(seed)
    keys = sorted(k for k, w in weights.items() if w > 0.0)
    probs = np.array([weights[k] for k in keys])
    probs = probs / probs.sum()
    small = np.int16 if len(keys) <= np.iinfo(np.int16).max else np.int32
    which = rng.choice(len(keys), size=m, p=probs).astype(small)
    counts = np.bincount(which, minlength=len(keys))
    order = np.argsort(which, kind="stable")
    idx = np.empty(m, dtype=np.uint16)
    start = 0
    for key, count in zip(keys, counts.tolist()):
        if count == 0:
            continue
        sig = Partition.from_key(key)
        bits = np.array([sum(1 << (n - i) for i in b) for b in sig.blocks])
        idx[order[start:start + count]] = (rng.random((count, sig.num_blocks)) < p) @ bits
        start += count
    samples = np.empty((m, n), dtype=np.uint8)
    for i in range(n):
        samples[:, i] = (idx >> (n - 1 - i)) & 1
    return samples


def reference_square_law(theta: float) -> np.ndarray:
    """Inclusion-exclusion over frozensets, one Python sum per cell."""
    th_adj = math.acos(math.cos(theta) ** 2)
    th_diag = 2.0 * theta
    pair = {frozenset(t): 0.5 - th_adj / (2 * math.pi)
            for t in [(1, 2), (2, 3), (3, 4), (1, 4)]}
    pair[frozenset((1, 3))] = 0.5 - th_diag / (2 * math.pi)
    pair[frozenset((2, 4))] = 0.5 - th_diag / (2 * math.pi)
    triple = 0.5 - (2 * th_adj + th_diag) / (4 * math.pi)
    quad = 0.5 - th_adj / math.pi

    def upper(t: frozenset) -> float:
        return {0: 1.0, 1: 0.5, 3: triple, 4: quad}[len(t)] if len(t) != 2 else pair[t]

    probs = np.zeros(16)
    full = frozenset((1, 2, 3, 4))
    for idx in range(16):
        ones = frozenset(i + 1 for i in range(4) if (idx >> (3 - i)) & 1)
        rest = sorted(full - ones)
        total = 0.0
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                total += (-1.0) ** r * upper(ones | frozenset(extra))
        probs[idx] = total
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


def reference_marginals(law: BinaryLaw) -> np.ndarray:
    idx = np.arange(2 ** law.n)
    return np.array([law.probs[(idx >> (law.n - 1 - i)) & 1 == 1].sum()
                     for i in range(law.n)])


def reference_marginalize(law: BinaryLaw, subset):
    s = sorted(set(subset))
    k = len(s)
    submap = np.zeros(2 ** law.n, dtype=np.int64)
    for idx in range(2 ** law.n):
        sub = 0
        for j, i in enumerate(s):
            sub |= ((idx >> (law.n - i)) & 1) << (k - 1 - j)
        submap[idx] = sub
    out = np.zeros(2 ** k)
    np.add.at(out, submap, law.probs)
    var = np.zeros(2 ** k)
    np.add.at(var, submap, law.stderr ** 2)
    return out, np.sqrt(var)


def distributions(n: int):
    """Random q at n: full support, and a sparse one with zeros."""
    gen = np.random.default_rng(1000 + n)
    full = random_probability_q(gen, n)
    vec = gen.dirichlet(np.ones(len(full.vector)))
    vec[gen.random(len(vec)) < 0.6] = 0.0
    vec[gen.integers(len(vec))] += 0.5
    return [full, PartitionDistribution.from_vector(n, vec / vec.sum())]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_push_forward_matches_key_loop(n, p):
    for q in distributions(n):
        expect = reference_push_forward(dict(q.weights), n, p)
        assert np.max(np.abs(push_forward(q, p).probs - expect)) <= 1e-15


@pytest.mark.parametrize("n", SIZES)
def test_marginalize_partition_matches_key_loop(n):
    gen = np.random.default_rng(n)
    for q in distributions(n):
        subsets = [list(range(1, n + 1))] + [
            sorted(gen.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
            for size in range(1, n)]
        for subset in subsets:
            out = marginalize_partition(q, subset)
            expect = reference_marginalize_partition(dict(q.weights), subset)
            assert dict(out.weights) == expect
            assert out.signed is q.signed


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_restriction_columns_match_partition_restrict(n):
    """The relabelled label columns against one ``Partition.restrict`` per column."""
    gen = np.random.default_rng(100 + n)
    subsets = {tuple(range(1, n + 1)), (1,), (n,), tuple(range(1, n, 2)) or (1,)}
    subsets |= {tuple(sorted(gen.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
                for size in gen.integers(1, n + 1, size=4).tolist()}
    for subset in sorted(subsets):
        columns = {sig.key: j for j, sig in enumerate(enumerate_partitions(len(subset)))}
        expect = [columns[sig.restrict(subset).key] for sig in enumerate_partitions(n)]
        assert _restriction_columns(n, subset).tolist() == expect, subset


@pytest.mark.parametrize("n", SIZES)
def test_weights_view_and_pickle_round_trip(n):
    """The ``weights`` view, which ``_plain`` writes, lists every partition
    in column order and rebuilds the same distribution."""
    for q in distributions(n):
        assert list(q.weights) == [sig.key for sig in enumerate_partitions(n)]
        assert PartitionDistribution(n, q.weights, signed=q.signed) == q
        assert pickle.loads(pickle.dumps(q)) == q


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_simulate_draws_the_key_order_samples(n, p):
    """The samples of one ``rng.choice`` over the (partition, coloring) pairs."""
    for seed, q in enumerate(distributions(n)):
        samples, _ = simulate_color_process(q, p, 3000, seed)
        expect, _ = reference_color_process(dict(q.weights), n, p, 3000, seed)
        assert samples.dtype == expect.dtype
        assert np.array_equal(samples, expect)


def assert_binomial_fit(counts, m, probs, level=1e-4):
    """Each cell's count lies inside its two-sided Binomial(m, probs) tails at
    ``level`` over the cells (Bonferroni): the z of a normal test, but exact
    for the cells with few expected counts."""
    tail = np.minimum(stats.binom.cdf(counts, m, probs), stats.binom.sf(counts - 1, m, probs))
    assert 2.0 * tail.min() >= level / len(counts), np.argmin(tail)


@pytest.mark.parametrize("n", range(3, MAX_N + 1))
@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("support", ["full", "five"])
def test_simulate_law_matches_push_forward_and_the_per_partition_sampler(n, p, support):
    gen = np.random.default_rng(2000 + n)
    vec = gen.dirichlet(np.ones(BELL[n]))
    if support == "five":
        vec = np.zeros(BELL[n])
        vec[gen.choice(BELL[n], 5, replace=False)] = gen.dirichlet(np.ones(5))
    q, m = PartitionDistribution.from_vector(n, vec), 100_000
    _, law = simulate_color_process(q, p, m, 31 * n)
    counts = np.rint(law.probs * m).astype(np.int64)
    assert counts.sum() == m
    assert_binomial_fit(counts, m, push_forward(q, p).probs)
    old = reference_simulate(dict(q.weights), n, p, m, 31 * n + 1)
    old_counts = np.bincount(old @ (1 << np.arange(n - 1, -1, -1)), minlength=2 ** n)
    # given a cell's total over both samplers, its count from the new one is
    # Binomial(total, 1/2) when the two laws agree
    assert_binomial_fit(counts, counts + old_counts, 0.5)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_simulate_at_p_zero_and_one_colors_every_block_alike(p):
    q = distributions(4)[0]
    samples, law = simulate_color_process(q, p, 1000, 5)
    assert np.all(samples == p)
    assert law.probs[-1 if p else 0] == 1.0
    assert np.allclose(law.probs, push_forward(q, p).probs, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p", [1.5, -0.2, math.nan, math.inf])
def test_simulate_refuses_a_bias_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match="p must lie in"):
        simulate_color_process(distributions(3)[0], p, 100, 0)


def test_simulate_peak_memory_at_max_n():
    """A warm 10^6-sample draw at n = 9 peaks at about 10.2 MiB while it
    fills the (m, n) samples (8.6 MiB), with each block's uniforms and cell
    indices beside them.  ``push_forward``'s masses of the color map's
    610,182 cells peak just below, at 9.3 MiB, before the samples exist.
    The per-partition sampler peaked at 26.5 MiB, and the draw over those
    610,182 cells at about 22 MiB."""
    q = PartitionDistribution.from_vector(MAX_N, np.random.default_rng(9).dirichlet(
        np.ones(BELL[MAX_N])))
    simulate_color_process(q, 0.3, 1000, 0)
    tracemalloc.start()
    try:
        simulate_color_process(q, 0.3, 10 ** 6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20

def test_sparse_dict_constructor_places_each_key():
    q = PartitionDistribution(4, {"13|24": 0.25, "1|2|3|4": 0.5, "1234": 0.25})
    assert {key: w for key, w in q.weights.items() if w} == {
        "1234": 0.25, "13|24": 0.25, "1|2|3|4": 0.5}
    cols = [j for j, sig in enumerate(enumerate_partitions(4)) if q.weights[sig.key]]
    assert np.flatnonzero(q.vector).tolist() == cols
    with pytest.raises(ValueError, match="read-only"):
        q.vector[0] = 1.0
    with pytest.raises(AttributeError):
        q.n = 5


@pytest.mark.parametrize("key, message", [
    ("2|13", "not canonical"),
    ("13|2|", "nonempty"),
    ("1|2", r"not a partition of \[3\]"),
    ("1|2|3|4", r"not a partition of \[3\]"),
    ("1|1|2", "partition"),
])
def test_bad_keys_are_rejected(key, message):
    with pytest.raises(ValueError, match=message):
        PartitionDistribution(3, {key: 1.0})


def test_from_vector_checks_length_sum_and_sign():
    with pytest.raises(ValueError, match="length 5"):
        PartitionDistribution.from_vector(3, np.full(4, 0.25))
    with pytest.raises(ValueError, match="sum to 1"):
        PartitionDistribution.from_vector(3, np.full(5, 0.1))
    with pytest.raises(ValueError, match="negative"):
        PartitionDistribution.from_vector(3, [1.5, -0.5, 0.0, 0.0, 0.0])
    PartitionDistribution.from_vector(3, [1.5, -0.5, 0.0, 0.0, 0.0], signed=True)
    with pytest.raises(ValueError, match=r"n must be in \[1, 9\], got 10"):
        PartitionDistribution.from_vector(10, [1.0])


def test_square_law_matches_inclusion_exclusion_loop():
    gen = np.random.default_rng(5)
    thetas = np.concatenate([np.linspace(0.001, math.pi / 2, 500),
                             gen.uniform(0.0, math.pi / 2, 498), [math.pi / 4, math.pi / 2]])
    for theta in thetas.tolist():
        if theta == 0.0:
            continue
        assert np.array_equal(square_threshold_law_exact(theta).probs,
                              reference_square_law(theta)), theta


@pytest.mark.parametrize("n", [1, 2, 4, 7, 9])
def test_binary_law_marginals_match_mask_loop(n):
    gen = np.random.default_rng(n)
    law = BinaryLaw.from_counts(gen.multinomial(5000, gen.dirichlet(np.ones(2 ** n))), 5000)
    assert np.array_equal(law.marginals(), reference_marginals(law))
    subsets = [[1], list(range(1, n + 1))] + [
        sorted(gen.choice(np.arange(1, n + 1), size=gen.integers(1, n + 1),
                          replace=False).tolist()) for _ in range(4)]
    for subset in subsets:
        out = law.marginalize(subset)
        probs, se = reference_marginalize(law, subset)
        assert np.array_equal(out.probs, probs)
        assert np.array_equal(out.stderr, se)


def reference_scan_lines(kind: str, step: float, a: float = 0.5) -> list[str]:
    """Header and rows of a scan CSV, one point and one ``fmt_cell`` at a time."""
    if kind == "theta":
        header = ["theta", "feasible", "t_lo", "t_hi", "adjacency_gap"]
        rows = []
        for th in np.arange(step, math.pi / 2, step):
            law = BinaryLaw(4, reference_square_law(float(th)))
            _, (t_lo, t_hi, _) = reference_interval(law)
            rows.append([float(th), int(lp_feasibility(law).feasible), t_lo, t_hi,
                         math.pi / 8 - (math.acos(math.cos(th) ** 2) - th)])
    else:
        from dcrep import asymptotics as asym
        header = ["alpha", "gamma_factor", "order2_101", "coupling_threshold",
                  "large_h_color"]
        rows = []
        for al in np.arange(step, 2.0, step):
            al = float(al)
            threshold = 1.0 - a ** al
            o2 = asym.stable_order2_limit_101_symmetric(a, al)
            gf = asym.gamma_factor(al) if al < 1.0 else float("inf")
            rows.append([al, gf, o2, threshold, int(o2 > threshold)])
    return [",".join(header)] + [",".join(fmt_cell(v) for v in row) for row in rows]


@pytest.mark.parametrize("argv, kind, step, a", [
    (["--scan", "theta", "--a-step", "0.001"], "theta", 0.001, None),
    (["--scan", "theta"], "theta", math.pi / 80, None),
    (["--scan", "alpha"], "alpha", 0.01, 0.5),
    (["--scan", "alpha", "--a-step", "0.0002", "--a", "0.37"], "alpha", 0.0002, 0.37),
    # numpy's power can round many of these a^alpha, and its square a few
    # (1 - t)^2, an ulp away from Python's **
    (["--scan", "alpha", "--a-step", "0.0001", "--a", "0.7891"], "alpha", 0.0001, 0.7891),
], ids=["theta_0.001", "theta_default", "alpha_default", "alpha_0.0002", "alpha_0.7891"])
def test_scan_csv_matches_per_point_loop(tmp_path, argv, kind, step, a):
    out = tmp_path / "scan.csv"
    assert cli.main(["scan"] + argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1:] == reference_scan_lines(kind, step, a)
    if step == 0.0002:      # rows that span several blocks of formatted text
        assert len(lines) - 2 > 2 * cli.CSV_BLOCK_ROWS



@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_partition_table_matches_the_blocks(n):
    """Each row of the table against the blocks of its column's Partition."""
    sigs = enumerate_partitions(n)
    labels = np.zeros((len(sigs), n), dtype=np.int64)
    bits = np.zeros((len(sigs), n), dtype=np.int64)
    for j, sig in enumerate(sigs):
        for b, block in enumerate(sig.blocks):
            labels[j, [i - 1 for i in block]] = b
            bits[j, b] = sum(1 << (n - i) for i in block)
    table = _partition_table(n)
    assert np.array_equal(table.labels, labels)
    assert np.array_equal(table.bits, bits)
    assert table.num_blocks.tolist() == [sig.num_blocks for sig in sigs]
    # the columns in lexicographic order of their labels, one per rank
    assert np.array_equal(table.rank_columns, np.lexsort(labels.T[::-1]))
    assert _partition_table(n) is table
    for array in table:
        assert not array.flags.writeable


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_partition_table_is_the_block_of_table(n):
    """Every array of the table, dtype included, equals the table built from
    one ``Partition.block_of`` call per element."""
    labels = np.array([[sig.block_of(i) for i in range(1, n + 1)]
                       for sig in enumerate_partitions(n)], dtype=np.int8)
    bits = (labels[:, None, :] == np.arange(n)[:, None]) @ (1 << np.arange(n - 1, -1, -1))
    reference = (labels, labels.max(axis=1) + 1, bits, np.lexsort(labels.T[::-1]))
    for got, want in zip(_partition_table(n), reference, strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
