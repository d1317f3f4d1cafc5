import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcrep
from dcrep.partitions import (BinaryLaw, Partition, PartitionDistribution, _column_keys,
                              bell_number, color_map, color_map_csc, enumerate_partitions,
                              marginalize_partition, push_forward,
                              simulate_color_process)
from dcrep.solver import lp_feasibility

from conftest import brute_force_partitions, random_probability_q


def test_bell_small_counts():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(4)) == 15


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_bruteforce(n):
    ours = {frozenset(frozenset(b) for b in sig.blocks)
            for sig in enumerate_partitions(n)}
    assert ours == brute_force_partitions(n)
    assert len(enumerate_partitions(n)) == bell_number(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_order_is_sorted_and_stable(n):
    sigs = enumerate_partitions(n)
    blocks = [sig.blocks for sig in sigs]
    assert blocks == sorted(blocks)
    assert len(set(blocks)) == len(blocks) == bell_number(n)
    assert all(sig == Partition.of(sig.blocks) for sig in sigs)
    assert sigs[0].key == "|".join(map(str, range(1, n + 1)))   # the singletons come first
    if n == 4:     # sorted by blocks, not by key: '1234' is ninth
        assert [sig.key for sig in sigs] == [
            "1|2|3|4", "1|2|34", "1|23|4", "1|234", "1|24|3", "12|3|4", "12|34", "123|4",
            "1234", "124|3", "13|2|4", "13|24", "134|2", "14|2|3", "14|23"]


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_from_the_labels_spells_the_column_keys(n):
    """``enumerate_partitions`` reads the table's labels, ``_column_keys`` its
    block sequences: the two name the same partition in every column."""
    assert [sig.key for sig in enumerate_partitions(n)] == list(_column_keys(n))


def test_deciding_and_sampling_build_no_partition_objects():
    """The LP, the key boundary and the sampler read the partition table: no
    ``Partition`` enumeration is built on the way."""
    script = """
from dcrep.partitions import PartitionDistribution, enumerate_partitions, push_forward
from dcrep.partitions import simulate_color_process
from dcrep.reports import _plain
from dcrep.solver import lp_feasibility
q = PartitionDistribution(8, {"12|345|678": 0.25, "1|2|3|4|5|6|7|8": 0.25, "18|27|36|45": 0.5})
res = lp_feasibility(push_forward(q, 0.3))
assert res.feasible and _plain(res)["q"]
simulate_color_process(q, 0.3, 1000, 0)
print(enumerate_partitions.cache_info().currsize)
"""
    src = Path(dcrep.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_n_out_of_range():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(13)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.of([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition.of([[1], [3]])
    sig = Partition.of([[3, 1], [2]])
    assert sig.key == "13|2"
    assert sig.block_of(3) == 0


@given(st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_key_roundtrip(n, rnd):
    labels = [rnd.randrange(n) for _ in range(n)]
    blocks = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    sig = Partition.of(blocks.values())
    if n <= 9:
        assert Partition.from_key(sig.key) == sig


def test_restrict():
    sig = Partition.of([[1, 2], [3, 4]])
    assert sig.restrict([1, 2, 3]).key == "12|3"
    assert sig.restrict([2, 4]).key == "1|2"
    assert sig.restrict([3, 4]).key == "12"


def test_color_map_n1_n2():
    m1 = color_map(1, 0.3)
    assert np.allclose(m1[:, 0], [0.7, 0.3])
    sigs = enumerate_partitions(2)
    m2 = color_map(2, 0.4)
    col_pair = m2[:, [s.key for s in sigs].index("12")]
    assert np.allclose(col_pair, [0.6, 0.0, 0.0, 0.4])  # 00, 01, 10, 11
    col_sing = m2[:, [s.key for s in sigs].index("1|2")]
    assert np.allclose(col_sing, [0.36, 0.24, 0.24, 0.16])


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
def test_columns_are_stochastic(n, p):
    mat = color_map(n, p)
    assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)
    assert mat.min() >= 0.0


def test_push_forward_examples():
    singles = PartitionDistribution(3, {"1|2|3": 1.0})
    law = push_forward(singles, 0.5)
    assert np.allclose(law.probs, 1.0 / 8.0, atol=1e-15)

    coupled = PartitionDistribution(3, {"123": 1.0})
    law = push_forward(coupled, 0.3)
    assert law.cell("111") == pytest.approx(0.3, abs=1e-15)
    assert law.cell("000") == pytest.approx(0.7, abs=1e-15)
    assert law.probs[1:-1].max() == 0.0


def test_push_forward_uniform_b3_vs_bruteforce():
    p = 0.4
    q = PartitionDistribution.from_vector(3, np.full(5, 0.2))
    law = push_forward(q, p)
    # oracle: enumerate the 5 partitions and their 2^k block colorings directly
    expected = np.zeros(8)
    for sig in enumerate_partitions(3):
        for colors in itertools.product([0, 1], repeat=sig.num_blocks):
            rho = [0] * 3
            for block, c in zip(sig.blocks, colors):
                for i in block:
                    rho[i - 1] = c
            idx = int("".join(map(str, rho)), 2)
            expected[idx] += 0.2 * p ** sum(colors) * (1 - p) ** (len(colors) - sum(colors))
    assert np.allclose(law.probs, expected, atol=1e-15)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("p", [0.2, 0.5, 0.7])
def test_push_forward_marginals(rng, n, p):
    q = random_probability_q(rng, n)
    law = push_forward(q, p)
    assert np.allclose(law.marginals(), p, atol=1e-12)


def reference_push_forward(q, p):
    """The double-loop map applied to q by a Python loop over its columns,
    each column's cells added in row order."""
    mat = reference_color_map(q.n, p)
    out = [0.0] * 2 ** q.n
    for j, weight in enumerate(q.vector.tolist()):
        column = mat[:, j].tolist()
        for row in np.flatnonzero(mat[:, j]).tolist():
            out[row] += weight * column[row]
    return np.array(out)


def map_test_qs(n):
    """A Dirichlet q over all of B_n, a q on 5 partitions (all of B_n when
    there are fewer), and the LP's vertex q for the first one's law at
    p = 0.3, which has at most 2^n nonzero weights."""
    rng = np.random.default_rng([n, 39])
    dense = random_probability_q(rng, n)
    support = min(5, bell_number(n))
    v = np.zeros(bell_number(n))
    v[rng.choice(len(v), support, replace=False)] = rng.dirichlet(np.ones(support))
    vertex = lp_feasibility(push_forward(dense, 0.3)).q
    assert np.count_nonzero(vertex.vector) <= 2 ** n
    return dense, PartitionDistribution.from_vector(n, v), vertex


@pytest.mark.parametrize("n", range(1, 10))
def test_push_forward_is_the_map_applied_to_q(n):
    """Bit for bit the CSC map times q, and at n <= 6 a Python loop over
    the columns: every route to a color process's law adds its cells in one
    order, by column and then by row."""
    for q, p in itertools.product(map_test_qs(n), (0.3, 1 / 3, 0.5)):
        law = push_forward(q, p).probs
        assert law.tobytes() == (color_map_csc(n, p) @ q.vector).tobytes(), p
        if n <= 6:
            assert law.tobytes() == reference_push_forward(q, p).tobytes(), p


def test_the_cold_coloring_map_at_nine_is_small():
    """In a fresh interpreter, the first ``push_forward`` and ``color_map_csc``
    at n = 9 build the map's cells once, in one (column, row) order, and keep
    them in int32 rows and int8 weight indices: at most 8 MiB stay allocated
    once their results are dropped, with a peak of at most 24 MiB."""
    script = """
import tracemalloc
import numpy as np
from dcrep.partitions import BELL, PartitionDistribution, _partition_table, color_map_csc
from dcrep.partitions import push_forward
_partition_table(9)
q = PartitionDistribution.from_vector(9, np.full(BELL[9], 1.0 / BELL[9]))
tracemalloc.start()
law, mat = push_forward(q, 0.3), color_map_csc(9, 0.3)
del law, mat
print(*tracemalloc.get_traced_memory())
"""
    src = Path(dcrep.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    retained, peak = map(int, proc.stdout.split())
    assert retained <= 8 * 2 ** 20 and peak <= 24 * 2 ** 20, (retained, peak)


def test_push_forward_rejects_signed():
    q = PartitionDistribution(3, {"1|2|3": 1.2, "123": -0.2}, signed=True)
    with pytest.raises(ValueError):
        push_forward(q, 0.5)


def test_marginalize_partition_examples():
    q = PartitionDistribution(4, {"12|34": 1.0})
    out = marginalize_partition(q, [1, 2, 3])
    assert out.weights == {"12|3": 1.0, "123": 0.0, "13|2": 0.0, "1|23": 0.0, "1|2|3": 0.0}

    singles = PartitionDistribution(4, {"1|2|3|4": 1.0})
    assert marginalize_partition(singles, [2, 4]).weights == {"1|2": 1.0, "12": 0.0}

    with pytest.raises(ValueError):
        marginalize_partition(q, [])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_marginalization_consistency(rng, n):
    # pushing forward then marginalizing the law == marginalizing the
    # partition then pushing forward
    p = 0.3
    q = random_probability_q(rng, n)
    for size in range(1, n):
        subset = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        via_law = push_forward(q, p).marginalize(subset)
        via_part = push_forward(marginalize_partition(q, subset), p)
        assert np.allclose(via_law.probs, via_part.probs, atol=1e-12)


def test_simulate_full_coupling_p1():
    q = PartitionDistribution(3, {"123": 1.0})
    samples, law = simulate_color_process(q, 1.0, 500, seed=1)
    assert np.all(samples == 1)
    assert law.cell("111") == 1.0


def test_simulate_iid_convergence():
    q = PartitionDistribution(3, {"1|2|3": 1.0})
    m = 100_000
    _, law = simulate_color_process(q, 0.5, m, seed=2)
    assert np.max(np.abs(law.probs - 0.125)) < 0.01


def test_simulate_matches_push_forward(rng):
    q = PartitionDistribution.from_vector(3, np.full(5, 0.2))
    p, m = 0.4, 100_000
    _, emp = simulate_color_process(q, p, m, seed=3)
    exact = push_forward(q, p)
    dev = np.abs(emp.probs - exact.probs)
    se = np.sqrt(exact.probs * (1 - exact.probs) / m)
    assert np.all(dev <= 4.0 * se + 1e-12)


def test_simulate_deterministic_in_seed():
    q = PartitionDistribution.from_vector(4, np.full(15, 1 / 15))
    s1, law1 = simulate_color_process(q, 0.3, 2000, seed=11)
    s2, law2 = simulate_color_process(q, 0.3, 2000, seed=11)
    assert np.array_equal(s1, s2)
    assert np.array_equal(law1.probs, law2.probs)


def test_distribution_validation():
    with pytest.raises(ValueError):
        PartitionDistribution(3, {"1|2|3": 0.9})  # does not sum to 1
    with pytest.raises(ValueError):
        PartitionDistribution(3, {"1|2|3": 1.5, "123": -0.5})  # negative, unsigned
    with pytest.raises(ValueError):
        PartitionDistribution(3, {"2|13": 1.0})  # non-canonical key
    PartitionDistribution(3, {"1|2|3": 1.5, "123": -0.5}, signed=True)


def test_binary_law_validation_and_marginals():
    law = BinaryLaw(2, [0.25, 0.25, 0.25, 0.25])
    assert law.marginal_p == pytest.approx(0.5)
    assert law.max_marginal_gap() == 0.0
    with pytest.raises(ValueError):
        BinaryLaw(2, [0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        BinaryLaw(2, [0.3, 0.3, 0.3, 0.3])


def test_binary_laws_are_equal_when_their_n_cells_and_stderr_are():
    coin = BinaryLaw(1, [0.5, 0.5])
    assert coin == BinaryLaw(1, [0.5, 0.5])        # both without stderr
    assert coin != BinaryLaw(1, [0.5, 0.5], stderr=[0.0, 0.0])
    assert BinaryLaw(1, [0.5, 0.5], stderr=[0.0, 0.0]) != coin
    assert (BinaryLaw(1, [0.5, 0.5], stderr=[0.1, 0.1])
            == BinaryLaw(1, [0.5, 0.5], stderr=[0.1, 0.1]))
    assert (BinaryLaw(1, [0.5, 0.5], stderr=[0.1, 0.1])
            != BinaryLaw(1, [0.5, 0.5], stderr=[0.1, 0.2]))
    assert coin != BinaryLaw(1, [0.4, 0.6])
    assert coin != BinaryLaw(2, [0.25] * 4)
    assert coin != [0.5, 0.5]
    with pytest.raises(TypeError):
        hash(coin)


@pytest.mark.parametrize("text", [
    '{"n": 2, "entries": [{"key": "111", "p": 1.0}]}',           # too long
    '{"n": 2, "entries": [{"key": "1", "p": 1.0}]}',             # too short
    '{"n": 2, "entries": [{"key": "-1", "p": 1.0}]}',            # not 0/1
    '{"n": 2, "entries": [{"key": 11, "p": 1.0}]}',              # not a string
    '{"n": 2, "entries": [{"key": "11", "p": 0.5}, {"key": "11", "p": 0.5},'
    ' {"key": "00", "p": 0.5}]}',                                # repeated key
    '{"n": 36, "entries": []}',                                  # n before any array
])
def test_binary_law_from_json_checks_n_and_keys(text):
    with pytest.raises(ValueError):
        BinaryLaw.from_json_dict(json.loads(text))


@pytest.mark.parametrize("make", [
    lambda: BinaryLaw(2, [math.nan, 0, 0, 1]),
    lambda: BinaryLaw(2, [math.inf, 0, 0, 1]),
    lambda: BinaryLaw(2, [math.inf, -math.inf, 0, 1]),
    lambda: BinaryLaw(2, [0.25] * 4, stderr=[-1, 0, 0, 0]),
    lambda: BinaryLaw(2, [0.25] * 4, stderr=[math.nan, 0, 0, 0]),
    lambda: BinaryLaw(2, [0.25] * 4, stderr=[math.inf, 0, 0, 0]),
    lambda: PartitionDistribution.from_vector(2, [math.nan, 1.0]),
    lambda: PartitionDistribution.from_vector(2, [math.inf, 1.0], signed=True),
    lambda: PartitionDistribution(2, {"12": math.nan, "1|2": 1.0}, signed=True),
], ids=["nan_cell", "inf_cell", "inf_minus_inf_cells", "negative_stderr", "nan_stderr", "inf_stderr",
        "nan_weight", "inf_signed_weight", "nan_key_weight"])
def test_non_finite_values_are_refused(make):
    with pytest.raises(ValueError):
        make()


def test_json_roundtrips(rng):
    law = push_forward(random_probability_q(rng, 3), 0.35)
    obj = json.loads(json.dumps(law.to_json_dict()))
    assert np.array_equal(BinaryLaw.from_json_dict(obj).probs, law.probs)
    assert obj["entries"][5]["key"] == "101"


def test_exact_constructions_sum_tightly(rng):
    # closed-form laws and distributions are exact to 1e-12, not just the
    # construction gate
    import math as _math
    for n in (2, 3, 5):
        q = random_probability_q(rng, n)
        law = push_forward(q, 0.35)
        assert abs(_math.fsum(law.probs) - 1.0) <= 1e-12
        assert abs(_math.fsum(q.weights.values()) - 1.0) <= 1e-12


@given(st.integers(2, 5), st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_color_map_columns_stochastic_property(n, p):
    mat = color_map(n, p)
    assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)
    assert mat.min() >= 0.0


def reference_color_map(n, p):
    """color_map built by a double loop over partitions and their colorings."""
    sigs = enumerate_partitions(n)
    mat = np.zeros((2 ** n, len(sigs)))
    for j, sig in enumerate(sigs):
        bits = [sum(1 << (n - i) for i in b) for b in sig.blocks]
        for colors in itertools.product((0, 1), repeat=len(bits)):
            row = sum(bit for bit, c in zip(bits, colors) if c)
            k = sum(colors)
            mat[row, j] = p ** k * (1.0 - p) ** (sig.num_blocks - k)
    return mat


@pytest.mark.parametrize("n", range(1, 9))
def test_color_map_matches_double_loop(n):
    for p in (0.1, 0.3, 0.5, 0.77):
        assert np.array_equal(color_map(n, p), reference_color_map(n, p))
    mat = color_map(n, 0.3)
    mat[0, 0] = 5.0   # each call returns a fresh matrix
    assert np.array_equal(color_map(n, 0.3), reference_color_map(n, 0.3))
