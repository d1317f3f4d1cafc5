"""Set partitions of [n] and the linear map from partition distributions to
{0,1}^n laws.

A partition distribution q together with a coin bias p induces a law nu on
binary strings: pick a partition, then color each block 1 with probability p,
independently across blocks.  That map is a 2^n x Bell(n) column-stochastic
matrix, kept once per n as its nonzero cells in CSC order, one per
(partition, coloring) pair (``_color_map_cells``): ``color_map_csc`` is the
matrix at p, ``push_forward`` applies it to q, and ``simulate_color_process``
samples from the law it gives.  A color process sample is a draw from nu
itself, so the sampler draws each sample's string with one uniform, by a
guide-table categorical over nu's 2^n cells, rather than a partition and
then one uniform per block.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import deque
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_array

MAX_N = 9  # the one size limit (``_check_n``): keys spell each element as one digit
PROB_TOL = 1e-12
MC_BLOCK = 1 << 15  # rows per MC block; each block of ``_count_blocks`` has its own stream


def _read_line(path: str) -> str | None:
    """The first line of a file, stripped; None if it cannot be read."""
    try:
        with open(path) as f:
            return f.readline().strip()
    except OSError:
        return None


def _cpu_quota() -> int | None:
    """The CPUs that the CPU quota of the cgroup at /sys/fs/cgroup (a
    container's own) lets this process use, ceil(quota / period) and at least
    1: from cgroup v2 ``cpu.max`` ("<quota> <period>"), else from cgroup v1
    ``cpu.cfs_quota_us`` and ``cpu.cfs_period_us``.  None when there is no
    quota ("max" or -1) or it cannot be read."""
    both = _read_line("/sys/fs/cgroup/cpu.max")
    if both is not None:
        quota, _, period = both.partition(" ")
    else:
        quota = _read_line("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read_line("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    try:
        quota, period = int(quota), int(period)
    except (TypeError, ValueError):     # "max", or a file missing
        return None
    return max(1, -(-quota // period)) if quota > 0 and period > 0 else None


def _mc_workers() -> int:
    """One thread per CPU this process may run on: the CPU-affinity count,
    capped by the cgroup's CPU quota (``_cpu_quota``)."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    quota = _cpu_quota()
    return cpus if quota is None else min(cpus, quota)


MC_WORKERS = _mc_workers()  # threads that count MC blocks

# Bell numbers B_0..B_9.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)


def bell_number(n: int) -> int:
    _check_n(n)
    return BELL[n]


def _check_n(n: int) -> None:
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must be in [1, {MAX_N}], got {n}")


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n}.

    Blocks are stored canonically: each block sorted ascending, blocks ordered
    by least element.  Two Partition values are equal iff they are the same
    set partition.
    """

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(blocks) -> "Partition":
        """Canonicalize and validate an iterable of index blocks."""
        blocks = [tuple(sorted(b)) for b in blocks]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be nonempty")
        canon = tuple(sorted(blocks, key=lambda b: b[0]))
        flat = [i for b in canon for i in b]
        n = len(flat)
        _check_n(n)
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError(f"blocks must partition {{1,...,{n}}}, got {blocks}")
        return Partition(canon)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def key(self) -> str:
        """Canonical string key, e.g. '13|2' (1-based digits)."""
        return "|".join("".join(str(i) for i in b) for b in self.blocks)

    @staticmethod
    def from_key(key: str) -> "Partition":
        return Partition.of([[int(c) for c in part] for part in key.split("|")])

    def block_of(self, i: int) -> int:
        """Index (0-based, canonical order) of the block containing element i."""
        for k, b in enumerate(self.blocks):
            if i in b:
                return k
        raise ValueError(f"element {i} not in partition of [{self.n}]")

    def restrict(self, subset) -> "Partition":
        """Induced partition on ``subset``, relabeled to {1, ..., |subset|}."""
        s = sorted(set(subset))
        if not s:
            raise ValueError("subset must be nonempty")
        if s[0] < 1 or s[-1] > self.n:
            raise ValueError(f"subset {s} not within [{self.n}]")
        relabel = {orig: k + 1 for k, orig in enumerate(s)}
        blocks = []
        for b in self.blocks:
            kept = [relabel[i] for i in b if i in relabel]
            if kept:
                blocks.append(kept)
        return Partition.of(blocks)

    def __str__(self) -> str:
        return self.key


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All of B_n exactly once, read from the partition table's labels: sorted
    by ``blocks``, so '1|2|3|4' comes first and '1234' ninth.

    The order is what fixes LP column indexing, so it must never change.
    """
    partitions = []
    for row in _partition_table(n).labels.tolist():
        blocks = [[] for _ in range(max(row) + 1)]   # block b holds the elements labelled b
        for element, label in enumerate(row, 1):
            blocks[label].append(element)
        partitions.append(Partition(tuple(map(tuple, blocks))))
    return tuple(partitions)


class PartitionTable(NamedTuple):
    """The partitions of [n] as read-only arrays, row j for column j of B_n
    (``enumerate_partitions(n)[j]``): restricted-growth ``labels``,
    ``num_blocks``, and ``bits[j, b]``, the row-index bit mask of block b
    (element 1 is the high bit; 0 past the last block).  ``rank_columns[r]``
    is the column of the labels of rank r (``_rg_ranks``)."""

    labels: np.ndarray
    num_blocks: np.ndarray
    bits: np.ndarray
    rank_columns: np.ndarray


def _block_sequences(labels: np.ndarray) -> np.ndarray:
    """Each row's blocks written out: the 1-based elements of each block in
    turn and a 0 after each block, in 2n columns (the 0s of the unused blocks
    last).  Compared as sequences, rows order as their ``Partition.blocks``."""
    m, n = labels.shape
    element = np.arange(n)
    # element i of block b goes to place b (n + 1) + i, the 0 after it to b (n + 1) + n
    place = np.hstack([labels.astype(np.intp) * (n + 1) + element,
                       np.tile(element * (n + 1) + n, (m, 1))])
    values = np.concatenate([element + 1, np.zeros(n, dtype=element.dtype)]).astype(np.int8)
    return values[np.argsort(place, axis=1)]


@lru_cache(maxsize=None)
def _partition_table(n: int) -> PartitionTable:
    """The one ``PartitionTable`` of [n], shared by every caller: the one
    encoding of B_n, from which its keys and ``Partition`` objects are read.
    Its rows grow one element at a time, a row with K blocks having K + 1
    children labelled 0..K, so they grow in rank order; one sort by block
    sequence orders the columns, and its inverse maps each rank to its column."""
    _check_n(n)
    labels = np.zeros((1, 0), dtype=np.int8)
    for _ in range(n):
        children = labels.max(axis=1, initial=-1) + 2
        parent = np.repeat(np.arange(len(labels)), children)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(children) - children, children)
        labels = np.column_stack([labels[parent], label.astype(np.int8)])
    order = np.lexsort(_block_sequences(labels).T[::-1])
    labels = labels[order]
    bits = (labels[:, None, :] == np.arange(n)[:, None]) @ (1 << np.arange(n - 1, -1, -1))
    table = PartitionTable(labels, labels.max(axis=1) + 1, bits, np.argsort(order))
    for a in table:
        a.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _rank_weights(n: int) -> np.ndarray:
    """weights[i, top]: how many restricted-growth strings of length n share
    a prefix up to place i and put a given label below top + 1 there, where
    top is the largest label before place i: the completions of the n - 1 - i
    later places with top + 1 blocks open.  Completions of r places with k
    blocks open number T(r, k) = k T(r - 1, k) + T(r - 1, k + 1), T(0, k) = 1;
    the recurrence below is exact where k + r <= n.  Only the entries with
    top < i are read, T(r, k) with k + r <= n - 1, and only they are kept:
    the rest are zeroed.  Each kept entry, and each rank they sum to, is below
    Bell(9) = 21,147, so int16."""
    completions = np.ones((n, n + 1), dtype=np.int64)   # completions[r, k] = T(r, k)
    for r in range(1, n):
        completions[r, :n] = np.arange(n) * completions[r - 1, :n] + completions[r - 1, 1:]
    weights = np.tril(completions[n - 1 - np.arange(n), 1:], -1).astype(np.int16)
    weights.setflags(write=False)
    return weights


def _rg_ranks(labels: np.ndarray) -> np.ndarray:
    """Each row's rank, from 0, among the Bell(n) restricted-growth strings of
    its length in lexicographic order (Knuth, TAOCP 4A 7.2.1.5), as intp, in
    one pass per column.  The label a at place i passes over a strings with
    the same prefix and a smaller label there, each followed by
    ``_rank_weights`` completions.  The ranks sum in int16; the largest label
    so far is kept as intp, which indexes the weights with no conversion."""
    m, n = labels.shape
    weights = _rank_weights(n)
    rank = np.zeros(m, dtype=np.int16)
    top = np.zeros(m, dtype=np.intp)
    label = np.empty(m, dtype=np.intp)
    for i in range(1, n):
        step = weights[i].take(top)
        step *= labels[:, i]
        rank += step
        np.copyto(label, labels[:, i])
        np.maximum(top, label, out=top)
    return rank.astype(np.intp)


@lru_cache(maxsize=None)
def _column_keys(n: int) -> tuple[str, ...]:
    """Canonical key of each column of B_n, e.g. '13|2': the block sequence
    of its labels with each 0 spelt '|', trailing ones dropped."""
    seq = _block_sequences(_partition_table(n).labels)
    text = np.where(seq > 0, seq + ord("0"), ord("|")).astype(np.uint8)
    return tuple(key.decode().rstrip("|") for key in text.view(f"S{2 * n}").ravel().tolist())


def _keyed(n: int, vector: np.ndarray) -> Mapping[str, float]:
    """Read-only {canonical key: weight} of weights over B_n in column order,
    zeros included: the one place where a weight vector gets its keys."""
    return MappingProxyType(dict(zip(_column_keys(n), vector.tolist())))


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float vector."""
    vec = np.array(values, dtype=float)
    vec.setflags(write=False)
    return vec


@lru_cache(maxsize=None)
def _key_columns(n: int) -> dict[str, int]:
    """Column of each canonical key: the inverse of ``_column_keys``."""
    return {key: j for j, key in enumerate(_column_keys(n))}


def string_index(rho: str) -> int:
    """Row index of a binary string; the first coordinate is the high bit."""
    return int(rho, 2)


def index_string(idx: int, n: int) -> str:
    return format(idx, f"0{n}b")


@lru_cache(maxsize=None)
def _color_map_cells(n: int) -> tuple[np.ndarray, ...]:
    """The nonzero cells of the coloring map at n, one per (partition,
    coloring) pair, as three read-only arrays shared by every p: int32
    ``indptr`` and ``rows`` of the cells sorted by (column, row), the layout
    of ``color_map_csc``, and each cell's ``index`` K (n+1) + k into the
    flattened ``_coloring_weights``, where the cell colors k of its column's
    K blocks 1.  Column j's cells are ``indptr[j]:indptr[j+1]``.

    The cells are built per K and cast before the one sort: rows < 2^9 and
    columns < Bell(9) fit int16, and indices < (n+1)^2 int8."""
    table = _partition_table(n)
    parts = []
    for big in range(1, n + 1):
        cols = np.flatnonzero(table.num_blocks == big)
        # the 2^K colorings of K blocks
        colorings = np.array(list(itertools.product((0, 1), repeat=big)))
        parts.append(((table.bits[cols, :big] @ colorings.T).ravel().astype(np.int16),
                      np.repeat(cols, 2 ** big).astype(np.int16),
                      np.tile(big * (n + 1) + colorings.sum(axis=1), len(cols)).astype(np.int8)))
    row, col, index = (np.concatenate(a) for a in zip(*parts))
    order = np.lexsort((row, col))
    indptr = np.zeros(BELL[n] + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=BELL[n]), out=indptr[1:])
    arrays = (indptr, row[order].astype(np.int32), index[order])
    for a in arrays:
        a.setflags(write=False)
    return arrays


def color_map_csc(n: int, p: float) -> csc_array:
    """The 2^n x Bell(n) coloring map at bias p, as a CSC matrix.

    Column sigma puts weight p^k (1-p)^(K-k) on each string that colors k of
    sigma's K blocks 1; every column sums to 1.  Its ``indptr`` and
    ``indices`` are those of ``_color_map_cells``; only ``data`` is computed
    per p, by one gather from the (n+1) x (n+1) weight table.
    """
    _check_n(n)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0,1), got {p}")
    indptr, rows, index = _color_map_cells(n)
    data = _coloring_weights(n, p).ravel()[index]
    return csc_array((data, rows, indptr), shape=(2 ** n, BELL[n]))


def color_map(n: int, p: float) -> np.ndarray:
    """``color_map_csc(n, p)`` as a dense 2^n x Bell(n) array."""
    return color_map_csc(n, p).toarray()


@lru_cache(maxsize=256)
def _coloring_weights(n: int, p: float) -> np.ndarray:
    """weight[K, k] = p^k (1-p)^(K-k) for k <= K, and 0 past K, by scalar
    powers: the bits of the cell formula.  Read flattened, at the cells'
    ``index`` of ``_color_map_cells``.  Read-only and cached per (n, p): a
    decision reads it twice, in ``color_map_csc`` and in ``push_forward``."""
    weight = np.array([[p ** j * (1.0 - p) ** (big - j) if j <= big else 0.0
                        for j in range(n + 1)] for big in range(n + 1)])
    weight.setflags(write=False)
    return weight


def color_map_exact(n: int, p) -> tuple[np.ndarray, int]:
    """The cells of ``color_map_csc(n, p)`` in exact arithmetic, for
    certificate checks: Python integers in the order of its ``data``, and
    their common denominator.  With p = a/b exactly, cell (k, K) is
    a^k (b-a)^(K-k) b^(n-K) over the denominator b^n."""
    _check_n(n)
    a, b = Fraction(p).as_integer_ratio()
    weight = np.empty((n + 1, n + 1), dtype=object)
    for big in range(n + 1):
        for j in range(big + 1):
            weight[big, j] = a ** j * (b - a) ** (big - j) * b ** (n - big)
    return weight.ravel()[_color_map_cells(n)[2]], b ** n


class PartitionDistribution:
    """A (possibly signed) weight vector q over B_n.

    ``vector[j]`` is the weight of ``enumerate_partitions(n)[j]``, and the
    vector is read-only.  Canonical keys such as '13|2' exist only at the
    boundary: the dict constructor, ``repr`` and the ``weights`` view.
    """

    def __init__(self, n: int, weights: Mapping[str, float], signed: bool = False):
        """From canonical keys; a key left out weighs 0."""
        _check_n(n)
        columns = _key_columns(n)
        vec = np.zeros(BELL[n])
        for key, w in weights.items():
            j = columns.get(key)
            if j is None:
                raise _bad_key(n, key)
            vec[j] = w
        self._freeze(n, vec, signed)

    @staticmethod
    def from_vector(n: int, vec, signed: bool = False) -> "PartitionDistribution":
        """From weights in ``enumerate_partitions(n)`` order (copied)."""
        _check_n(n)
        vec = np.array(vec, dtype=float)
        if vec.shape != (BELL[n],):
            raise ValueError(f"expected vector of length {BELL[n]}, got {vec.shape}")
        q = PartitionDistribution.__new__(PartitionDistribution)
        q._freeze(n, vec, signed)
        return q

    def _freeze(self, n: int, vec: np.ndarray, signed: bool) -> None:
        """Check that vec is finite and sums to 1 (and, unless signed, has no
        negative weight), then keep it, read-only, as this distribution's weights."""
        total = math.fsum(vec.tolist())
        if not abs(total - 1.0) <= 1e-9:    # also refuses nan and inf weights
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if not signed:
            worst = float(vec.min())
            if worst < -PROB_TOL:
                raise ValueError(f"negative weight {worst!r} in unsigned distribution")
        vec.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "signed", bool(signed))

    def __setattr__(self, name, value):
        raise AttributeError(f"PartitionDistribution is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PartitionDistribution):
            return NotImplemented
        return ((self.n, self.signed) == (other.n, other.signed)
                and np.array_equal(self.vector, other.vector))

    __hash__ = None

    def __reduce__(self):
        return PartitionDistribution.from_vector, (self.n, np.array(self.vector), self.signed)

    def __repr__(self) -> str:
        return (f"PartitionDistribution(n={self.n}, weights={dict(self.weights)!r}, "
                f"signed={self.signed})")

    @cached_property
    def weights(self) -> Mapping[str, float]:
        """Read-only {canonical key: weight} over every partition of [n],
        zeros included, in column order."""
        return _keyed(self.n, self.vector)


def _is_number(x) -> bool:
    """A finite JSON number; the json module also reads NaN and Infinity."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _json_entries(obj) -> tuple[int, list[tuple[str, float]]]:
    """The n and the (key, p) entries of a law's parsed JSON.  Raises
    ValueError unless it is an object with an integer n in [1, MAX_N] and a
    list of entries, each an object with a string "key" and a finite number
    "p"."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
    _check_n(n)
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise ValueError(f"entries must be a list, got {entries!r}")
    for e in entries:
        if not (isinstance(e, dict) and isinstance(e.get("key"), str)
                and _is_number(e.get("p"))):
            raise ValueError(f'each entry must be an object with a string "key" and a finite '
                             f'number "p", got {e!r}')
    return n, [(e["key"], float(e["p"])) for e in entries]


def _bad_key(n: int, key: str) -> ValueError:
    """Why ``key`` names no column of B_n."""
    sig = Partition.from_key(key)
    if sig.n != n:
        return ValueError(f"key {key!r} is not a partition of [{n}]")
    return ValueError(f"key {key!r} is not canonical (expected {sig.key!r})")


# ``BinaryLaw.halfwidth`` of an MC law's cell: this many stderr, so sampling
# noise can only soften a verdict to Borderline
RELAX_SIGMA = 3.0
# and of an exact law's cell, its rounding, relative: 8 machine epsilons, where
# the closed-form weights of random color processes with zero weights needed 2.8
ROUNDING_EPS = 8.0 * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class BinaryLaw:
    """A probability vector over {0,1}^n, exact or Monte Carlo.

    ``probs[i]`` is the mass of the string ``index_string(i, n)``; MC laws
    carry a per-cell standard error.  Two laws are equal when n, the cells
    and the stderr (or its absence) are.
    """

    n: int
    probs: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        _check_n(self.n)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} cells, got {probs.shape}")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= 1e-9:    # also refuses nan and inf cells
            raise ValueError(f"cells must sum to 1, got {total!r}")
        if probs.min() < -PROB_TOL:
            raise ValueError(f"negative cell {probs.min()!r}")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.stderr is not None:
            se = np.asarray(self.stderr, dtype=float).copy()
            if se.shape != probs.shape:
                raise ValueError("stderr must match probs shape")
            if not (np.isfinite(se).all() and (se >= 0.0).all()):
                raise ValueError("stderr must be finite and >= 0")
            se.setflags(write=False)
            object.__setattr__(self, "stderr", se)

    def __eq__(self, other):
        if not isinstance(other, BinaryLaw):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.probs, other.probs)
                and (self.stderr is None) == (other.stderr is None)
                and (self.stderr is None or np.array_equal(self.stderr, other.stderr)))

    __hash__ = None

    def cell(self, rho: str) -> float:
        if len(rho) != self.n or any(c not in "01" for c in rho):
            raise ValueError(f"bad pattern {rho!r} for n={self.n}")
        return float(self.probs[string_index(rho)])

    @property
    def halfwidth(self) -> np.ndarray:
        """How far each cell may be from its true value, on either kind of law."""
        if self.stderr is None:
            return ROUNDING_EPS * np.abs(self.probs)
        return RELAX_SIGMA * self.stderr

    def marginals(self) -> np.ndarray:
        """P(X_i = 1) for each coordinate i."""
        return self.probs[_one_cells(self.n)].sum(axis=1)

    @property
    def marginal_p(self) -> float:
        return float(self.marginals().mean())

    def max_marginal_gap(self) -> float:
        m = self.marginals()
        return float(m.max() - m.min())

    def is_zero_one_symmetric(self, tol: float = 1e-9) -> bool:
        flipped = self.probs[::-1]  # index of 1-rho is 2^n-1-index of rho
        return bool(np.max(np.abs(self.probs - flipped)) <= tol)

    def marginalize(self, subset) -> "BinaryLaw":
        """Law of (X_i)_{i in subset}, coordinates relabeled in subset order."""
        s = tuple(sorted(set(subset)))
        if not s or s[0] < 1 or s[-1] > self.n:
            raise ValueError(f"bad subset {subset} for n={self.n}")
        k = len(s)
        submap = _subset_cells(self.n, s)
        out = np.bincount(submap, weights=self.probs, minlength=2 ** k)
        se = None
        if self.stderr is not None:
            # aggregated cells: combine variances
            se = np.sqrt(np.bincount(submap, weights=self.stderr ** 2, minlength=2 ** k))
        return BinaryLaw(k, out, stderr=se)

    def to_json_dict(self) -> dict:
        """The one JSON spelling of a law: n, a {"key", "p"} entry per cell, any stderr."""
        obj = {"n": self.n, "entries": [{"key": index_string(i, self.n), "p": v}
                                        for i, v in enumerate(self.probs.tolist())]}
        if self.stderr is not None:
            obj["stderr"] = self.stderr.tolist()
        return obj

    @staticmethod
    def from_json_dict(obj) -> "BinaryLaw":
        n, entries = _json_entries(obj)
        probs = np.zeros(2 ** n)
        seen = set()
        for key, p in entries:
            if not (len(key) == n and set(key) <= {"0", "1"}):
                raise ValueError(f"key {key!r} is not a string of {n} 0/1 digits")
            if key in seen:
                raise ValueError(f"key {key!r} is given twice")
            seen.add(key)
            probs[string_index(key)] = p
        se = obj.get("stderr")
        if not (se is None or isinstance(se, list) and all(map(_is_number, se))):
            raise ValueError(f"stderr must be a list of finite numbers, got {se!r}")
        return BinaryLaw(n, probs, stderr=None if se is None else np.asarray(se, dtype=float))

    @staticmethod
    def from_counts(counts, m: int) -> "BinaryLaw":
        counts = np.asarray(counts, dtype=float)
        n = int(round(math.log2(len(counts))))
        probs = counts / m
        se = np.sqrt(probs * (1.0 - probs) / m)
        return BinaryLaw(n, probs, stderr=se)


def pattern_counts(bits: np.ndarray) -> np.ndarray:
    """How many rows of the (m, n) boolean array ``bits`` fall in each of the
    2^n cells, a row read as the binary digits of its cell's index."""
    n = bits.shape[1]
    codes = np.zeros(bits.shape[0], dtype=np.uint16)   # 2^MAX_N cells fit
    for i in range(n):
        codes <<= 1
        codes |= bits[:, i]
    return np.bincount(codes, minlength=2 ** n)


@lru_cache(maxsize=None)
def _mc_pool(workers: int) -> ThreadPoolExecutor:
    """The threads that count MC blocks, built on first use."""
    return ThreadPoolExecutor(workers, thread_name_prefix="dcrep-mc")


# a forked child has none of its parent's threads: it builds its own pool
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_mc_pool.cache_clear)


def _normals(rng, out: np.ndarray, uniforms: np.ndarray | None = None) -> np.ndarray:
    """Fill the C-contiguous float64 array ``out`` with standard normals and
    return it: the one Gaussian source of dcrep, Box-Muller (Box & Muller
    1958) in its half-angle tangent form.

    Seed contract: c = ``out.size`` normals come from p = ceil(c/2) pairs,
    whose 2p uniforms are one ``rng.random(2 p)`` call, written to
    ``uniforms`` when it is given (2p entries or more).  Pair j takes U1 from
    uniform j and U2 from uniform p + j, sets R = sqrt(-2 log(1 - U1)) and
    T = tan(pi (U2 - 1/2)), and gives z1 = R (1 - T)(1 + T) / (1 + T^2) =
    R cos(2 pi U2 - pi) and z2 = 2 R T / (1 + T^2) = R sin(2 pi U2 - pi).
    ``out`` in C order holds z1 of every pair, then z2 of the first c - p.

    The factored 1 - T^2 has no cancellation near T = +-1, and 1 - U1 is
    exact, so U1 = 0 gives 0 and the largest |z| is sqrt(106 ln 2), 8.57.
    T is finite on [-pi/2, pi/2): -1.6e16 at U2 = 0.  numpy runs float64
    tan, log and sqrt with vector instructions at 1-2 ns per element, but
    sin and cos through scalar libm at 12-18 ns (``stable._cms`` is written
    on tangents for the same reason), and its ziggurat normals (Marsaglia &
    Tsang 2000) are drawn one at a time, with a branch each: on a 2-core
    x86-64 box with AVX-512 a normal costs 6.7 ns here against 13.5 ns
    there, on one thread.
    """
    c = out.size
    p = c - c // 2
    u = rng.random(2 * p, out=None if uniforms is None else uniforms[:2 * p])
    r, t = u[:p], u[p:]
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t -= 0.5
    t *= math.pi
    np.tan(t, out=t)
    z = out.reshape(c)
    z1, z2 = z[:p], z[p:]
    np.multiply(t, t, out=z1)       # 1 + T^2, in z1 until z1 is written
    z1 += 1.0
    r /= z1                         # R / (1 + T^2)
    np.multiply(r[:c - p], t[:c - p], out=z2)
    z2 *= 2.0
    np.subtract(1.0, t, out=z1)
    t += 1.0
    z1 *= t
    z1 *= r
    return out


def _count_blocks(count, m: int, seed, cells: int) -> np.ndarray:
    """Run ``count(start, k, rng)`` on each block of m MC draws and sum the
    integer counts, each of ``cells`` entries, in block order.

    The m draws come in blocks of ``MC_BLOCK`` rows, the last one partial;
    block i covers rows start = i ``MC_BLOCK`` to start + k.  Block i draws
    from its own stream, ``default_rng`` of child i of
    ``SeedSequence(entropy).spawn(blocks)``, where the entropy is four 32-bit
    words drawn from ``default_rng(seed)`` (a Generator that is passed in
    moves on).  Every block is counted on the ``MC_WORKERS`` threads of one
    pool, at most two blocks per thread queued or running.  So the sum
    depends on (count, m, seed) alone, never on the thread count or the
    scheduling, and memory is bounded by one block per thread.

    One CPU gets a pool of one thread too: counted on the main thread, glibc
    gave each block's freed arrays back to the system and the next block
    faulted them in again, 30 % of a 10^6-row Gaussian law's time.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    blocks = -(-m // MC_BLOCK)
    entropy = np.random.default_rng(seed).integers(2 ** 32, size=4, dtype=np.uint32)
    streams = np.random.SeedSequence(entropy).spawn(blocks)

    def run(i):
        start = i * MC_BLOCK
        return count(start, min(MC_BLOCK, m - start), np.random.default_rng(streams[i]))

    counts = np.zeros(cells, dtype=np.int64)
    pool = _mc_pool(MC_WORKERS)
    queued = deque()
    try:
        for i in range(blocks):
            queued.append(pool.submit(run, i))
            if len(queued) == 2 * MC_WORKERS:
                counts += queued.popleft().result()
        while queued:
            counts += queued.popleft().result()
    finally:
        # on an error, no block is left queued or running
        for future in queued:
            future.cancel()
        wait(queued)
    return counts


def threshold_mc_law(draw, n: int, h: float, m: int, seed) -> BinaryLaw:
    """Monte Carlo threshold law of m draws, with per-cell stderr.

    ``draw(k, rng)`` returns the (k, n) values of one block of
    ``_count_blocks``, which fixes the blocks, their streams and the threads:
    the law depends on (draw, h, m, seed) alone.  ``draw`` runs on a pool
    thread, and its values are counted before that thread draws again.

    Its rows must be draws of a vector X with the law of -X, as centred
    Gaussian and symmetric-stable vectors are.  At h = 0 a block of k rows
    then draws only ceil(k/2) rows x and counts x > 0 for each of them and
    -x > 0, that is x < 0, for the first floor(k/2): antithetic pairs, whose
    law is exactly flip-symmetric when m is even.  A cell's count is
    Binomial(m/2, 2 nu_c) over the pairs, so its variance nu_c(1 - 2 nu_c)/m
    is at most the plug-in stderr^2 nu_c(1 - nu_c)/m of ``from_counts``.
    """
    def count(start, k, rng):
        if h == 0.0:
            x = draw(k - k // 2, rng)
            return pattern_counts(x > 0.0) + pattern_counts(x[:k // 2] < 0.0)
        return pattern_counts(draw(k, rng) > h)

    return BinaryLaw.from_counts(_count_blocks(count, m, seed, 2 ** n), m)


@lru_cache(maxsize=None)
def _one_cells(n: int) -> np.ndarray:
    """Row i lists, ascending, the cells whose coordinate i + 1 is 1."""
    idx = np.arange(2 ** n)
    cells = np.array([idx[(idx >> (n - 1 - i)) & 1 == 1] for i in range(n)])
    cells.setflags(write=False)
    return cells


@lru_cache(maxsize=None)
def _subset_cells(n: int, subset: tuple[int, ...]) -> np.ndarray:
    """The cell of (X_i)_{i in subset} that each cell of X falls in."""
    idx = np.arange(2 ** n)
    k = len(subset)
    cells = np.zeros(2 ** n, dtype=np.int64)
    for j, i in enumerate(subset):
        cells |= ((idx >> (n - i)) & 1) << (k - 1 - j)
    cells.setflags(write=False)
    return cells


def push_forward(q: PartitionDistribution, p: float) -> BinaryLaw:
    """Law of the color process with partition distribution q and bias p:
    the coloring map applied to q.  Each cell's q(sigma) p^k (1-p)^(K-k) is
    added into its row in the cells' (column, row) order, the order in which
    ``color_map_csc(q.n, p) @ q.vector`` adds them, so the two agree bit for
    bit."""
    if q.signed or q.vector.min() < -PROB_TOL:
        raise ValueError("push_forward requires a probability distribution over partitions")
    indptr, rows, index = _color_map_cells(q.n)
    mass = np.repeat(q.vector, np.diff(indptr)) * _coloring_weights(q.n, p).ravel()[index]
    return BinaryLaw(q.n, np.bincount(rows, weights=mass, minlength=2 ** q.n))


@lru_cache(maxsize=None)
def _restriction_columns(n: int, subset: tuple[int, ...]) -> np.ndarray:
    """Column in B_|subset| of the induced partition of each column of B_n,
    ``subset``'s elements renumbered in the order given (a permutation too).

    The table's labels on ``subset`` name the induced partition; relabelled
    in order of first occurrence they are its restricted-growth labels."""
    labels = _partition_table(n).labels[:, np.array(subset) - 1]
    relabelled = np.zeros_like(labels)
    blocks = np.ones(len(labels), dtype=labels.dtype)    # blocks seen so far
    rows = np.arange(len(labels))
    for j in range(1, labels.shape[1]):
        same = labels[:, :j] == labels[:, j:j + 1]
        earlier = same.argmax(axis=1)   # the first earlier element in j's block
        new = ~same.any(axis=1)
        relabelled[:, j] = np.where(new, blocks, relabelled[rows, earlier])
        blocks += new
    cols = _partition_table(len(subset)).rank_columns[_rg_ranks(relabelled)]
    cols.setflags(write=False)
    return cols


def marginalize_partition(q: PartitionDistribution, subset) -> PartitionDistribution:
    """Distribution of the induced partition on ``subset`` (relabeled)."""
    s = tuple(sorted(set(subset)))
    if not s:
        raise ValueError("subset must be nonempty")
    if s[0] < 1 or s[-1] > q.n:
        raise ValueError(f"subset {list(s)} not within [{q.n}]")
    vec = np.bincount(_restriction_columns(q.n, s), weights=q.vector, minlength=BELL[len(s)])
    return PartitionDistribution.from_vector(len(s), vec, signed=q.signed)


GUIDE_MAX = 1 << 20   # guide-table cells of ``_guide``


def _guide(masses: np.ndarray) -> np.ndarray:
    """Turn ``masses`` into their normalized CDF, in place, and return its
    guide table, for ``_categorical``.  Both are read-only to the draws, so
    one law builds them once for all its blocks.

    ``rng.choice`` looks up each uniform u in this CDF by binary search.  The
    guide table (Chen & Asau 1974) covers [0, 1) with K = 2^k > 8 len(masses)
    equal cells, at most ``GUIDE_MAX``, and holds, per cell, the first index
    whose CDF value exceeds the cell's left end, as intp.  A color process
    has at most 2^MAX_N masses, so its table has at most 8,192 cells; the cap
    binds only on longer inputs, whose table it keeps at 8 MiB.
    """
    cdf = np.cumsum(masses, out=masses)
    cdf /= cdf[-1]
    k = min(1 << (8 * len(cdf)).bit_length(), GUIDE_MAX)
    return np.searchsorted(cdf, np.arange(k) / k, side="right")


def _categorical(cdf: np.ndarray, guide: np.ndarray, k: int, rng) -> np.ndarray:
    """k draws of an index from the CDF and guide table of ``_guide``: the
    same uniforms and the same indices as ``rng.choice(len(w), size=k, p=w)``
    over the masses w.

    u K is exact, so the guide cell of a uniform u holds a lower bound of its
    index, and that is the index unless the CDF steps again inside the cell
    before u: at most about one uniform in 16 (more once the cap binds, past
    131,072 masses).  Such a uniform steps one index on, and only if the CDF
    steps twice in the cell before it does it take the binary search.  A
    step never passes the last index, whose CDF value 1 exceeds every u.
    """
    u = rng.random(k)
    idx = guide[(u * len(guide)).astype(np.intp)]
    later = np.flatnonzero(cdf[idx] <= u)
    idx[later] += 1
    later = later[cdf[idx[later]] <= u[later]]
    idx[later] = np.searchsorted(cdf, u[later], side="right")
    return idx


def simulate_color_process(q: PartitionDistribution, p: float, m: int, seed):
    """Draw m color-process samples; returns (samples, empirical BinaryLaw).

    ``samples`` is an (m, n) 0/1 uint8 array.  The samples are iid draws from
    the law nu = ``push_forward(q, p)``, so each takes one uniform: a
    categorical draw over nu's cells of positive mass, at most 2^n, in index
    order (table sampling of a discrete law, Devroye 1986, ch. III).  Cells
    of zero mass add no step to the CDF, so dropping them changes no draw.

    The draws come in the blocks of ``_count_blocks``, on its pool and its
    per-block streams, so the samples and the law depend on (q, p, m, seed)
    alone, never on the thread count.  Block i is ``rng_i.choice`` over nu's
    positive cells: it copies each drawn cell's row of a (cells, n) string
    table into its own rows of ``samples``, and counts the cells with one
    ``bincount``.  The CDF and its guide table are built once and shared by
    every block.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if q.signed:
        raise ValueError("cannot simulate a signed distribution")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    n = q.n
    nu = push_forward(q, p).probs
    cells = np.flatnonzero(nu > 0.0)
    cdf = nu[cells]
    guide = _guide(cdf)
    strings = ((cells[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    samples = np.empty((m, n), dtype=np.uint8)

    def count(start, k, rng):
        idx = _categorical(cdf, guide, k, rng)
        # mode "clip" writes in place, where "raise" buffers ``out`` (the indices are valid)
        np.take(strings, idx, axis=0, out=samples[start:start + k], mode="clip")
        return np.bincount(idx, minlength=len(cells))

    counts = np.zeros(2 ** n, dtype=np.int64)
    counts[cells] = _count_blocks(count, m, seed, len(cells))
    return samples, BinaryLaw.from_counts(counts, m)
