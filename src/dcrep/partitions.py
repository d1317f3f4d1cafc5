"""Set partitions of [n] and the linear map from partition distributions to
{0,1}^n laws.

A partition distribution q together with a coin bias p induces a law nu on
binary strings: pick a partition, then color each block 1 with probability p,
independently across blocks.  ``color_map`` materializes that map as a
2^n x Bell(n) column-stochastic matrix, ``push_forward`` applies it, and
``simulate_color_process`` samples from it.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .rng import make_rng

MAX_N = 12
PROB_TOL = 1e-12

# Bell numbers B_0..B_12.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)

# Largest n for the dense coloring map (2^8 x 4140).
DENSE_N_MAX = 8


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
        """Canonical string key, e.g. '13|2' (1-based digits; needs n <= 9)."""
        if self.n > 9:
            raise ValueError("string keys are only defined for n <= 9")
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
    """All of B_n exactly once, sorted by canonical key.

    The order is what fixes LP column indexing, so it must never change.
    """
    _check_n(n)
    out = []

    def grow(i: int, blocks: list[list[int]]) -> None:
        if i > n:
            out.append(Partition.of([tuple(b) for b in blocks]))
            return
        for b in blocks:
            b.append(i)
            grow(i + 1, blocks)
            b.pop()
        blocks.append([i])
        grow(i + 1, blocks)
        blocks.pop()

    grow(1, [])
    assert len(out) == BELL[n]
    return tuple(sorted(out, key=lambda sig: sig.blocks))


@lru_cache(maxsize=None)
def partition_index(n: int) -> dict[tuple, int]:
    """Map canonical block tuple -> column index in ``enumerate_partitions``."""
    return {sig.blocks: j for j, sig in enumerate(enumerate_partitions(n))}


def string_index(rho: str) -> int:
    """Row index of a binary string; the first coordinate is the high bit."""
    return int(rho, 2)


def index_string(idx: int, n: int) -> str:
    return format(idx, f"0{n}b")


def _column_cells(sig: Partition, n: int):
    """Yield (row, #blocks colored 1) for the strings constant on sig's blocks."""
    bits = [sum(1 << (n - i) for i in b) for b in sig.blocks]
    for colors in itertools.product((0, 1), repeat=len(bits)):
        row = sum(bit for bit, c in zip(bits, colors) if c)
        yield row, sum(colors)


def color_map(n: int, p: float) -> np.ndarray:
    """Dense 2^n x Bell(n) matrix of the coloring map at bias p.

    Column sigma puts weight p^k (1-p)^(K-k) on each string that colors k of
    sigma's K blocks 1; every column sums to 1.
    """
    _check_n(n)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0,1), got {p}")
    if n > DENSE_N_MAX:
        raise ValueError(f"color_map is limited to n <= {DENSE_N_MAX}, got {n}")
    sigs = enumerate_partitions(n)
    mat = np.zeros((2 ** n, len(sigs)))
    for j, sig in enumerate(sigs):
        kk = sig.num_blocks
        for row, k in _column_cells(sig, n):
            mat[row, j] = p ** k * (1.0 - p) ** (kk - k)
    return mat


def color_map_exact(n: int, p: Fraction) -> list[list[Fraction]]:
    """Fraction-valued coloring map (row-major), for exact certificate checks."""
    _check_n(n)
    p = Fraction(p)
    sigs = enumerate_partitions(n)
    rows = [[Fraction(0)] * len(sigs) for _ in range(2 ** n)]
    q1 = 1 - p
    for j, sig in enumerate(sigs):
        kk = sig.num_blocks
        for row, k in _column_cells(sig, n):
            rows[row][j] = p ** k * q1 ** (kk - k)
    return rows


@dataclass(frozen=True)
class PartitionDistribution:
    """A (possibly signed) weight vector q over B_n, keyed by canonical key."""

    n: int
    weights: dict[str, float]
    signed: bool = False

    def __post_init__(self):
        _check_n(self.n)
        for key in self.weights:
            sig = Partition.from_key(key)
            if sig.n != self.n:
                raise ValueError(f"key {key!r} is not a partition of [{self.n}]")
            if sig.key != key:
                raise ValueError(f"key {key!r} is not canonical (expected {sig.key!r})")
        total = math.fsum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if not self.signed:
            worst = min(self.weights.values(), default=0.0)
            if worst < -PROB_TOL:
                raise ValueError(f"negative weight {worst!r} in unsigned distribution")

    @staticmethod
    def from_vector(n: int, vec, signed: bool = False) -> "PartitionDistribution":
        sigs = enumerate_partitions(n)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(sigs),):
            raise ValueError(f"expected vector of length {len(sigs)}, got {vec.shape}")
        return PartitionDistribution(
            n, {sig.key: float(w) for sig, w in zip(sigs, vec)}, signed=signed)

    def as_vector(self) -> np.ndarray:
        sigs = enumerate_partitions(self.n)
        return np.array([self.weights.get(sig.key, 0.0) for sig in sigs])

    def weight(self, key: str) -> float:
        return self.weights.get(Partition.from_key(key).key, 0.0)

    def support(self) -> list[str]:
        return [k for k, w in sorted(self.weights.items()) if abs(w) > PROB_TOL]

    def to_json(self) -> str:
        entries = [{"key": sig.key, "q": self.weights.get(sig.key, 0.0)}
                   for sig in enumerate_partitions(self.n)]
        return json.dumps({"n": self.n, "signed": self.signed, "entries": entries})

    @staticmethod
    def from_json(text: str) -> "PartitionDistribution":
        obj = json.loads(text)
        weights = {e["key"]: float(e["q"]) for e in obj["entries"]}
        return PartitionDistribution(int(obj["n"]), weights,
                                     signed=bool(obj.get("signed", False)))


@dataclass(frozen=True)
class BinaryLaw:
    """A probability vector over {0,1}^n, exact or Monte Carlo.

    ``probs[i]`` is the mass of the string ``index_string(i, n)``; MC laws
    carry a per-cell standard error.
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
        if abs(total - 1.0) > 1e-9:
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
            se.setflags(write=False)
            object.__setattr__(self, "stderr", se)

    @property
    def is_mc(self) -> bool:
        return self.stderr is not None

    def cell(self, rho: str) -> float:
        if len(rho) != self.n or any(c not in "01" for c in rho):
            raise ValueError(f"bad pattern {rho!r} for n={self.n}")
        return float(self.probs[string_index(rho)])

    def cell_stderr(self, rho: str) -> float:
        if self.stderr is None:
            return 0.0
        return float(self.stderr[string_index(rho)])

    def marginals(self) -> np.ndarray:
        """P(X_i = 1) for each coordinate i."""
        idx = np.arange(2 ** self.n)
        return np.array([
            self.probs[(idx >> (self.n - 1 - i)) & 1 == 1].sum()
            for i in range(self.n)
        ])

    @property
    def marginal_p(self) -> float:
        return float(self.marginals().mean())

    def max_marginal_gap(self) -> float:
        m = self.marginals()
        return float(m.max() - m.min())

    def equal_marginals(self, tol: float = 1e-9) -> bool:
        return self.max_marginal_gap() <= tol

    def is_zero_one_symmetric(self, tol: float = 1e-9) -> bool:
        flipped = self.probs[::-1]  # index of 1-rho is 2^n-1-index of rho
        return bool(np.max(np.abs(self.probs - flipped)) <= tol)

    def marginalize(self, subset) -> "BinaryLaw":
        """Law of (X_i)_{i in subset}, coordinates relabeled in subset order."""
        s = sorted(set(subset))
        if not s or s[0] < 1 or s[-1] > self.n:
            raise ValueError(f"bad subset {subset} for n={self.n}")
        k = len(s)
        shifts = [self.n - i for i in s]  # bit index (from LSB) of each kept coord
        submap = np.zeros(2 ** self.n, dtype=np.int64)
        for idx in range(2 ** self.n):
            sub = 0
            for j, sh in enumerate(shifts):
                sub |= ((idx >> sh) & 1) << (k - 1 - j)
            submap[idx] = sub
        out = np.zeros(2 ** k)
        np.add.at(out, submap, self.probs)
        se = None
        if self.stderr is not None:
            var = np.zeros(2 ** k)  # aggregated cells: combine variances
            np.add.at(var, submap, self.stderr ** 2)
            se = np.sqrt(var)
        return BinaryLaw(k, out, stderr=se)

    def to_json(self) -> str:
        entries = [{"key": index_string(i, self.n), "p": float(v)}
                   for i, v in enumerate(self.probs)]
        obj = {"n": self.n, "entries": entries}
        if self.stderr is not None:
            obj["stderr"] = [float(v) for v in self.stderr]
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "BinaryLaw":
        obj = json.loads(text)
        n = int(obj["n"])
        probs = np.zeros(2 ** n)
        for e in obj["entries"]:
            probs[string_index(e["key"])] = float(e["p"])
        se = obj.get("stderr")
        return BinaryLaw(n, probs, stderr=None if se is None else np.asarray(se))

    @staticmethod
    def from_counts(counts, m: int) -> "BinaryLaw":
        counts = np.asarray(counts, dtype=float)
        n = int(round(math.log2(len(counts))))
        probs = counts / m
        se = np.sqrt(probs * (1.0 - probs) / m)
        return BinaryLaw(n, probs, stderr=se)


def push_forward(q: PartitionDistribution, p: float) -> BinaryLaw:
    """Law of the color process with partition distribution q and bias p."""
    if q.signed or min(q.weights.values(), default=0.0) < -PROB_TOL:
        raise ValueError("push_forward requires a probability distribution over partitions")
    n = q.n
    probs = np.zeros(2 ** n)
    for key, w in q.weights.items():
        if w == 0.0:
            continue
        sig = Partition.from_key(key)
        kk = sig.num_blocks
        for row, k in _column_cells(sig, n):
            probs[row] += w * p ** k * (1.0 - p) ** (kk - k)
    return BinaryLaw(n, probs)


def marginalize_partition(q: PartitionDistribution, subset) -> PartitionDistribution:
    """Distribution of the induced partition on ``subset`` (relabeled)."""
    s = sorted(set(subset))
    if not s:
        raise ValueError("subset must be nonempty")
    out: dict[str, float] = {}
    for key, w in q.weights.items():
        restricted = Partition.from_key(key).restrict(s).key
        out[restricted] = out.get(restricted, 0.0) + w
    return PartitionDistribution(len(s), out, signed=q.signed)


def simulate_color_process(q: PartitionDistribution, p: float, m: int, seed):
    """Draw m color-process samples; returns (samples, empirical BinaryLaw).

    Deterministic given seed.  ``samples`` is an (m, n) 0/1 array.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if q.signed:
        raise ValueError("cannot simulate a signed distribution")
    rng = make_rng(seed)
    n = q.n
    keys = sorted(k for k, w in q.weights.items() if w > 0.0)
    weights = np.array([q.weights[k] for k in keys])
    weights = weights / weights.sum()
    which = rng.choice(len(keys), size=m, p=weights)
    samples = np.zeros((m, n), dtype=np.uint8)
    for j, key in enumerate(keys):
        rows = np.nonzero(which == j)[0]
        if rows.size == 0:
            continue
        sig = Partition.from_key(key)
        colors = (rng.random((rows.size, sig.num_blocks)) < p)
        for b, block in enumerate(sig.blocks):
            for i in block:
                samples[rows, i - 1] = colors[:, b]
    pow2 = 1 << np.arange(n - 1, -1, -1)
    counts = np.bincount(samples @ pow2, minlength=2 ** n)
    return samples, BinaryLaw.from_counts(counts, m)
