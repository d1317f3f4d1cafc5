"""Spans around calls into dcrep's layers, recorded from the benchmark's side.

``Tracer.install`` replaces module-level public functions with timing
wrappers at the name their caller looks up (``dcrep.solver.phase_one`` is
what ``lp_feasibility`` calls); ``uninstall`` puts the originals back.
Per-sample helpers such as ``Partition.of`` and ``EmbeddingBatch._key`` are
left alone, so the overhead stays per call, not per sample.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# A counter sees (tracer, args, result, seconds) after each call of its target.


def _phase_one_counts(tracer, args, result, seconds):
    rows, cols = args[0].shape
    tracer.counts["simplex.phase_one.pivots"] += result.pivots
    tracer.counts["simplex.phase_one.rows"] += rows
    tracer.counts["simplex.phase_one.cols"] += cols


def _route_counts(tracer, args, result, seconds):
    if result.detail.get("mode") == "exact":
        route = "exact"
    elif "relaxed_objective" in result.detail:
        route = "relaxed"
    else:
        route = "strict"
    tracer.counts[f"solver.lp_feasibility.route.{route}"] += 1


def _samples(name, index):
    def count(tracer, args, result, seconds):
        tracer.counts[name] += args[index]
    return count


def _bins(tracer, args, result, seconds):
    tracer.counts["embeddings.verify_color_property.bins_tested"] += len(result.bins)
    tracer.counts["embeddings.verify_color_property.bins_excluded"] += len(result.excluded_bins)


def _first_call(tracer, args, result, seconds):
    """Time of the first enumeration of each n: the lazy build, before the cache."""
    if ("enumerate_partitions", args[0]) not in tracer.seen:
        tracer.seen.add(("enumerate_partitions", args[0]))
        tracer.counts["partitions.enumerate_partitions.first_call_s"] += seconds


# (module, attribute, span name, counter) -- one row per name a caller looks up
TARGETS = [
    ("dcrep.solver", "phase_one", "simplex.phase_one", _phase_one_counts),
    ("dcrep.solver", "phase_one_exact", "simplex.phase_one_exact", None),
    ("dcrep.solver", "lp_feasibility", "solver.lp_feasibility", _route_counts),
    ("dcrep.cli", "lp_feasibility", "solver.lp_feasibility", _route_counts),
    ("dcrep.solver", "square_circle_solver", "solver.square_circle_solver", None),
    ("dcrep.cli", "square_circle_solver", "solver.square_circle_solver", None),
    ("dcrep.solver", "color_map", "partitions.color_map", None),
    ("dcrep.solver", "color_map_exact", "partitions.color_map_exact", None),
    ("dcrep.partitions", "enumerate_partitions", "partitions.enumerate_partitions", _first_call),
    ("dcrep.solver", "enumerate_partitions", "partitions.enumerate_partitions", _first_call),
    ("dcrep.embeddings", "push_forward", "partitions.push_forward", None),
    ("dcrep.solver", "push_forward", "partitions.push_forward", None),
    ("dcrep.partitions", "simulate_color_process", "partitions.simulate_color_process",
     _samples("partitions.simulate_color_process.samples", 2)),
    ("dcrep.cli", "simulate_color_process", "partitions.simulate_color_process",
     _samples("partitions.simulate_color_process.samples", 2)),
    ("dcrep.gaussian", "threshold_law_mc", "gaussian.threshold_law_mc",
     _samples("gaussian.threshold_law_mc.samples", 2)),
    ("dcrep.cli", "threshold_law_mc", "gaussian.threshold_law_mc",
     _samples("gaussian.threshold_law_mc.samples", 2)),
    ("dcrep.stable", "stable_threshold_law_mc", "stable.stable_threshold_law_mc",
     _samples("stable.stable_threshold_law_mc.samples", 2)),
    ("dcrep.cli", "square_threshold_law_exact", "gaussian.square_threshold_law_exact", None),
    ("dcrep.conditions", "ab_cov", "gaussian.ab_cov", None),
    ("dcrep.embeddings", "ou_partition_batch", "embeddings.ou_partition_batch",
     _samples("embeddings.ou_partition_batch.samples", 2)),
    ("dcrep.embeddings", "stable_chain_partition_batch", "embeddings.stable_chain_partition_batch",
     _samples("embeddings.stable_chain_partition_batch.samples", 3)),
    ("dcrep.embeddings", "ou_star_partition_batch", "embeddings.ou_star_partition_batch",
     _samples("embeddings.ou_star_partition_batch.samples", 2)),
    ("dcrep.embeddings", "stable_star_partition_batch", "embeddings.stable_star_partition_batch",
     _samples("embeddings.stable_star_partition_batch.samples", 3)),
    ("dcrep.embeddings", "verify_color_property", "embeddings.verify_color_property", _bins),
    ("dcrep.embeddings.EmbeddingBatch", "empirical_partition_distribution",
     "embeddings.empirical_partition_distribution", None),
    ("dcrep.conditions", "ab_region_classify", "conditions.ab_region_classify", None),
    ("dcrep.conditions", "classify_large_h_3", "conditions.classify_large_h_3", None),
    ("dcrep.conditions", "is_dgff", "conditions.is_dgff", None),
    ("dcrep.asymptotics", "small_h_limits_3", "asymptotics.small_h_limits_3", None),
    ("dcrep.asymptotics", "stable_order2_limit_101_symmetric",
     "asymptotics.stable_order2_limit_101_symmetric", None),
    ("dcrep.cli", "main", "cli.main", None),
]


def _owner(path: str):
    """The module, or the class inside a module, that holds the attribute."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(mod), cls)


class Tracer:
    """Span recorder.  A span is (name id, start, end, parent span index, op id)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: set = set()
        self.op_id = -1          # -1: set-up, before the first operation
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, func, name: str, count):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            nid = name_id
            if name == "cli.main":  # one span name per subcommand
                argv = args[0] if args else kwargs.get("argv") or []
                nid = self._name_id(f"cli.main.{argv[0] if argv else 'none'}")
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.op_id)
            if count is not None:
                count(self, args, result, end - start)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for path, attr, name, count in TARGETS:
            owner = _owner(path)
            func = owner.__dict__[attr]
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, func = self._saved.pop()
            setattr(owner, attr, func)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (self._name_id(name), start, perf_counter(), parent, self.op_id)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name over the operations (op id >= 0): calls, busy and self time."""
        child = defaultdict(float)
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (nid, start, end, parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            row = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [list(s) for s in self.spans]}
