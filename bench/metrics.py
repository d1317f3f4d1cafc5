"""Metric names, units and how each is computed from one run's records.

``END_TO_END`` and ``PER_LAYER`` are the lists BENCHMARK.json declares; the
self-test checks that the two agree.
"""

from __future__ import annotations

import statistics

# name -> (unit, better)
END_TO_END = {
    "work_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# What work_per_s counts on each workload, under the name the summary prints.
WORK = {
    "decide": ("decisions_per_s", "decisions/s"),
    "decide_mc": ("decisions_per_s", "decisions/s"),
    "verify": ("verified_samples_per_s", "samples/s"),
    "cli": ("scan_points_per_s", "rows/s"),
}

PER_LAYER = {
    "simplex.phase_one.calls": ("count", "lower"),
    "simplex.phase_one.busy_s": ("s", "lower"),
    "simplex.phase_one.self_s": ("s", "lower"),
    "simplex.phase_one.pivots": ("count", "lower"),
    "simplex.phase_one.rows": ("count", "lower"),
    "simplex.phase_one.cols": ("count", "lower"),
    "simplex.phase_one_exact.calls": ("count", "lower"),
    "simplex.phase_one_exact.busy_s": ("s", "lower"),
    "solver.lp_feasibility.calls": ("count", "lower"),
    "solver.lp_feasibility.busy_s": ("s", "lower"),
    "solver.lp_feasibility.self_s": ("s", "lower"),
    "solver.lp_feasibility.route.strict": ("count", "higher"),
    "solver.lp_feasibility.route.relaxed": ("count", "lower"),
    "solver.lp_feasibility.route.exact": ("count", "lower"),
    "solver.square_circle_solver.busy_s": ("s", "lower"),
    "partitions.color_map.calls": ("count", "lower"),
    "partitions.color_map.busy_s": ("s", "lower"),
    "partitions.color_map_exact.busy_s": ("s", "lower"),
    "partitions.enumerate_partitions.first_call_s": ("s", "lower"),
    "partitions.push_forward.busy_s": ("s", "lower"),
    "partitions.simulate_color_process.samples": ("count", "higher"),
    "partitions.simulate_color_process.busy_s": ("s", "lower"),
    "partitions.simulate_color_process.samples_per_s": ("1/s", "higher"),
    "gaussian.threshold_law_mc.samples": ("count", "higher"),
    "gaussian.threshold_law_mc.busy_s": ("s", "lower"),
    "gaussian.threshold_law_mc.samples_per_s": ("1/s", "higher"),
    "stable.stable_threshold_law_mc.samples": ("count", "higher"),
    "stable.stable_threshold_law_mc.busy_s": ("s", "lower"),
    "stable.stable_threshold_law_mc.samples_per_s": ("1/s", "higher"),
    "gaussian.square_threshold_law_exact.busy_s": ("s", "lower"),
    "gaussian.ab_cov.calls": ("count", "lower"),
    "gaussian.ab_cov.busy_s": ("s", "lower"),
    "embeddings.ou_partition_batch.samples_per_s": ("1/s", "higher"),
    "embeddings.stable_chain_partition_batch.samples_per_s": ("1/s", "higher"),
    "embeddings.ou_star_partition_batch.samples_per_s": ("1/s", "higher"),
    "embeddings.stable_star_partition_batch.samples_per_s": ("1/s", "higher"),
    "embeddings.verify_color_property.calls": ("count", "lower"),
    "embeddings.verify_color_property.busy_s": ("s", "lower"),
    "embeddings.verify_color_property.self_s": ("s", "lower"),
    "embeddings.verify_color_property.bins_tested": ("count", "higher"),
    "embeddings.verify_color_property.bins_excluded": ("count", "lower"),
    "embeddings.empirical_partition_distribution.busy_s": ("s", "lower"),
    "conditions.ab_region_classify.calls": ("count", "lower"),
    "conditions.ab_region_classify.busy_s": ("s", "lower"),
    "conditions.classify_large_h_3.calls": ("count", "lower"),
    "conditions.classify_large_h_3.busy_s": ("s", "lower"),
    "conditions.is_dgff.calls": ("count", "lower"),
    "conditions.is_dgff.busy_s": ("s", "lower"),
    "asymptotics.small_h_limits_3.busy_s": ("s", "lower"),
    "asymptotics.stable_order2_limit_101_symmetric.busy_s": ("s", "lower"),
    "cli.main.scan.self_s": ("s", "lower"),
    "cli.main.analyze.self_s": ("s", "lower"),
    "cli.main.solve.self_s": ("s", "lower"),
    "cli.main.simulate.self_s": ("s", "lower"),
    "cli.main.asymptotics.self_s": ("s", "lower"),
    "cli.scan.rows": ("count", "higher"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10 samples above it.

    That is the 11th largest value; with 10 or fewer samples it is the largest.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# Median time of calibration.calibration_unit in its sibling process on the box
# the benchmark was written on (2-core x86-64 Linux, Python 3.11, numpy 2.4),
# with little else running.
CAL_REF_S = 0.0034
CAL_NEAREST = 3  # calibration samples nearest in time that rescale one operation


def rescale(records: list[dict]) -> list[dict]:
    """Records with ``elapsed_s`` put on the reference scale.

    A shared machine runs a quarter slower for tens of seconds at a time.
    Calibration units timed between operations, in a sibling process, slow
    down with it, so each time is multiplied by CAL_REF_S over the median of
    the CAL_NEAREST calibration times taken nearest to its midpoint;
    ``wall_s`` keeps the measured time.
    """
    samples = [(r["cal_at_s"], r["cal_s"]) for r in records if r["cal_s"] is not None]
    out = []
    for r in records:
        mid = r["at_s"] + r["elapsed_s"] / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:CAL_NEAREST]
        cal = statistics.median(c for _, c in near)
        out.append({**r, "wall_s": r["elapsed_s"], "elapsed_s": r["elapsed_s"] * CAL_REF_S / cal})
    return out


def end_to_end(records: list[dict], peak_rss_mb: float, setup_s: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run, over every timed sample."""
    times = [r["elapsed_s"] for r in records]
    counted = [r for r in records if r["throughput"]]
    busy = sum(r["elapsed_s"] for r in counted)
    work = sum(r["work"] for r in counted if r["problem"] is None)
    return {
        "work_per_s": work / busy,
        "op_p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(summary: dict, counts: dict, plain: list[dict], traced: list[dict],
              spans: int) -> dict[str, float]:
    """Per-layer metrics of a traced run; layers a workload never calls read 0."""
    out = {name: 0.0 for name in PER_LAYER}
    for span, row in summary.items():
        for field in ("calls", "busy_s", "self_s"):
            if f"{span}.{field}" in out:
                out[f"{span}.{field}"] = float(row[field])
    for name, value in counts.items():
        if name in out:
            out[name] = float(value)
    for name, samples in counts.items():
        if name.endswith(".samples") and f"{name}_per_s" in out:
            busy = summary.get(name.removesuffix(".samples"), {}).get("busy_s", 0.0)
            out[f"{name}_per_s"] = samples / busy if busy > 0 else 0.0
    out["cli.scan.rows"] = float(sum(r["work"] for r in traced
                                     if r["tags"].get("subcommand") == "scan"))
    plain_s = sum(r["elapsed_s"] for r in plain)
    traced_s = sum(r["elapsed_s"] for r in traced)
    out["trace.ops"] = float(len(traced))
    out["trace.spans"] = float(spans)
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return out
