"""One benchmark process: import dcrep from the checkout, set up, run, report.

Started by run.py, never by hand.  It prints ``@@ready`` once set-up is done
(run.py times set-up from process start to that line) and, unless it is only
a set-up probe, one ``@@result <json>`` line at the end.

The closed loop has one caller that issues one operation at a time.  An
untraced run repeats the seed's round of operations until ``--seconds`` have
passed.  A traced run measures the round once, so its counts repeat exactly;
each operation runs once untraced and once traced, in alternating order, and
the difference of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import dcrep  # noqa: E402  (the checkout's copy, by the path set above)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import stats  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402

CAL_EVERY_S = 0.25   # calibrate after an operation once this long has passed

LAZY_N = {"decide": range(3, 8), "decide_mc": range(3, 7), "verify": range(3, 7),
          "cli": range(3, 6)}


class DeadlineExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise DeadlineExceeded()


def lazy_builds(workload: str) -> None:
    """What a fresh process builds before its first operation of this workload."""
    for n in LAZY_N[workload]:
        dcrep.partitions.color_map(n, 0.5)
    stats.chi2.sf(1.0, 1)
    dcrep.cli.build_parser()


def execute(op, deadline: float, tracer: Tracer | None = None) -> tuple[dict, object]:
    """Time one operation, then check it outside the timed region."""
    result, problem = None, None
    with tracer.span("bench.op") if tracer else nullcontext():
        start = perf_counter()
        try:
            try:
                if op.deadline:
                    signal.setitimer(signal.ITIMER_REAL, deadline)
                result = op.call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            problem = f"missed the {deadline:g} s deadline"
        except Exception as exc:  # the operation failed; record it and go on
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    if problem is None and op.deadline and elapsed > deadline:
        problem = f"missed the {deadline:g} s deadline ({elapsed:.2f} s)"
    work = 0.0
    if problem is None:
        try:
            problem, work = op.check(result)
        except Exception as exc:  # malformed output is a failed check
            problem = f"check raised {type(exc).__name__}: {exc}"
    record = {"op": op.name, "elapsed_s": elapsed, "problem": problem,
              "work": work if problem is None else 0.0,
              "throughput": op.throughput, "tags": op.tags}
    return record, result


def closed_loop(workload: str, seed: int, seconds: float, tmpdir: str,
                calibrator: Calibrator) -> tuple[list, int]:
    """Repeat the seed's round of operations until ``seconds`` have passed.

    Every CAL_EVERY_S, between operations and outside their timed regions,
    the sibling calibration process times one calibration unit;
    metrics.rescale puts each operation's time on the reference scale.
    """
    ops = workloads.round_ops(workload, seed, tmpdir)
    records, reps = [], 0
    start = last_cal = perf_counter()
    while reps == 0 or perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            at = perf_counter() - start
            record = {**execute(op, workloads.DEADLINE_S)[0], "index": index, "rep": reps,
                      "at_s": at, "cal_s": None, "cal_at_s": None}
            if perf_counter() - last_cal >= CAL_EVERY_S:
                record["cal_at_s"] = perf_counter() - start
                record["cal_s"] = calibrator.time_unit()
                last_cal = perf_counter()
            records.append(record)
        reps += 1
    return records, reps


def traced_loop(workload: str, seed: int, tmpdir: str, tracer: Tracer):
    """One round, each operation once untraced and once traced, alternating which first."""
    plain, traced = [], []
    for op_id, op in enumerate(workloads.round_ops(workload, seed, tmpdir)):
        for with_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op_id = op_id
                tracer.install()
                try:
                    traced.append(execute(op, workloads.DEADLINE_S, tracer)[0])
                finally:
                    tracer.uninstall()
            else:
                plain.append(execute(op, workloads.DEADLINE_S)[0])
    return plain, traced


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{var: os.environ.get(var, "unset") for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "dcrep": dcrep.__file__,
        "calibration_ref_s": metrics.CAL_REF_S,
        "seed": args.seed,
        "sizes": workloads.sizes(args.workload),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true", help="set up, report ready, exit")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args()

    if not Path(dcrep.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dcrep imported from {dcrep.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    lazy_builds(args.workload)
    if tracer:
        tracer.uninstall()
    print("@@ready", flush=True)
    if args.probe:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=ROOT / "bench" / "results")
    try:
        out = {"provenance": provenance(args)}
        if tracer:
            plain, traced = traced_loop(args.workload, args.seed, tmpdir, tracer)
            out["records"] = plain + traced
            out["per_layer"] = metrics.per_layer(tracer.summary(), tracer.counts, plain,
                                                 traced, len(tracer.spans))
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump(tracer.dump(), fh)
        else:
            with Calibrator() as calibrator:
                out["records"], out["reps"] = closed_loop(args.workload, args.seed,
                                                            args.seconds, tmpdir, calibrator)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["known_defects"] = [execute(op, workloads.DEADLINE_S)[0]
                                for op in workloads.known_defect_ops(args.workload, args.seed)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("@@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
