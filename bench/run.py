"""dcrep benchmark: one workload (or all four in turn), one seed, one run.

    python3 bench/run.py --workload decide --seed 1 --seconds 12 --trace 0

Run from the root of a dcrep checkout; dcrep is imported from its ``src``.
Set-up is timed in fresh processes: SETUP_PROBES probes that only set up,
then the worker that also runs the workload, then SETUP_PROBES more probes;
``setup_s`` is the median of all of them, each rescaled by calibration units
timed just before it (see calibration.py).  The worker repeats the seed's
round of operations for ``--seconds``; the end-to-end metrics are taken over
every timed operation of every repeat.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  A human-readable summary precedes it, and the whole result,
with provenance, every sample and the known-defect probes, goes to
``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from calibration import Calibrator  # noqa: E402

WORKLOADS = ("decide", "decide_mc", "verify", "cli")
# Set-up probes before and after the worker.  Set-up of about 1.2 s drifts by
# half over tens of seconds on a shared machine.  Samples spread over the whole
# run let the median ride out short bursts; rescaling each by calibration units
# timed just before it takes out the slower stretches that outlast a run.
SETUP_PROBES = 2
CAL_PER_SETUP = 3
PROBE_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 150.0
# One BLAS thread: the closed loop has one caller, and on a small shared
# machine a second spinning BLAS thread makes timings depend on its neighbours.
# A fixed hash seed: with a random one, string hashing lays out dicts and sets
# differently in every process, and identical work ran 10-15 % apart.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def source_digest() -> tuple[str, str]:
    """(git commit or 'unknown', sha256 over the library's sources)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return commit, digest.hexdigest()


def spawn(args, workload: str, probe: bool, spans: Path | None = None) -> tuple[float, str]:
    """Start a worker; return (seconds until it was set up, its remaining stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if spans:
        cmd += ["--spans", str(spans)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=PROBE_TIMEOUT_S - (perf_counter() - start)):
                    raise BenchError("worker did not finish set-up in time")
                line = proc.stdout.readline()
                if not line:
                    raise BenchError(f"worker exited during set-up (code {proc.wait()})")
                if line.strip() == "@@ready":
                    setup_s = perf_counter() - start
                    break
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup_s, out


def summarize(workload: str, result: dict) -> tuple[dict, list[str]]:
    """The result line's metrics, and the human-readable summary."""
    records, defects = result["records"], result["known_defects"]
    failed = [r for r in records if r["problem"]]
    lines = [f"workload {workload}  seed {result['provenance']['seed']}  "
             f"samples {len(records)}  repeats {result.get('reps', 1)}  "
             f"deadline {result['provenance']['sizes']['deadline_s']:g} s"]
    if "per_layer" in result:
        values, table = result["per_layer"], metrics.PER_LAYER
        lines += [f"  {k:<56}{v:>14.6g} {table[k][0]}" for k, v in values.items() if v]
    else:
        scaled = metrics.rescale(records)
        values, table = metrics.end_to_end(scaled, result["peak_rss_mb"],
                                           result["setup_s"]), metrics.END_TO_END
        measured = metrics.end_to_end(records, result["peak_rss_mb"], result["setup_wall_s"])
        name, unit = metrics.WORK[workload]
        cal = statistics.median(r["cal_s"] for r in records if r["cal_s"] is not None)
        lines.append(f"  {'':<24}{'rescaled':>14} {'as measured':>14}   (calibration unit "
                     f"{1e3 * cal:.3f} ms, reference {1e3 * metrics.CAL_REF_S:.3f} ms)")
        rows = [(name, "work_per_s", unit), ("op_p50_ms", "op_p50_ms", "ms"),
                ("peak_rss_mb", "peak_rss_mb", "MB"), ("setup_s", "setup_s", "s")]
        lines += [f"  {label:<24}{values[key]:>14.6g} {measured[key]:>14.6g} {u}"
                  for label, key, u in rows]
        tail, pct, n = metrics.tail([r["elapsed_s"] for r in scaled])
        lines.append(f"  {'op_tail_ms':<24}{1e3 * tail:>14.6g} "
                     f"{1e3 * metrics.tail([r['elapsed_s'] for r in records])[0]:>14.6g} ms"
                     f"  (p{pct:.1f} of {n} samples)")
    bad = len(failed) + sum(1 for r in defects if r["problem"])
    total = len(records) + len(defects)
    lines.append(f"  {'fail_share':<24}{bad / total:>16.6g} ratio  "
                 f"({len(failed)} of {len(records)} ops, "
                 f"{bad - len(failed)} of {len(defects)} known-defect probes)")
    lines += [f"  FAILED {r['op']}: {r['problem']}" for r in failed]
    lines += [f"  known defect {r['op']} ({r['elapsed_s']:.2f} s) "
              + (f"fails: {r['problem']}" if r["problem"] else "passes") for r in defects]
    line = {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table}}
    return line, lines


def run_workload(args, workload: str) -> int:
    stem = HERE / "results" / f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = stem.with_name(stem.name + "-spans.json") if args.trace else None
    setups = []  # (set-up seconds, calibration unit seconds just before it)

    def timed_spawn(probe: bool) -> str:
        cal = statistics.median(calibrator.time_unit() for _ in range(CAL_PER_SETUP))
        setup_s, out = spawn(args, workload, probe, None if probe else spans)
        setups.append((setup_s, cal))
        return out

    try:
        with Calibrator() as calibrator:
            for _ in range(SETUP_PROBES):
                timed_spawn(probe=True)
            out = timed_spawn(probe=False)
            for _ in range(SETUP_PROBES):
                timed_spawn(probe=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    line = next((ln for ln in out.splitlines() if ln.startswith("@@result ")), None)
    if line is None:
        print("worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(line[len("@@result "):])
    result["setup_s"] = statistics.median(s * metrics.CAL_REF_S / c for s, c in setups)
    result["setup_wall_s"] = statistics.median(s for s, _ in setups)
    commit, digest = source_digest()
    result["provenance"].update(commit=commit, source_sha256=digest,
                                setup_samples_s=[s for s, _ in setups],
                                setup_calibration_s=[c for _, c in setups], workload=workload,
                                seconds=args.seconds, trace=args.trace)
    line, lines = summarize(workload, result)
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({**result, "summary": lines, "result": line}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(line), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "dcrep" / "__init__.py").is_file():
        print(f"no dcrep sources under {ROOT / 'src'}: run from a dcrep checkout",
              file=sys.stderr)
        return 2
    (HERE / "results").mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(args, workload)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
