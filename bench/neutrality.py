"""Check that rescaling by the calibration unit is neutral to dcrep's own speed.

    python3 bench/neutrality.py --workload verify --seconds 16

Run from the root of a dcrep checkout, with OPENBLAS_NUM_THREADS=1 as the
benchmark's workers have it.  The workload's closed loop runs in one
process, as in a worker, in alternating stretches: as it is, and with a
planted slowdown that makes every operation call dcrep twice inside its timed
region.  The planted loop does twice the dcrep work per unit of credited
work, with everything
that comes with it (heap, caches, allocator), so if the calibration reference
ignores what dcrep does, its rescaled ``work_per_s`` is half the plain
loop's and its ``op_p50_ms`` twice.  Prints those ratios, rescaled and as
measured, and exits 1 when a rescaled ratio is off by more than TOLERANCE.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src on the path first)
import metrics  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402

TOLERANCE = 0.15  # relative, on each ratio
CHUNKS = 4        # alternating stretches of each loop


def planted_round(round_ops):
    def ops(*args):
        out = round_ops(*args)
        for op in out:
            def twice(call=op.call):
                call()
                return call()
            op.call = twice
        return out
    return ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16.0, help="for each loop")
    args = ap.parse_args()

    signal.signal(signal.SIGALRM, worker._alarm)
    worker.lazy_builds(args.workload)
    round_ops = workloads.round_ops
    variants = {"plain": round_ops, "planted": planted_round(round_ops)}
    rescaled, measured = {name: [] for name in variants}, {name: [] for name in variants}
    tmpdir = tempfile.mkdtemp(prefix="neutrality-", dir=HERE / "results")
    try:
        with Calibrator() as calibrator:
            for chunk in range(CHUNKS):
                # plain, planted, planted, plain, ...: drift hits both alike
                for name in sorted(variants, reverse=chunk % 2 == 1):
                    workloads.round_ops = variants[name]
                    records, _ = worker.closed_loop(args.workload, args.seed,
                                                    args.seconds / CHUNKS, tmpdir, calibrator)
                    rescaled[name] += metrics.rescale(records)
                    measured[name] += records
    finally:
        workloads.round_ops = round_ops
        shutil.rmtree(tmpdir, ignore_errors=True)
    figures = {name: (metrics.end_to_end(rescaled[name], 0.0, 0.0),
                      metrics.end_to_end(measured[name], 0.0, 0.0)) for name in variants}

    bad = 0
    for key, want in (("work_per_s", 0.5), ("op_p50_ms", 2.0)):
        on_scale, as_measured = (figures["planted"][i][key] / figures["plain"][i][key]
                                 for i in (0, 1))
        ok = abs(on_scale / want - 1.0) <= TOLERANCE
        bad += not ok
        print(f"{args.workload:<10}{key:<12}planted/plain rescaled {on_scale:.3f}, "
              f"as measured {as_measured:.3f}, expected {want:g}  {'ok' if ok else 'OFF'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
