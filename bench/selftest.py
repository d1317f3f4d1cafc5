"""Self-test of the benchmark: its checks catch planted faults, its inputs are seeded.

    python3 bench/selftest.py

Run from the root of a dcrep checkout.  Exits 0 when every check below holds:

* the decision oracle flags a wrong verdict, a forged Farkas certificate, a q
  that misses the law, and a planted deadline miss (a tiny deadline on a
  small case, not minutes of pivoting);
* the batch oracle flags a block holding both signs, biased block colors, a
  batch with no testable bin, a report that disagrees with its batch, and an
  OU chain of the wrong correlation;
* the scan oracles flag a flipped ``pd`` cell and a flipped ``feasible`` cell,
  and do not judge a cell on a region boundary;
* the same seed gives byte-identical inputs, and another seed gives different
  inputs with the same mix of operations and expected verdicts;
* the metric lists in BENCHMARK.json match the ones the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the checkout's src on the path first)
import metrics  # noqa: E402
import numpy as np  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from dcrep import cli, embeddings, partitions, solver  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def decisions() -> None:
    rng = np.random.default_rng(7)
    _, nu = workloads._dirichlet_law(rng, 4, 0.3)
    good = solver.lp_feasibility(partitions.BinaryLaw(4, nu))
    expect(oracle.decision_problem(good, "Feasible", nu, 4) is None, "a right verdict passes")
    wrong = dataclasses.replace(good, status="Infeasible", q=None, certificate=None)
    expect(oracle.decision_problem(wrong, "Feasible", nu, 4) is not None,
           "a wrong verdict is flagged")
    shifted = dict(good.q.weights)
    k1, k2 = sorted(shifted)[:2]
    shifted[k1], shifted[k2] = shifted[k1] + 0.01, shifted[k2] - 0.01
    expect(oracle.q_problem(shifted, nu, 4, 1e-8) is not None, "a q that misses nu is flagged")

    law = oracle.square_zero_law(1.2)
    res = solver.lp_feasibility(partitions.BinaryLaw(4, law))
    expect(oracle.decision_problem(res, "Infeasible", law, 4) is None,
           "a true Farkas certificate verifies exactly")
    forged = dataclasses.replace(res, certificate=-res.certificate)
    expect(oracle.decision_problem(forged, "Infeasible", law, 4) is not None,
           "a forged certificate is flagged")
    ones = dataclasses.replace(res, certificate=np.ones_like(res.certificate))
    expect(oracle.certificate_problem(ones.certificate, law, 4) is not None,
           "the all-ones vector (y'A = 1 = y'nu) is no certificate")

    signal.signal(signal.SIGALRM, worker._alarm)
    _, nu6 = workloads._dirichlet_law(rng, 6, 0.3)
    op = workloads._decision("planted deadline miss", nu6, 6, "Feasible")
    record, _ = worker.execute(op, deadline=0.005)
    expect(record["problem"] is not None and "deadline" in record["problem"],
           f"a planted deadline miss is flagged ({record['problem']})")
    record, _ = worker.execute(op, deadline=workloads.DEADLINE_S)
    expect(record["problem"] is None, "the same decision passes under the real deadline")


def batches() -> None:
    batch = embeddings.ou_partition_batch(0.5, 3, 10_000, 3)
    report = embeddings.verify_color_property(batch)
    signs, labels = batch.signs, batch.labels
    expect(oracle.batch_problem(signs, labels, report, chain3_a=0.5) is None,
           "a correct OU batch passes, with its closed-form sign law")
    mixed = signs.copy()
    row = int(np.flatnonzero(labels[:, 0] == labels[:, 1])[0])
    mixed[row, 1] = -mixed[row, 1]
    expect(oracle.batch_problem(mixed, labels, report) is not None,
           "a block holding both signs is flagged")
    expect(oracle.batch_problem(np.ones_like(signs), labels, report) is not None,
           "block colors that are no fair coins are flagged")
    expect(oracle.batch_problem(signs[:8], labels[:8], report) is not None,
           "a batch with no testable bin is flagged")
    expect(oracle.batch_problem(signs, labels, dataclasses.replace(report, bins=()))
           is not None, "a report with its bins dropped is flagged")
    other = embeddings.ou_partition_batch(0.8, 3, 10_000, 3)
    expect(oracle.batch_problem(other.signs, other.labels,
                                embeddings.verify_color_property(other), chain3_a=0.5)
           is not None, "a chain with the wrong step correlation is flagged")


def scans() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for scan, step, problem in (("ab", 0.05, oracle.scan_ab_problem),
                                    ("theta", 0.01, oracle.scan_theta_problem)):
            path = Path(tmp) / f"{scan}.csv"
            code = cli.main(["scan", "--scan", scan, "--a-step", str(step), "--out", str(path)])
            expect(code == 0 and problem(path, step)[0] is None, f"scan {scan} passes")
            lines = path.read_text().splitlines()
            column = lines[1].split(",").index("pd" if scan == "ab" else "feasible")
            cells = lines[2].split(",")
            cells[column] = "0" if cells[column] == "1" else "1"
            lines[2] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            expect(problem(path, step)[0] is not None, f"a flipped cell in scan {scan} is flagged")

        # (0.6, 0.2) lies on 2a - 1 = b, where float rounding decides large_h_color;
        # (0.3, 0.5) lies well inside the region
        step = 0.05
        path = Path(tmp) / "ab.csv"
        for point, judged in (((0.6, 0.2), False), ((0.3, 0.5), True)):
            cli.main(["scan", "--scan", "ab", "--a-step", str(step), "--out", str(path)])
            lines = path.read_text().splitlines()
            header = lines[1].split(",")
            a, b, column = header.index("a"), header.index("b"), header.index("large_h_color")
            flipped = 0
            for k, line in enumerate(lines[2:], start=2):
                cells = line.split(",")
                if max(abs(float(cells[a]) - point[0]), abs(float(cells[b]) - point[1])) < 1e-9:
                    cells[column] = "0" if cells[column] == "1" else "1"
                    lines[k] = ",".join(cells)
                    flipped += 1
            path.write_text("\n".join(lines) + "\n")
            flagged = oracle.scan_ab_problem(path, step)[0] is not None
            expect(flipped == 1 and flagged == judged,
                   f"scan ab: a flipped large_h_color at {point} is "
                   + ("flagged" if judged else "not judged, being on a region boundary"))


def inputs(workload: str, seed: int) -> tuple[bytes, list]:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        ops = workloads.round_ops(workload, seed, tmp)
        ops += workloads.known_defect_ops(workload, seed)
        text = json.dumps([[op.name, op.inputs] for op in ops], sort_keys=True)
        text = text.replace(tmp, "<tmp>")
    return text.encode(), [(op.name, op.expect) for op in ops]


def seeding() -> None:
    for workload in workloads.WORKLOADS:
        first, mix = inputs(workload, 11)
        again, _ = inputs(workload, 11)
        other, other_mix = inputs(workload, 12)
        expect(first == again, f"{workload}: the same seed gives byte-identical inputs")
        expect(first != other and mix == other_mix,
               f"{workload}: another seed changes the inputs, not the verdict mix")


def declared_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(declared == table, f"BENCHMARK.json {key} matches the reported metrics")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")


def main() -> int:
    decisions()
    batches()
    scans()
    seeding()
    declared_metrics()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
