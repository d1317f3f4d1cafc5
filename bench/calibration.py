"""The calibration unit and the sibling process that times it.

A shared machine runs a quarter slower for tens of seconds at a time.  The
worker rescales each operation's time by how long a fixed unit of work takes
at about the same moment.  The unit runs in a sibling process of its own, so
nothing dcrep does to the worker (its heap, its caches, numpy's allocator)
can move the reference it is measured against:

    cal = Calibrator()      # starts the sibling, which warms up and waits
    seconds = cal.time_unit()   # the worker blocks while the sibling runs
    cal.close()

The sibling imports numpy and nothing of dcrep or of the benchmark.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

WARM_UP = 5
READY = "@@calibrator-ready"


def calibration_unit(buffer: np.ndarray) -> None:
    """Fixed work in the proportions of dcrep's hot paths: bytecode, small
    objects, small and mid-size numpy calls, 3x3 LAPACK calls, a pass over
    8 MB, random draws."""
    total = 0
    for i in range(25_000):
        total += i % 7
    rows = {str(i): (i, i * 0.5) for i in range(3_000)}
    sorted(rows.values(), key=lambda r: -r[1])
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a + 1.0)
    m = np.eye(3) + 0.1
    for _ in range(60):
        np.linalg.eigvalsh(m)
    m = np.full((64, 64), 0.5)
    for _ in range(5):
        m @ m
    buffer[::7].sum()
    np.random.default_rng(0).standard_normal(10_000)


def serve() -> None:
    """Sibling side: time one unit per request line on stdin, until EOF."""
    buffer = np.ones(1_000_000)
    for _ in range(WARM_UP):
        calibration_unit(buffer)
    print(READY, flush=True)
    for _ in sys.stdin:
        calibration_unit(buffer)  # re-warms what the worker evicted meanwhile
        start = perf_counter()
        calibration_unit(buffer)
        print(repr(perf_counter() - start), flush=True)


class Calibrator:
    """Worker side: the sibling process, started warm, one request at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != READY:
            self.close()
            raise RuntimeError("calibration process did not start")

    def time_unit(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
