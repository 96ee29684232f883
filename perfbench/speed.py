"""Machine-speed calibration: a fixed computation timed around every op.

On the shared 2-vCPU machine the benchmark was built on, the speed of every
computation shifted by up to 1.7x every few seconds, with no CPU steal. A
run's wall times therefore said more about the machine's neighbours than
about scce. A fixed kernel that does not touch scce runs before the first op,
between ops and after the last, and likewise around each timed interpreter
start. Every reported time is the wall time of the interval rescaled to the
reference speed by the mean of the two kernel times that bracket it:

    reported_s = wall_s * REFERENCE_S / mean(kernel_before_s, kernel_after_s)

Over 40 ops of a 2 s Monte Carlo call the coefficient of variation of the op
time was 0.10 raw, 0.07 scaled by a kernel run before the op alone, and 0.04
scaled by the bracketing pair. The kernel mixes the kinds of work the
workloads do: Python dict and string work, CSV parsing, and small dense
linear algebra. Adding a memory-bound 12 MB einsum to it did not make the
run-to-run spreads smaller on average.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# The kernel's wall time at the reference speed: near its median on the
# machine the benchmark was built on, so reported seconds stay close to that
# machine's wall seconds.
REFERENCE_S = 0.05

_SMALL = np.random.default_rng(0).normal(size=(100, 100))
_CSV = "\n".join(f"{i},{i % 7},{i * 0.123456789!r},{i * 1.5!r},{-i / 3!r}"
                  for i in range(10000))


def _kernel() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(50000):
        table[str(i)] = (i, i * 0.5)
    rows = [(r[0].strip(), int(r[1]), *r[2:]) for r in csv.reader(io.StringIO(_CSV))]
    a = _SMALL
    for _ in range(100):
        a = np.linalg.qr(a @ a.T + np.eye(100))[0]
    del table, rows
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Wall time of the fixed kernel: the least of three runs, so that one
    stall of the machine (up to a second was seen) does not pass for its
    speed."""
    return min(_kernel() for _ in range(3))


def factors(kernels: list[float]) -> list[float]:
    """Given the kernel times measured before, between and after a series of
    timed intervals, the factor that takes each interval's wall seconds to
    seconds at the reference speed: REFERENCE_S over the mean of the two
    kernel times that bracket it."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(kernels, kernels[1:])]
