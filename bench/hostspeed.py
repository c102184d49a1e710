"""A fixed calibration loop that measures how fast the host runs right now.

The benchmark shares a few vCPUs of a host with other tenants, and their
load slows every process on it by up to 1.6x for tens of seconds at a
time. The loop below is plain interpreter work that no change to protval
can affect. Timing it just before and just after a measured stretch tells
how fast the host was during that stretch, so the stretch can be scaled to
a fixed host speed.
"""

from __future__ import annotations

import statistics
import time

# Seconds the loop takes on an unloaded Intel Xeon (Sapphire Rapids) vCPU
# under CPython 3.11. Only the ratio to it matters: scaled times read as
# seconds on a host that runs the loop this fast.
REFERENCE_S = 0.008
LOOP_ITERATIONS = 100_000
REPEATS = 3


def _loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


def loop_seconds() -> float:
    """The fastest of a few back-to-back runs of the calibration loop."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        _loop()
        best = min(best, (time.perf_counter_ns() - start) * 1e-9)
    return best


def scale(seconds: float, loops: list[float]) -> float:
    """``seconds`` measured between calibration loops timed at ``loops``,
    scaled to a host that runs the loop in ``REFERENCE_S``."""
    return seconds * REFERENCE_S / statistics.fmean(loops)
