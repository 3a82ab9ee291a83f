"""Machine speed from a fixed loop, to put timings on one scale.

The 2-vCPU machine the bounds were set on shares its host: for minutes at
a time every timing on it runs 1.3-1.6x slower, and within a minute its
speed changes many times a second.  A timing taken then says as much
about the neighbours as about boxlab.  So the harness times a fixed
pure-Python loop, which runs no boxlab code, right before and right after
every timed call, and rescales the call's time to the loop's reference
time:

    scaled = seconds * REF_S / ((probe before + probe after) / 2)

A change to boxlab moves `seconds` and not the probe, so the scaled time
moves with it; a slow spell moves both.  The raw times stay in the run
record.  See "Machine speed" in perfbench/README.md for how well the
probe follows each workload.
"""

from __future__ import annotations

import time

LOOPS = 10_000
TRIES = 3
# The fastest of three loops on the reference machine (2-vCPU Intel Xeon,
# Python 3.11.7) at its fast speed.  It only sets the scale: scaled times
# read in seconds of that machine.
REF_S = 0.00067


def probe() -> float:
    """Seconds of the fixed loop: the fastest of `TRIES` runs."""
    best = float("inf")
    for _ in range(TRIES):
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOPS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REF_S / probe_s


def timed(fn):
    """Call `fn()` between two probes: (result, seconds, mean probe seconds)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, (before + probe()) / 2
