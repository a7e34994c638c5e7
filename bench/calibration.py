"""Host-speed calibration of the benchmark's timings.

The hosts this runs on are shared: the speed of a core changes by up to
about 1.5x, for seconds to minutes at a time, with the load of other
machines on it, and the CPU time of a process moves with its wall time.
So every timed op is paired with `probe()`, a fixed piece of work that
does not touch dotx, run just before and just after it on the same core.
`scaled` turns a wall time into seconds at the reference speed: the
speed at which one probe takes `REF_S`.  A change to dotx moves the op
time and leaves the probe alone.

The probe mixes the three kinds of work dotx does: an interpreted Python
loop, numpy on arrays (the oracle quadratures), and scalar numpy calls
from Python (the closed form along a sweep).
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import numpy as np

#: Seconds one probe takes at the reference speed (about the fast speed
#: of the 2-vCPU host the benchmark was built on).
REF_S = 0.0025

_X = np.linspace(0.0, 1.0, 20_000)


def _python_loop():
    s = 0.0
    for i in range(10_000):
        s += i * 0.5
    return s


def _array_math():
    y = _X
    for _ in range(3):
        y = np.exp(-y * y) + np.sqrt(y + 1.0)
    return y


def _scalar_calls():
    s = 0.0
    for i in range(2_000):
        s += float(np.exp(-i * 1e-3)) + math.sqrt(i)
    return s


def probe() -> float:
    """Wall time of one fixed piece of work, in seconds."""
    t0 = perf_counter()
    _python_loop()
    _array_math()
    _scalar_calls()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the probes around it."""
    return seconds * REF_S / (0.5 * (before + after))


def pin_to_one_core():
    """Keep this process and its children on one core, so that an op and
    its probes run on the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
