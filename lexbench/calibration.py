"""Scaling of measured times to a fixed machine speed.

On a shared machine the speed of the same pure-Python code drifts by
10-30% from one stretch of seconds to the next, more than the differences
a benchmark must resolve.  A fixed calibration loop, timed next to the
work, reads the current speed; times are scaled to the speed at which the
loop takes CALIBRATION_NOMINAL_NS.
"""

from __future__ import annotations

import bisect
import math
import time

CALIBRATION_LOOP = 2500
CALIBRATION_NOMINAL_NS = 1_500_000  # one pass of the loop at nominal speed
CALIBRATE_EVERY_NS = 50_000_000


def calibration_ns(reps: int) -> float:
    """Time of one pass of a fixed pure-Python loop, averaged over ``reps``.

    The loop mixes binomials of a few hundred bits with small-int and
    dict work, much as the package's code does; on the machine the
    benchmark was written on, it tracked the speed of the workloads'
    code better than a loop of small-int arithmetic alone (the residual
    drift of scaled times over 5 s windows was about half as large)."""
    start = time.perf_counter_ns()
    for _ in range(reps):
        total = 0
        seen = {}
        for i in range(CALIBRATION_LOOP):
            total += math.comb(60 + i % 40, 20 + i % 17).bit_length()
            seen[i & 255] = (i, total)
    return (time.perf_counter_ns() - start) / reps


class Speedometer:
    """Calibration samples along a run, and the scaling of work between them.

    ``checkpoint`` may be called from inside an operation at any point
    where pausing is harmless; it samples once 50 ms have passed since the
    last sample, averaging over more passes after longer stretches."""

    def __init__(self) -> None:
        self.samples = []  # (start ns, end ns, ns per calibration pass)
        self.sample(1)

    def sample(self, reps: int) -> None:
        start = time.perf_counter_ns()
        ns = calibration_ns(reps)
        self.samples.append((start, time.perf_counter_ns(), ns))

    def checkpoint(self) -> None:
        since = time.perf_counter_ns() - self.samples[-1][1]
        if since >= CALIBRATE_EVERY_NS:
            self.sample(min(20, since // CALIBRATE_EVERY_NS))

    def scale(self, start: int, end: int) -> tuple[int, float]:
        """Work time in [start, end] without the samples taken inside it,
        raw and scaled to nominal speed; samples must exist on both sides."""
        j = bisect.bisect_right(self.samples, start, key=lambda s: s[1]) - 1
        raw, scaled, at, speed_ns = 0, 0.0, start, self.samples[j][2]
        for begin, finish, ns in self.samples[j + 1:]:
            piece = min(begin, end) - at
            raw += piece
            scaled += piece * 2 * CALIBRATION_NOMINAL_NS / (speed_ns + ns)
            if begin >= end:
                break
            at, speed_ns = finish, ns
        return raw, scaled
