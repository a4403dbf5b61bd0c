"""Machine-speed calibration of the end-to-end timings.

Shared machines change speed by up to 1.7x within seconds (other
tenants, frequency changes), far more than the regressions the benchmark
must catch.  So the run times a fixed loop written here right after every
op: a brute-force cut scan on a 10-element poset, the same kind of
pure-Python bitmask work as the program.  An op's calibrated time is its wall
time times ``REFERENCE_S / m``, where m is the mean loop time of the
calibrations around it (see ``Clock.scale``): the time the op would take
on a machine where the loop takes ``REFERENCE_S``.  The program never
runs this loop, so a change to the program moves calibrated and wall
times alike, while most of the machine's drift cancels.  In ten runs of
each workload on 2 shared vCPUs (Python 3.11), the quartile spreads of
the end-to-end times were 13-42% of the median in wall time and 1-18%
calibrated.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.004  # loop time on the reference machine

_N = 10
# S_5: a_i < b_j for i != j, elements a_0..a_4 then b_0..b_4
_UP = [(1 << i) | (sum(1 << (5 + j) for j in range(5) if j != i) if i < 5 else 0) for i in range(_N)]
_DOWN = [sum(1 << i for i in range(_N) if (_UP[i] >> j) & 1) for j in range(_N)]
_FULL = (1 << _N) - 1


def _members(mask: int) -> list[int]:
    return [i for i in range(_N) if (mask >> i) & 1]


def loop() -> list[int]:
    """All cuts of S_5 by scanning every subset, in canonical order."""
    cuts = set()
    for mask in range(1 << _N):
        upper = _FULL
        for i in _members(mask):
            upper &= _UP[i]
        lower = _FULL
        for i in _members(upper):
            lower &= _DOWN[i]
        if lower == mask:
            cuts.add(mask)
    return sorted(cuts, key=lambda m: (bin(m).count("1"), _members(m)))


class Clock:
    """Loop times of one run, with the times they ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.samples: list[float] = []
        self.calibrate()

    def calibrate(self) -> None:
        # collecting the run's own garbage would be timed as machine speed
        gc.disable()
        try:
            start = time.perf_counter()
            loop()
            self.ends.append(time.perf_counter())
        finally:
            gc.enable()
        self.samples.append(self.ends[-1] - start)

    def scale(self, start: float, end: float) -> float:
        """Factor for wall time spent in [start, end].  It averages the
        two samples before and the two after the interval and every
        sample within one interval length of it, so that a long op is
        rescaled by the speed around all of it; samples above twice the
        median (the loop was preempted) count as twice the median."""
        span = end - start
        lo = min(bisect.bisect_left(self.ends, start - span), bisect.bisect_left(self.ends, start) - 2)
        hi = max(bisect.bisect_right(self.ends, end + span), bisect.bisect_right(self.ends, end) + 2)
        near = self.samples[max(lo, 0) : hi]
        cap = 2 * statistics.median(near)
        return REFERENCE_S / statistics.mean(min(s, cap) for s in near)
