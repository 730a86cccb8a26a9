"""Reference-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop, timed in 5-s windows, moves between 0.66 and 1.25
times its median speed, in phases that last tens of seconds.  A 36-s run
therefore lands in one phase or another, and run-to-run spread of raw
latencies is 20% and more, whatever the program does.

``SpeedProbe`` times a fixed reference slice of interpreter work (exact
fraction arithmetic and complex floats, the two kinds of work ``nadyn``
does) after every timed operation.  ``factor_at(t)`` is ``REFERENCE_S``
divided by the median slice time within ``WINDOW_S`` seconds of ``t``:
multiplying a latency measured at ``t`` by it gives the latency at the
reference speed, the speed at which one slice takes ``REFERENCE_S``.  The
slice does not touch ``nadyn``, so a change to the program moves the
corrected figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

# time of one reference slice at the reference speed: the median slice time
# on the 2-core x86_64 VM (Python 3.11) where the benchmark was calibrated
REFERENCE_S = 0.0017
WINDOW_S = 1.5
MIN_SLICES = 5


def reference_slice() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = perf_counter()
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    z = 0.3 + 0.1j
    for _ in range(3000):
        z = z * z * 0.5 + 0.1j
    return perf_counter() - start


class SpeedProbe:
    """Reference slices timed through a run, and the speed factor they give."""

    def __init__(self):
        self.times: list[float] = []
        self.slices: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t = perf_counter()
            self.slices.append(reference_slice())
            self.times.append(t)

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the median slice time near ``t``."""
        lo = bisect_left(self.times, t - WINDOW_S)
        hi = bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_SLICES:
            # too few slices in the window: take the nearest ones
            mid = bisect_left(self.times, t)
            lo = max(0, mid - MIN_SLICES)
            hi = min(len(self.times), mid + MIN_SLICES)
        return REFERENCE_S / statistics.median(self.slices[lo:hi])

    def run_factor(self) -> float:
        """REFERENCE_S over the median of all slices."""
        return REFERENCE_S / statistics.median(self.slices)
