"""Machine-speed calibration for the end-to-end times.

On a shared host the same work can run 25 % slower for seconds to minutes
at a time, which would swamp the change a benchmark run is meant to
detect.  A fixed reference task - exact `Fraction` arithmetic and dict work
like the checker's hot path, but only standard-library code and with the
garbage collector off, so that no change to euclid2's code or heap can
speed it up or slow it down - is timed in the same
process as the measured work, and times are scaled by
NOMINAL_S / (median reference time):

* in-process workloads: `SpeedMeter` runs the task between ops, every
  EVERY_S, and each op time is scaled by the samples taken within
  WINDOW_S of it;
* setup: each fresh interpreter runs the task right after its own import.

`cli-cold` is not scaled: its work runs in child processes, and the
benchmark process's reference did not track them (see NOTES.md).  The
results read as times at the reference speed; raw times are printed beside
them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Median reference time on the machine the bounds were tuned on (2 vCPUs,
# Python 3.11); only the ratio to it matters.
NOMINAL_S = 0.0045
EVERY_S = 0.1
WINDOW_S = 1.0  # an op is scaled by the reference samples within this of its middle
MIN_LOCAL = 5


def reference_task() -> float:
    """Seconds for one fixed piece of exact-arithmetic work.

    The garbage collector is off while it runs: the task shares its
    interpreter with euclid2, and a collection there would scan the
    program's live objects, so a change to the program's heap would move
    the reference and the scaling would cancel part of that change."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        x = Fraction(1, 3)
        for i in range(1, 400):
            y = Fraction(i, i + 7)
            x = (x * y + Fraction(1, i)) / (y + 1)
            table[(i % 97, x.denominator % 101)] = x
            x = Fraction(x.numerator % 10007, x.denominator % 10009 + 1)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def reference_median(n: int = 5) -> float:
    return statistics.median(reference_task() for _ in range(n))


class SpeedMeter:
    """Runs the reference task whenever `tick()` finds EVERY_S gone by."""

    def __init__(self):
        self.times: list[float] = []  # middle of each sample, ascending
        self.samples: list[float] = []  # seconds
        self._last = perf_counter()

    def tick(self):
        # One sample per EVERY_S elapsed, at most 10 after a long op.
        due = min(10, int((perf_counter() - self._last) / EVERY_S))
        for _ in range(due):
            t = perf_counter()
            self.samples.append(reference_task())
            self.times.append(t + self.samples[-1] / 2)
        if due:
            self._last = perf_counter()

    def factor(self) -> float:
        """The whole run's factor (reported for information)."""
        return NOMINAL_S / statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        """Multiply the time of an op centred at `t` by this to express it
        at reference speed: the speed drifts within seconds, so an op is
        scaled by the samples near it (at least MIN_LOCAL of them)."""
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_LOCAL:
            mid = bisect.bisect_left(self.times, t)
            lo = max(0, min(mid - MIN_LOCAL // 2, len(self.times) - MIN_LOCAL))
            hi = lo + MIN_LOCAL
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
