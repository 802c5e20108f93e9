"""Machine-speed calibration of the benchmark's times.

The shared machines this benchmark runs on change speed by up to 2x within
seconds (other tenants on the same cores slow CPU time as much as wall
time), in phases that often outlast a run.  So the run times a fixed piece
of pure-Python work, `reference_work`, between jobs, and reports each
measured time scaled to a machine on which that reference takes
REF_SECONDS:

    calibrated = measured * REF_SECONDS / (median reference time around it)

The reference does the kind of work the program does (dicts, tuples, sets,
sorting, small function calls) but none of its code, so a change to the
program moves the calibrated times and a change of machine speed does not.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_SECONDS = 0.001  # the reference's time on the nominal machine
EVERY = 0.05  # seconds between reference samples during the timed phase
WINDOW = 1.0  # seconds either side of a measurement whose samples calibrate it
BURST = 7  # samples taken at once around set-up


def reference_work() -> int:
    """Count paths through a fixed random DAG and collect edge tuples."""
    rng = random.Random(5)
    succ = {i: sorted(rng.sample(range(i + 1, 250), min(3, 249 - i))) for i in range(250)}
    paths = {}
    for s in range(249, -1, -1):
        paths[s] = 1 + sum(paths[t] for t in succ[s])
    seen = set()
    for s, ts in succ.items():
        for t in ts:
            seen.add((s, t, paths[t] % 97))
    return len(seen) + len(sorted(seen))


class Clock:
    """Reference samples (when, seconds), taken at most every EVERY seconds."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.at.append(end)
        self.seconds.append(end - start)

    def tick(self) -> None:
        """Take a sample if the last one is more than EVERY seconds old."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY:
            self.sample()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the median reference time within WINDOW of
        [start, end], or of the nearest sample when none is that close."""
        lo = bisect_left(self.at, start - WINDOW)
        hi = bisect_right(self.at, end + WINDOW)
        if lo == hi:
            nearest = min(range(len(self.at)), key=lambda i: min(abs(self.at[i] - start),
                                                                 abs(self.at[i] - end)))
            lo, hi = nearest, nearest + 1
        return REF_SECONDS / statistics.median(self.seconds[lo:hi])
