"""Machine-speed probe for normalizing wall times.

On a shared host the same scenario's wall time drifts by tens of percent
over seconds to minutes: twenty-second windows of identical ``paper``
runs read 112-177 cycles/s.  A fixed interpreter-bound loop, timed every
quarter second between units of work, slows down with the scenario
runs.  Dividing each wall time by the loop's local slowdown cuts the
spread of those windows to a few percent.  The loop uses only the
standard library and numpy, so no change to ``src/`` can speed it up.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
from time import perf_counter

import numpy as np

#: Median :func:`calibration_loop` time on the host the benchmark's bounds
#: were set on (2 vCPUs of an Intel Xeon at 2.1 GHz).  Normalized times are
#: that host's seconds.
REFERENCE_S = 0.0125

#: Least wall time between two probes.
PROBE_EVERY_S = 0.25

#: Probes on each side of an instant that give its local slowdown.
NEIGHBOURS = 2


class _Item:
    __slots__ = ("t", "key", "value")

    def __init__(self, t: int, key: int, value: float) -> None:
        self.t, self.key, self.value = t, key, value

    def __lt__(self, other: "_Item") -> bool:
        return self.t < other.t


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of heap, dict, object and small-numpy work."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        heap: list[_Item] = []
        table: dict[int, float] = {}
        grid = np.linspace(0.0, 1.0, 32)
        acc = 0.0
        for i in range(5_000):
            heapq.heappush(heap, _Item((i * 7919) % 1009, i % 257, float(i)))
            if len(heap) > 64:
                item = heapq.heappop(heap)
                table[item.key] = table.get(item.key, 0.0) + item.value
            if i % 16 == 0:
                acc += float(np.searchsorted(grid, (i % 97) / 97.0)) + float(grid.sum())
        sorted(table.items())
        return perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedTrack:
    """Time-stamped :func:`calibration_loop` samples over one benchmark run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        #: Wall time spent probing, so callers can take it out of theirs.
        self.spent_s = 0.0

    def probe(self) -> None:
        """Sample the loop unless the last sample is under ``PROBE_EVERY_S`` old."""
        started = perf_counter()
        if self.times and started - self.times[-1] < PROBE_EVERY_S:
            return
        self.samples.append(calibration_loop())
        self.times.append(perf_counter())
        self.spent_s += self.times[-1] - started

    def slowdown_at(self, t: float) -> float:
        """Median slowdown against the reference of the probes nearest ``t``."""
        i = bisect.bisect(self.times, t)
        near = self.samples[max(i - NEIGHBOURS, 0) : i + NEIGHBOURS]
        return statistics.median(near) / REFERENCE_S

    def slowdown_over(self, start: float, end: float) -> float:
        """Mean slowdown of the probes from the last one before ``start``
        to the first one after ``end``."""
        lo = max(bisect.bisect(self.times, start) - 1, 0)
        hi = bisect.bisect(self.times, end) + 1
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
