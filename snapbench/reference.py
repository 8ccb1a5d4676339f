"""A fixed reference loop that normalizes host times for machine speed.

On a shared machine, other tenants slow a run down in periods that last
from seconds to minutes; on the 2-core VM this benchmark was tuned on, the
same repetition took 2.1 s in a quiet period and 3.4 s in a busy one, and
whole 35-second runs fell inside busy periods.  No statistic over one run
removes that.  So every timed interval is bracketed by this loop, a tiny
discrete-event kernel (a heap of tuples, slotted objects, dict updates),
which is the same kind of interpreter work as the simulator and slows down
with it: over 30 identical repetitions the loop cut the spread of
simulation time from 7.6% to 3.8% of the mean.

A normalized time is ``host seconds * NOMINAL_S / loop seconds``, the mean
of the loops just before and just after the interval.  It reads in host
seconds of that machine when quiet, and moves only when the measured code
does: the loop is the benchmark's own code, which no change to the program
touches.
"""

from __future__ import annotations

import heapq
import time

#: The loop's duration on the tuning machine in a quiet period.
NOMINAL_S = 0.0025
#: Events the loop processes per measurement.
EVENTS = 2000


class _Event:
    __slots__ = ("time", "seq", "parent")

    def __init__(self, time_: int, seq: int, parent: "_Event | None") -> None:
        self.time = time_
        self.seq = seq
        self.parent = parent


def loop_seconds() -> float:
    """Host seconds of one pass of the reference loop."""
    started = time.perf_counter()
    heap = [(i, i, _Event(i, i, None)) for i in range(32)]
    heapq.heapify(heap)
    table: dict[int, int] = {}
    seq = len(heap)
    for _ in range(EVENTS):
        now, _seq, event = heapq.heappop(heap)
        table[event.seq & 63] = table.get(event.seq & 63, 0) + now
        seq += 1
        delay = (seq * 2654435761) % 97 + 1
        heapq.heappush(heap, (now + delay, seq, _Event(now, seq, event)))
    return time.perf_counter() - started


def scale(before: float, after: float) -> float:
    """Factor turning host seconds measured between two loop timings
    into normalized seconds."""
    return 2.0 * NOMINAL_S / (before + after)
