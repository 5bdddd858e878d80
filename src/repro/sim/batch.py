"""The scheduler's event queue: distinct-timestamp buckets of per-kind FIFOs.

:class:`BucketQueue` is a calendar-style event queue living strictly *behind*
the fingerprint contract (it must reproduce a binary heap's bytes).  Events
are grouped into per-timestamp buckets holding one FIFO list per priority; a
small heap orders the *distinct* timestamps.  Arrival order within one
``(time, priority)`` FIFO is push order, so popping the minimum timestamp and
scanning priorities 0..4 reproduces the strict ``(time, priority, seq)`` total
order of a binary heap whose ``seq`` counts pushes — for any push pattern,
with no monotonicity assumption (see ``docs/performance.md`` for the
argument).  The win over such a heap is that ``heapq`` only ever holds
distinct timestamps: under :class:`~repro.sim.network.FixedDelay` a whole wave
of n² messages shares a handful of receive times, so pushes and pops become
list appends and index bumps instead of O(log n) sift operations.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

#: event priorities are 0..4 (crash, recover, propose, delivery, timer)
N_PRIORITIES = 5


def _new_bucket() -> list:
    # five per-priority FIFO lists, five consumed-index cursors, live count
    return [[], [], [], [], [], [0, 0, 0, 0, 0], 0]


class BucketQueue:
    """Distinct-timestamp calendar queue with per-priority FIFO buckets.

    Layout: ``buckets[time]`` is ``[fifo0..fifo4, cursors, live_count]`` and
    ``times`` is a heap over the *distinct* timestamps with live buckets —
    each timestamp appears exactly once, and its bucket is deleted (and the
    timestamp popped, always at the heap minimum) when the count drains.
    Entries are opaque to the queue; the scheduler stores one bare tuple
    shape per event kind.  The scheduler's loop inlines :meth:`pop` against
    ``times``/``buckets`` directly; the methods here are the reference
    implementation the tests compare against a binary heap, and this module
    is the only place the bucket layout is written down.
    """

    __slots__ = ("times", "buckets")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.buckets: dict = {}

    def __bool__(self) -> bool:
        return bool(self.buckets)

    def __len__(self) -> int:
        return sum(bucket[6] for bucket in self.buckets.values())

    def open_bucket(self, time: float) -> list:
        """Create the (absent) bucket of ``time`` and return it."""
        bucket = self.buckets[time] = _new_bucket()
        heapq.heappush(self.times, time)
        return bucket

    def push(self, time: float, priority: int, entry: Any) -> None:
        """Append ``entry`` to the ``(time, priority)`` FIFO."""
        bucket = self.buckets.get(time)
        if bucket is None:
            bucket = self.open_bucket(time)
        bucket[priority].append(entry)
        bucket[6] += 1

    def peek_time(self) -> float:
        """The minimum live timestamp; raises IndexError when empty."""
        return self.times[0]

    def pop(self) -> Tuple[float, int, Any]:
        """Remove and return ``(time, priority, entry)`` for the global minimum.

        Strictly the entry a ``(time, priority, seq)`` heap would pop next:
        minimum live time, then lowest non-exhausted priority, then FIFO
        (== seq) order within it.
        """
        time = self.times[0]
        bucket = self.buckets[time]
        cursors = bucket[5]
        for priority in range(N_PRIORITIES):
            index = cursors[priority]
            fifo = bucket[priority]
            if index < len(fifo):
                break
        else:  # pragma: no cover - count>0 guarantees a non-exhausted FIFO
            raise SystemError("bucket queue invariant violated: empty live bucket")
        entry = fifo[index]
        cursors[priority] = index + 1
        remaining = bucket[6] - 1
        if remaining:
            bucket[6] = remaining
        else:
            del self.buckets[time]
            heapq.heappop(self.times)
        return time, priority, entry
