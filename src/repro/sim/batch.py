"""The scheduler's event queue: distinct-timestamp buckets of per-kind FIFOs.

:class:`BucketQueue` is a calendar-style event queue living strictly *behind*
the fingerprint contract (it must reproduce a binary heap's bytes).  Events
are grouped into per-timestamp buckets holding one FIFO list per priority; a
small heap orders the *distinct* timestamps.  Arrival order within one
``(time, priority)`` FIFO is push order, so popping the minimum timestamp and
scanning priorities 0..5 reproduces the strict ``(time, priority, seq)`` total
order of a binary heap whose ``seq`` counts pushes — for any push pattern,
with no monotonicity assumption (see ``docs/performance.md`` for the
argument).  The win over such a heap is that ``heapq`` only ever holds
distinct timestamps: under :class:`~repro.sim.network.FixedDelay` a whole wave
of n² messages shares a handful of receive times, so pushes and pops become
list appends and index bumps instead of O(log n) sift operations.

Under a continuous delay model the opposite holds — every message has a
receive time of its own — so a timestamp that holds nothing but one delivery
stores no bucket at all: the slot *is* that delivery's entry (a "lone
entry"), and the bucket is built only if a second event lands on the time.
A lone entry is a bucket whose only non-empty FIFO is the delivery FIFO, of
length one; the ordering argument needs nothing more.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_DELIVERY

#: event priorities are 0..5 (crash, recover, propose, delivery, timer, call)
N_PRIORITIES = 6

_ABSENT = object()


def _new_bucket(deliveries: list) -> list:
    # six per-priority FIFO lists (the delivery FIFO is the list handed in,
    # kept, not copied), six consumed-index cursors, live count
    return [[], [], [], deliveries, [], [], [0, 0, 0, 0, 0, 0], len(deliveries)]


def lone_bucket() -> list:
    """The bucket a lone entry stands for, its one delivery already in hand.

    For a drain loop that holds the entry itself (as the one-entry FIFO
    ``(entry,)``) and needs the rest of the layout around it.  Such a loop's
    only write to the bucket of a last entry is ``cursors[kind] = index`` —
    here ``cursors[3] = 1``, the value already there — so one per
    :meth:`Scheduler.run <repro.sim.runner.Scheduler.run>` call serves every
    lone entry it pops.
    """
    return [(), (), (), (), (), (), [0, 0, 0, 1, 0, 0], 1]


class BucketQueue:
    """Distinct-timestamp calendar queue with per-priority FIFO buckets.

    Layout: ``buckets[time]`` is either a bucket, the list
    ``[fifo0..fifo5, cursors, live_count]``, or — when the only thing queued
    at ``time`` is one delivery — that delivery's entry itself (a *lone
    entry*).  A bucket is the only ``list`` the queue ever stores, so
    ``type(slot) is list`` tells the two apart and an entry may be anything
    but a list.  A lone entry is inflated into a bucket, itself first in the
    delivery FIFO, by the next push onto its time, so push order stays FIFO
    order.  ``times`` is a heap over the *distinct* timestamps with a live
    slot — each timestamp appears exactly once, and its slot is deleted (and
    the timestamp popped, always at the heap minimum) when the last entry is
    taken.  Entries are otherwise opaque to the queue; the scheduler stores
    one bare tuple shape per event kind.  The scheduler's loop inlines
    :meth:`pop` against ``times``/``buckets`` directly; the methods here are
    the reference implementation the tests compare against a binary heap,
    and this module is the only place the layout (bucket constructor, lone
    form, inflation) is written down.
    """

    __slots__ = ("times", "buckets")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.buckets: dict = {}

    def __bool__(self) -> bool:
        return bool(self.buckets)

    def __len__(self) -> int:
        return sum(
            slot[7] if type(slot) is list else 1 for slot in self.buckets.values()
        )

    def push(self, time: float, priority: int, entry: Any) -> None:
        """Append ``entry`` to the ``(time, priority)`` FIFO."""
        if type(entry) is list:
            raise SimulationError("a queue entry cannot be a list: lists are buckets")
        buckets = self.buckets
        slot = buckets.get(time, _ABSENT)
        if type(slot) is not list:
            if slot is _ABSENT:
                heapq.heappush(self.times, time)
                if priority == PRIORITY_DELIVERY:
                    buckets[time] = entry
                    return
                slot = buckets[time] = _new_bucket([])
            else:
                slot = buckets[time] = _new_bucket([slot])
        slot[priority].append(entry)
        slot[7] += 1

    def push_run(self, time: float, run: list) -> None:
        """Append the deliveries of ``run`` at ``time``, in order.

        ``run`` is a non-empty list of delivery entries the caller hands
        over: a run of two or more into an empty slot becomes the bucket's
        delivery FIFO as it is.  Exactly ``push(time, PRIORITY_DELIVERY, e)``
        for each ``e`` of ``run``, paid once.
        """
        buckets = self.buckets
        slot = buckets.get(time, _ABSENT)
        if slot is _ABSENT:
            heapq.heappush(self.times, time)
            buckets[time] = run[0] if len(run) == 1 else _new_bucket(run)
            return
        if type(slot) is not list:
            slot = buckets[time] = _new_bucket([slot])
        slot[PRIORITY_DELIVERY].extend(run)
        slot[7] += len(run)

    def pop(self) -> Tuple[float, int, Any]:
        """Remove and return ``(time, priority, entry)`` for the global minimum.

        Strictly the entry a ``(time, priority, seq)`` heap would pop next:
        minimum live time, then lowest non-exhausted priority, then FIFO
        (== seq) order within it.
        """
        time = self.times[0]
        bucket = self.buckets[time]
        if type(bucket) is not list:
            del self.buckets[time]
            heapq.heappop(self.times)
            return time, PRIORITY_DELIVERY, bucket
        cursors = bucket[6]
        for priority in range(N_PRIORITIES):
            index = cursors[priority]
            fifo = bucket[priority]
            if index < len(fifo):
                break
        else:  # pragma: no cover - count>0 guarantees a non-exhausted FIFO
            raise SystemError("bucket queue invariant violated: empty live bucket")
        entry = fifo[index]
        cursors[priority] = index + 1
        remaining = bucket[7] - 1
        if remaining:
            bucket[7] = remaining
        else:
            del self.buckets[time]
            heapq.heappop(self.times)
        return time, priority, entry
