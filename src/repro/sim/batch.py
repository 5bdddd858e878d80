"""Batch-oriented execution support: bucket queue and vectorised sampling.

Two independent constant-factor attacks on the per-trial cost of a sweep,
both living strictly *behind* the fingerprint contract (every fast path must
reproduce the slow path's bytes):

* :class:`BucketQueue` — a calendar-style event queue for the scheduler.
  Events are grouped into per-timestamp buckets holding one FIFO list per
  priority; a small heap orders the *distinct* timestamps.  Arrival order
  within one ``(time, priority)`` FIFO is push order, so popping the minimum
  timestamp and scanning priorities 0..4 reproduces the strict ``(time,
  priority, seq)`` total order of a binary heap whose ``seq`` counts pushes
  — for any push pattern, with no monotonicity assumption (see
  ``docs/performance.md`` for the argument).  The win over such a heap is
  that ``heapq`` only ever holds distinct timestamps: under
  :class:`~repro.sim.network.FixedDelay` a whole wave of n² messages shares a
  handful of receive times, so pushes and pops become list appends and index
  bumps instead of O(log n) sift operations.

* :class:`BatchedDelaySampler` — pre-draws delay arrays from a delay model
  instead of paying one ``random.Random`` method call per message.  Models
  opt in with ``iid_delays = True`` plus a ``sample_batch(k)`` method whose
  k draws are byte-identical to k successive ``delay(...)`` calls; the
  sampler is then just a cursor over the pre-drawn buffer.  Vectorisation
  itself lives in :func:`sample_uniform_batch`, which copies the CPython
  Mersenne-Twister state into numpy, draws the batch with one C call, and
  writes the advanced state back — bit-identical to the scalar loop because
  both consume the same generator words the same way.  Without numpy the
  helper falls back to the scalar loop, so behaviour (not just distribution)
  is identical on machines without it.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError

try:  # numpy is optional: everything below has a pure-python fallback
    import numpy as np
except ImportError:  # pragma: no cover - exercised by monkeypatching np to None
    np = None

#: event priorities are 0..4 (crash, recover, propose, delivery, timer)
N_PRIORITIES = 5

#: below this many draws the numpy state round-trip costs more than it saves
MIN_VECTOR_BATCH = 32

#: delays pre-drawn per refill of a :class:`BatchedDelaySampler`
DEFAULT_BATCH_SIZE = 512


def sample_uniform_batch(rng, lo: float, hi: float, k: int) -> List[float]:
    """Draw ``k`` uniforms from ``rng``, byte-identical to ``k`` scalar calls.

    ``rng`` is a ``random.Random``; its state afterwards equals the state
    after ``k`` calls to ``rng.uniform(lo, hi)``, so batched and per-message
    sampling can interleave freely without diverging.  CPython's ``uniform``
    is ``lo + (hi - lo) * random()`` where ``random()`` consumes exactly two
    32-bit Mersenne-Twister words — the same recipe and consumption pattern
    as numpy's legacy ``RandomState.random_sample``, which is why copying the
    624-word state across and back is exact, not approximate.
    """
    if np is None or k < MIN_VECTOR_BATCH:
        uniform = rng.uniform
        return [uniform(lo, hi) for _ in range(k)]
    version, internal, gauss_next = rng.getstate()
    state = np.random.RandomState()
    state.set_state(("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1]))
    out = state.uniform(lo, hi, size=k).tolist()
    _, key, pos = state.get_state(legacy=True)[:3]
    rng.setstate((version, tuple(int(word) for word in key) + (int(pos),), gauss_next))
    return out


class BatchedDelaySampler:
    """A cursor over pre-drawn delay batches for one i.i.d. delay model.

    The sweep engine keeps one sampler per grid cell and rebinds it to each
    trial's freshly seeded delay model (:meth:`bind`), so the buffer list is
    reused across trials instead of reallocated.  Binding succeeds only for
    models declaring ``iid_delays = True``: their draws depend on nothing but
    their own RNG, so pre-drawing a surplus is invisible — the model object
    is per-trial and nothing else reads its RNG.  Stateful models (flaky
    links, adversarial functions) refuse the bind and keep the per-message
    path.
    """

    __slots__ = ("batch_size", "_model", "_buffer", "_pos")

    def __init__(self, batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise ConfigurationError(
                f"sampler batch size must be >= 1, got {batch_size}"
            )
        self.batch_size = batch_size
        self._model: Optional[Any] = None
        self._buffer: List[float] = []
        self._pos = 0

    def bind(self, model: Any) -> bool:
        """Attach to ``model`` for one trial; True when batching applies."""
        self._buffer = []
        self._pos = 0
        if getattr(model, "iid_delays", False) and hasattr(model, "sample_batch"):
            self._model = model
            return True
        self._model = None
        return False

    @property
    def bound(self) -> bool:
        return self._model is not None

    def next_delay(self) -> float:
        """The next delay draw; refills the buffer from the model as needed."""
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            buffer = self._buffer = self._model.sample_batch(self.batch_size)
            pos = 0
        self._pos = pos + 1
        return buffer[pos]


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
