"""Execution traces: the raw material for every complexity measurement.

A :class:`Trace` records every message send/receive, every decision, every
crash and every timer expiry of one simulated execution.  All the paper's
metrics — number of messages exchanged, number of message delays, which
properties hold — are *derived* from the trace after the run, never tracked
inside protocol code.  This keeps protocol implementations close to the
paper's pseudocode and makes the metrics auditable.

Two trace levels (selected by the scheduler's ``trace_level``):

* ``"full"`` — :class:`Trace`: one :class:`MessageRecord` per message, the
  audit-grade record the per-message queries (``counted_messages``,
  ``causal_depth``) are computed from.
* ``"counters"`` — :class:`CounterTrace`: no per-message records at all.
  ``record_send_batch`` (and ``record_send``, its one-message case) maintains
  a handful of running tallies (total counted messages, per-module counts, a
  receive-time → multiplicity digest), which is everything the sweep engine's
  aggregate tables need.  The aggregate
  queries (``message_count``, ``messages_received_by``,
  ``module_histogram``, decisions/crashes/proposals) return byte-identical
  answers to a full trace of the same execution; the per-message queries
  raise :class:`~repro.errors.SimulationError` because the records were
  never kept.  The asyncio runtime writes this level too
  (``docs/runtime.md``, "What the runtime records").
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.network import U

#: the trace levels the scheduler accepts
TRACE_LEVELS = ("full", "counters")


# value -> multiplicity digests (``recv_time_counts`` below, the sweep
# accumulators, the obs histograms): the one nearest-rank walk and the one sum
def digest_percentile(counts: Dict[float, int], total: int, q: float) -> Optional[float]:
    """Nearest-rank percentile over a value -> multiplicity digest.

    Walking the sorted distinct values while accumulating multiplicities
    selects exactly the element nearest-rank would select from the expanded
    sorted list, so digest- and list-based percentiles agree on the same data
    down to the byte.
    """
    if total == 0:
        return None
    rank = min(max(1, math.ceil(q / 100.0 * total)), total)
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    return None  # pragma: no cover - rank <= total guarantees a hit


def digest_sum(counts: Dict[float, int]) -> float:
    """Deterministic sum over a value -> multiplicity digest.

    Walking the *sorted* distinct values makes the floating-point operation
    sequence a pure function of the digest contents — independent of the
    order the values were folded in.  This is what lets partial accumulators
    folded on different workers merge into byte-identical aggregates.
    """
    total = 0.0
    for value in sorted(counts):
        total += value * counts[value]
    return total


@dataclass
class MessageRecord:
    """One message transmitted over the network.

    ``counted`` is False for messages a process "sends to itself": the paper
    explicitly excludes them ("a message whose source and destination is the
    same does not need to be sent over the network").
    """

    msg_id: int
    src: int
    dst: int
    payload: Any
    send_time: float
    recv_time: float
    counted: bool = True
    module: str = "main"
    delivered: bool = False


@dataclass
class DecisionRecord:
    """A process' (single) decision."""

    pid: int
    value: Any
    time: float


@dataclass
class ProposalRecord:
    """The initial vote/proposal handed to a process."""

    pid: int
    value: Any
    time: float


@dataclass
class TimerRecord:
    """A timer expiry that was actually delivered to a process."""

    pid: int
    name: str
    time: float


@dataclass
class Trace:
    """Complete record of one execution."""

    #: which trace level this class implements (see module docstring)
    trace_level = "full"

    n: int = 0
    f: int = 0
    protocol: str = ""
    messages: List[MessageRecord] = field(default_factory=list)
    decisions: Dict[int, DecisionRecord] = field(default_factory=dict)
    proposals: Dict[int, ProposalRecord] = field(default_factory=dict)
    crashes: Dict[int, float] = field(default_factory=dict)
    recoveries: Dict[int, float] = field(default_factory=dict)
    timers: List[TimerRecord] = field(default_factory=list)
    end_time: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # recording (used by the scheduler)
    # ------------------------------------------------------------------ #
    def record_send(
        self,
        msg_id: int,
        src: int,
        dst: int,
        payload: Any,
        send_time: float,
        recv_time: float,
        counted: bool,
        module: str = "main",
    ) -> MessageRecord:
        # positional, in the dataclass's own field order: one record per
        # message at the full level, and keywords cost twice as much
        rec = MessageRecord(msg_id, src, dst, payload, send_time, recv_time, counted, module)
        self.messages.append(rec)
        return rec

    def record_decision(self, pid: int, value: Any, time: float) -> None:
        self.decisions[pid] = DecisionRecord(pid=pid, value=value, time=time)

    def record_proposal(self, pid: int, value: Any, time: float) -> None:
        self.proposals[pid] = ProposalRecord(pid=pid, value=value, time=time)

    def record_crash(self, pid: int, time: float) -> None:
        self.crashes[pid] = time

    def record_recovery(self, pid: int, time: float) -> None:
        self.recoveries[pid] = time

    def record_timer(self, pid: int, name: str, time: float) -> None:
        self.timers.append(TimerRecord(pid=pid, name=name, time=time))

    def adjust_recv_time(self, old_time: float, new_time: float) -> None:
        """Account for a delivery rescheduled by a schedule controller.

        At the full level the scheduler mutates the pending
        :class:`MessageRecord` directly (it holds the record by msg id), so
        this is a no-op; :class:`CounterTrace` overrides it to move one
        occurrence between buckets of its receive-time digest.
        """

    # ------------------------------------------------------------------ #
    # queries (used by metrics and the property checker)
    # ------------------------------------------------------------------ #
    def correct_pids(self) -> List[int]:
        """Processes that never crash in this execution."""
        return [pid for pid in range(1, self.n + 1) if pid not in self.crashes]

    def votes(self) -> Dict[int, Any]:
        return {pid: rec.value for pid, rec in self.proposals.items()}

    def last_decision_time(self) -> Optional[float]:
        if not self.decisions:
            return None
        return max(rec.time for rec in self.decisions.values())

    def first_decision_time(self) -> Optional[float]:
        if not self.decisions:
            return None
        return min(rec.time for rec in self.decisions.values())

    def counted_messages(self, module: Optional[str] = None) -> List[MessageRecord]:
        """Messages that count towards the paper's message complexity."""
        records = [m for m in self.messages if m.counted]
        if module is not None:
            records = [m for m in records if m.module == module]
        return records

    def message_count(self, module: Optional[str] = None) -> int:
        return len(self.counted_messages(module))

    def messages_received_by(self, deadline: float) -> int:
        """Messages whose *reception* happens at or before ``deadline``.

        This is the accounting the paper uses when counting the messages of a
        nice execution: messages still in flight when the last process decides
        (e.g. 1NBAC's ``[D, d]`` round) are not charged to the best case.
        """
        return sum(1 for m in self.counted_messages() if m.recv_time <= deadline + 1e-9)

    def module_histogram(self) -> Dict[str, int]:
        """Counted messages per module tag (``"main"``, ``"consensus[...]"``, ...).

        Available at every trace level — the counters level maintains the
        per-module tallies directly instead of deriving them from records.
        """
        histogram: Dict[str, int] = {}
        for record in self.messages:
            if record.counted:
                histogram[record.module] = histogram.get(record.module, 0) + 1
        return histogram

    def causal_depth(self) -> int:
        """Length of the longest chain of causally ordered counted messages.

        A chain ``m1, ..., ml`` is causal when each ``m_{i+1}`` leaves its
        source no earlier than ``m_i`` arrived there (Definition 2 in the
        paper).  This is an alternative, time-free view of "message delays".
        """
        messages = sorted(self.counted_messages(), key=lambda m: m.recv_time)
        depth_at_arrival: Dict[int, List[Tuple[float, int]]] = {}
        best = 0
        for m in messages:
            # longest chain ending with a message that arrived at m.src before m left
            prior = depth_at_arrival.get(m.src, [])
            inherited = 0
            for arrival, depth in prior:
                if arrival <= m.send_time + 1e-9:
                    inherited = max(inherited, depth)
            my_depth = inherited + 1
            depth_at_arrival.setdefault(m.dst, []).append((m.recv_time, my_depth))
            best = max(best, my_depth)
        return best

    # ------------------------------------------------------------------ #
    # canonical fingerprint (replay-determinism checks)
    # ------------------------------------------------------------------ #
    def _canonical(self) -> Dict[str, Any]:
        """Plain-data view of everything the trace recorded, in a fixed order."""
        canonical = {
            "level": self.trace_level,
            "n": self.n,
            "f": self.f,
            # the unit of time, kept in the view so fingerprints stay stable
            "u": U,
            "protocol": self.protocol,
            "messages": [
                [m.msg_id, m.src, m.dst, repr(m.payload), m.send_time,
                 m.recv_time, m.counted, m.module, m.delivered]
                for m in self.messages
            ],
            "decisions": {
                str(pid): [repr(rec.value), rec.time]
                for pid, rec in sorted(self.decisions.items())
            },
            "proposals": {
                str(pid): [repr(rec.value), rec.time]
                for pid, rec in sorted(self.proposals.items())
            },
            "crashes": {str(pid): t for pid, t in sorted(self.crashes.items())},
            "timers": [[t.pid, t.name, t.time] for t in self.timers],
            "end_time": self.end_time,
        }
        # recovery-free runs keep the exact canonical shape (and therefore
        # fingerprints) they had before recoveries existed
        if self.recoveries:
            canonical["recoveries"] = {
                str(pid): t for pid, t in sorted(self.recoveries.items())
            }
        return canonical

    def fingerprint(self) -> str:
        """Canonical digest of the recorded execution.

        Two runs of the same protocol under the same seeds, fault plan and
        schedule decisions must produce the same fingerprint — this is what
        the schedule-exploration subsystem's replay-determinism guarantees
        are asserted against.  Fingerprints are only comparable between
        traces of the same level (the counters level records strictly less).
        """
        canonical = json.dumps(
            self._canonical(), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(protocol={self.protocol!r}, n={self.n}, f={self.f}, "
            f"messages={self.message_count()}, decided={len(self.decisions)})"
        )


@dataclass
class CounterTrace(Trace):
    """Counters-only trace: aggregate tallies, no per-message records.

    Selected with ``trace_level="counters"`` on the scheduler.  Decisions,
    proposals and crashes are recorded exactly as in a full trace (they are
    O(n) per execution); messages are condensed on the fly into

    * ``counted_total`` — the counted-message total,
    * ``module_counts`` — counted messages per module tag,
    * ``recv_time_counts`` — receive time → multiplicity digest, from which
      ``messages_received_by`` answers exactly what a full trace would
      (the digest is bounded by the number of *distinct* receive times, not
      by the message count, for the deterministic delay models large sweeps
      use),

    so aggregate-level queries are byte-identical to a full-trace run while
    a trial never allocates a single :class:`MessageRecord`.  Per-message
    queries (``counted_messages``, ``causal_depth``) raise
    :class:`~repro.errors.SimulationError`: run at ``trace_level="full"``
    when an analysis needs them.
    """

    trace_level = "counters"

    counted_total: int = 0
    module_counts: Dict[str, int] = field(default_factory=dict)
    recv_time_counts: Dict[float, int] = field(default_factory=dict)
    timer_expiries: int = 0

    # ------------------------------------------------------------------ #
    # recording: tallies instead of records
    # ------------------------------------------------------------------ #
    def record_send(
        self,
        msg_id: int,
        src: int,
        dst: int,
        payload: Any,
        send_time: float,
        recv_time: float,
        counted: bool,
        module: str = "main",
    ) -> None:
        if counted:
            self.record_send_batch(payload, module, recv_time, 1)
        return None

    def record_send_batch(
        self, payload: Any, module: str, recv_time: Optional[float], count: int
    ) -> None:
        """Tally ``count`` counted messages of one broadcast in one call.

        They share payload, module and receive time — under a fixed delay
        that is the whole broadcast, so it costs one update of each tally
        however wide it is.
        """
        self.counted_total += count
        counts = self.module_counts
        counts[module] = counts.get(module, 0) + count
        if recv_time is not None:  # None on the wall clock: unknown at send time
            digest = self.recv_time_counts
            digest[recv_time] = digest.get(recv_time, 0) + count

    def record_timer(self, pid: int, name: str, time: float) -> None:
        self.timer_expiries += 1

    def adjust_recv_time(self, old_time: float, new_time: float) -> None:
        """Move one counted delivery between receive-time buckets.

        Called by the scheduler when a schedule controller defers a delivery
        (self-messages are never deferrable, so on the simulator the
        occurrence is always in the digest; a wall-clock record keeps no
        receive times, so there is nothing to move).
        """
        digest = self.recv_time_counts
        count = digest.get(old_time, 0)
        if not count:
            return
        if count == 1:
            digest.pop(old_time, None)
        else:
            digest[old_time] = count - 1
        digest[new_time] = digest.get(new_time, 0) + 1

    # ------------------------------------------------------------------ #
    # aggregate queries: answered from the tallies
    # ------------------------------------------------------------------ #
    def message_count(self, module: Optional[str] = None) -> int:
        if module is None:
            return self.counted_total
        return self.module_counts.get(module, 0)

    def messages_received_by(self, deadline: float) -> int:
        if self.counted_total and not self.recv_time_counts:
            raise SimulationError(  # never a silent 0
                "messages_received_by() needs receive times, which a "
                "wall-clock record does not keep"
            )
        cutoff = deadline + 1e-9
        return sum(
            count for time, count in self.recv_time_counts.items() if time <= cutoff
        )

    def module_histogram(self) -> Dict[str, int]:
        return dict(self.module_counts)

    # ------------------------------------------------------------------ #
    # per-message queries: not recorded at this level
    # ------------------------------------------------------------------ #
    def _unavailable(self, what: str) -> Exception:
        return SimulationError(
            f"{what} needs per-message records, which trace_level='counters' "
            f"does not keep; run with trace_level='full'"
        )

    def counted_messages(self, module: Optional[str] = None) -> List[MessageRecord]:
        raise self._unavailable("counted_messages()")

    def causal_depth(self) -> int:
        raise self._unavailable("causal_depth()")

    def _canonical(self) -> Dict[str, Any]:
        """Counters-level canonical view (strictly less than the full level)."""
        canonical = {
            "level": self.trace_level,
            "n": self.n,
            "f": self.f,
            "u": U,
            "protocol": self.protocol,
            "counted_total": self.counted_total,
            "module_counts": dict(sorted(self.module_counts.items())),
            "recv_time_counts": {
                str(t): c for t, c in sorted(self.recv_time_counts.items())
            },
            "timer_expiries": self.timer_expiries,
            "decisions": {
                str(pid): [repr(rec.value), rec.time]
                for pid, rec in sorted(self.decisions.items())
            },
            "proposals": {
                str(pid): [repr(rec.value), rec.time]
                for pid, rec in sorted(self.proposals.items())
            },
            "crashes": {str(pid): t for pid, t in sorted(self.crashes.items())},
            "end_time": self.end_time,
        }
        if self.recoveries:
            canonical["recoveries"] = {
                str(pid): t for pid, t in sorted(self.recoveries.items())
            }
        return canonical

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterTrace(protocol={self.protocol!r}, n={self.n}, f={self.f}, "
            f"messages={self.counted_total}, decided={len(self.decisions)})"
        )
