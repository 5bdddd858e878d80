"""Transaction phase spans of a cluster run, read off its report.

:meth:`TraceContext.from_report` turns a finished run's
:class:`~repro.db.cluster.ClusterReport` into one :class:`Span` per protocol
phase, timestamped in the run's own time base — virtual units U under the
simulator (deterministic: a fixed seed reproduces every span byte for byte),
wall-clock units under the asyncio runtime.  Nothing is attached before the
run: every fact a span holds is already in the report, so the view works on
any finished run, a sweep's cluster trial or a live service's shutdown
report alike.  The phases mirror the commit protocol's life cycle (and the
paper's latency accounting — *where the message delays go*):

* ``EXEC`` — coordinator: each submission until the commit-round start it
  carried (``TransactionOutcome.submissions``; ``attempt`` counts them);
* ``PREPARE-vote`` — partition: EXEC receipt (locks taken, WAL ``PREPARE``
  appended, vote derived) until the commit round starts (the ``PREPARE``
  record's ``timestamp``, ``round_start`` and ``vote``);
* ``decision`` — partition: commit-round start until the ``COMMIT`` /
  ``ABORT`` record the embedded commit protocol's decision logged;
* ``DONE`` — coordinator: first participant decision until the ``DONE`` ack
  lands at the client (the report's ack latency);
* ``txn`` — coordinator: the acknowledged submission until its ack;
* ``OUTCOME?`` — rejoined partition: the rejoin
  (``RecoveryEvent.rejoined_at``) until the outcome record its termination
  query installed.

Spans never touch a trace or sweep fingerprint: they are computed after the
run from what it recorded.  ``to_chrome()`` renders the Chrome trace-event
JSON consumed by ``chrome://tracing`` / Perfetto; ``python -m
repro.obs.export`` wraps it in a CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: the per-phase span names a commit transaction produces (in phase order)
TXN_PHASES = ("EXEC", "PREPARE-vote", "decision", "DONE")

#: microseconds per unit of U in the Chrome export: one unit renders as 1 ms
CHROME_US_PER_UNIT = 1000.0


@dataclass
class Span:
    """One closed interval of one transaction on one process."""

    name: str
    txn_id: str
    pid: int
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "txn_id": self.txn_id,
            "pid": self.pid,
            "start": self.start,
            "end": self.end,
            "args": {key: self.args[key] for key in sorted(self.args)},
        }


@dataclass
class TraceContext:
    """The phase spans of one cluster run.

    ``clock`` labels the time base ("units" under the simulator, "wall-units"
    under asyncio) — purely descriptive, the numbers are the run's own.
    """

    spans: List[Span] = field(default_factory=list)
    clock: str = "units"

    @classmethod
    def from_report(cls, report: Any) -> "TraceContext":
        """Read the spans off a finished run's ``ClusterReport``.

        The coordinator's spans come from each transaction outcome (its
        submissions, first decision and ack), a partition's from its
        write-ahead log, and ``OUTCOME?`` from the recovery events: an
        outcome record of a transaction in doubt at a rejoin was installed
        by its termination query.  A span that would end before it starts
        (a commit round decided before its start time) is zero-length.
        """
        # imported here only: `python -m repro.obs.export --help` stays instant
        from repro.db.wal import COMMIT as WAL_COMMIT
        from repro.db.wal import PREPARE
        from repro.protocols.base import ABORT, COMMIT

        spans: List[Span] = []

        def add(name, txn_id, pid, start, end, **args) -> None:
            spans.append(Span(name, txn_id, pid, start, max(end, start), args))

        client = report.num_partitions + 1
        for outcome in report.outcomes:
            txn_id, decision = outcome.txn_id, outcome.decision
            for attempt, (sent_at, starts_at) in enumerate(outcome.submissions, 1):
                add("EXEC", txn_id, client, sent_at, starts_at, attempt=attempt)
            if outcome.completed:
                # the envelope of the submission that was acknowledged
                last_sent = outcome.sent_times[-1]
                add("txn", txn_id, client, last_sent, outcome.ack_time, decision=decision)
                add("DONE", txn_id, client, outcome.decide_time, outcome.ack_time,
                    decision=decision)
        # (pid, txn id) -> the last rejoin that found the transaction in doubt
        rejoined_at: Dict[Tuple[int, str], float] = {}
        for event in report.recovery_events:
            for txn_id in event.in_doubt_at_rejoin:
                rejoined_at[(event.pid, txn_id)] = event.rejoined_at
        for pid, records in report.wal_records.items():
            round_start: Dict[str, float] = {}
            for record in records:
                txn_id, at = record.txn_id, record.timestamp
                if record.kind == PREPARE:
                    # the propose timer fires at the round start, or at once
                    round_start[txn_id] = max(record.round_start, at)
                    add("PREPARE-vote", txn_id, pid, at, round_start[txn_id],
                        vote=record.vote)
                    continue
                decision = COMMIT if record.kind == WAL_COMMIT else ABORT
                if (pid, txn_id) in rejoined_at:
                    add("OUTCOME?", txn_id, pid, rejoined_at[(pid, txn_id)], at,
                        decision=decision)
                else:
                    add("decision", txn_id, pid, round_start[txn_id], at,
                        decision=decision)
        return cls(spans, "units" if report.backend == "sim" else "wall-units")

    # -- queries ------------------------------------------------------------- #
    def transaction_ids(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.txn_id not in seen:
                seen.append(span.txn_id)
        return seen

    # -- export -------------------------------------------------------------- #
    def to_jsonable(self) -> Dict[str, Any]:
        ordered = sorted(
            self.spans, key=lambda s: (s.start, s.pid, s.txn_id, s.name, s.end)
        )
        return {
            "clock": self.clock,
            "spans": [span.to_jsonable() for span in ordered],
        }

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: one complete ("X") event per span.

        Times are scaled by :data:`CHROME_US_PER_UNIT` (one unit shows as one
        millisecond) and the scale is recorded in ``otherData.us_per_unit``.

        The track layout puts every process on its own ``pid`` row with one
        ``tid`` lane per transaction (lanes numbered by first appearance in
        start order), so a commit's critical path reads left to right in
        ``chrome://tracing``.  Event order is canonical (sorted), so a
        fixed-seed simulator run exports byte-identical JSON.
        """
        ordered = sorted(
            self.spans, key=lambda s: (s.start, s.pid, s.txn_id, s.name, s.end)
        )
        lane_of: Dict[str, int] = {}
        for span in ordered:
            if span.txn_id not in lane_of:
                lane_of[span.txn_id] = len(lane_of) + 1
        events: List[Dict[str, Any]] = []
        for pid in sorted({span.pid for span in ordered}):
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"P{pid}"},
                }
            )
        for span in ordered:
            args = {key: span.args[key] for key in sorted(span.args)}
            args["txn_id"] = span.txn_id
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "txn",
                    "pid": span.pid,
                    "tid": lane_of[span.txn_id],
                    "ts": round(span.start * CHROME_US_PER_UNIT, 3),
                    "dur": round(span.duration * CHROME_US_PER_UNIT, 3),
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": self.clock, "us_per_unit": CHROME_US_PER_UNIT},
        }

    def chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True, indent=2)


__all__ = ["CHROME_US_PER_UNIT", "Span", "TXN_PHASES", "TraceContext"]
