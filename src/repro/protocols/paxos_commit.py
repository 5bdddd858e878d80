"""Paxos Commit and Faster Paxos Commit (Gray & Lamport 2006) baselines.

The paper compares INBAC against Gray and Lamport's two indulgent commit
protocols in Table 5, under the convention that all processes start
spontaneously and with the normal-case optimisation of ``f + 1`` participating
acceptors co-located with the first ``f + 1`` resource managers (RMs):

* **Paxos Commit** — each RM sends a phase-2a message carrying its vote for
  its own Paxos instance to the ``f + 1`` acceptors; the acceptors forward
  their accepted state for all instances to the leader (``P1``); the leader
  declares the outcome and broadcasts it: **3 message delays** and
  ``nf + 2n - 2`` messages.
* **Faster Paxos Commit** — the acceptors broadcast their phase-2b state
  directly to every RM, which deduces the outcome itself: **2 message delays**
  and ``2fn + 2n - 2f - 2`` messages.

Fault handling is implemented in the same modular spirit as INBAC rather than
by replaying the full multi-instance Paxos machinery: an RM that cannot deduce
the outcome in time queries the acceptors (whose accepted state is exactly
what a recovering Paxos leader would read from a quorum) and then settles the
outcome through the shared uniform-consensus module.  A fast commit decision
is only ever taken when *every* acceptor reports *every* instance accepted
with vote 1, which guarantees that any later acceptor query also returns the
full set of 1-votes — the invariant that keeps fast decisions and
consensus-settled decisions in agreement (mirroring Lemma 5's
acknowledgement argument).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Mapping

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess, logical_and

#: the shared, read-only empty state of a process that was sent nothing
_NOTHING: Mapping = MappingProxyType({})


class _PaxosCommitBase(AtomicCommitProcess):
    """State shared by PaxosCommit and FasterPaxosCommit."""

    consensus_name = "uc"
    #: acceptor state: accepted vote per RM instance.  Only the ``f + 1``
    #: acceptors are sent ``P2A``; the first one gives the process its dict
    accepted: Mapping[int, int] = _NOTHING
    #: RM / leader view of the acceptors' phase-2b reports, by acceptor; in
    #: Paxos Commit only the leader is sent ``P2B``, and the first one gives
    #: the process its dict
    reports: Mapping[int, Dict[int, int]] = _NOTHING

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.proposed = False
        # wait before re-asking the acceptors; grows 1.5x per unanswered query
        self._query_backoff = 2.5

    # -- roles ------------------------------------------------------------ #
    def acceptors(self) -> range:
        """The ``f + 1`` acceptors, co-located with ``P1 .. P_{f+1}``."""
        return range(1, self.f + 2)

    @property
    def is_acceptor(self) -> bool:
        return self.pid <= self.f + 1

    @property
    def leader(self) -> int:
        return 1

    # -- consensus fallback ------------------------------------------------ #
    def _propose_uc(self, value: int) -> None:
        if not self.proposed and not self.decided:
            self.proposed = True
            self.consensus().propose(value)

    # -- shared helpers ----------------------------------------------------- #
    def _full_commit_reports(self, reports: Mapping[int, Dict[int, int]]) -> bool:
        """Every acceptor reported, and every instance is accepted with vote 1."""
        if set(reports) != set(self.acceptors()):
            return False
        for report in reports.values():
            if set(report) != set(self.all_pids()):
                return False
            if any(v != COMMIT for v in report.values()):
                return False
        return True

    def _start_query(self) -> None:
        """Ask the acceptors for their accepted state (the recovery read)."""
        self.send_many(self.acceptors(), ("QUERY",))
        self.set_timer(self.now() + self._query_backoff, name="query")

    def _handle_query_reply(self, src: int, report: Dict[int, int]) -> None:
        """Settle the outcome from one acceptor's accepted state.

        Safety argument (mirrors the paper's Lemma 5 reasoning): a fast commit
        decision is only taken when *every* acceptor has accepted vote 1 for
        *every* instance before broadcasting, so any later reply from any
        acceptor is necessarily complete and all-1.  Conversely a reply with a
        missing instance proves that no process fast-committed, so proposing
        abort cannot contradict a fast decision.
        """
        if self.decided or self.proposed:
            return
        if set(report) >= set(self.all_pids()):
            self._propose_uc(logical_and(report[pid] for pid in self.all_pids()))
        else:
            self._propose_uc(ABORT)

    def _query_timeout(self) -> None:
        if not self.decided and not self.proposed:
            # replies are late (network failure): keep asking — at least one
            # acceptor is correct and channels are reliable, so a reply
            # eventually arrives and settles the outcome through consensus
            self._query_backoff *= 1.5
            self._start_query()

    # -- common message handling -------------------------------------------- #
    def _accept_vote(self, rm: int, vote: int) -> None:
        if not self.accepted:
            self.accepted = {}
        self.accepted.setdefault(rm, vote)

    def _record_report(self, acceptor: int, report: Dict[int, int]) -> None:
        """Keep a copy of one acceptor's phase-2b report."""
        if not self.reports:
            self.reports = {}
        self.reports[acceptor] = dict(report)

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "P2A" and self.is_acceptor:
            self._accept_vote(payload[1], payload[2])
        elif kind == "QUERY" and self.is_acceptor:
            self.send(src, ("QREPLY", dict(self.accepted)))
        elif kind == "QREPLY":
            self._handle_query_reply(src, payload[1])
        else:
            self.on_deliver_protocol(src, payload)

    def on_deliver_protocol(self, src: int, payload: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_timeout(self, name: str) -> None:
        if name == "query":
            self._query_timeout()
        else:
            self.on_timeout_protocol(name)

    def on_timeout_protocol(self, name: str) -> None:  # pragma: no cover
        raise NotImplementedError


class PaxosCommit(_PaxosCommitBase):
    """Gray & Lamport's Paxos Commit: 3 delays, ``nf + 2n - 2`` messages."""

    protocol_name = "PaxosCommit"

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        # phase 2a for this RM's instance, sent to every acceptor
        self.send_many(self.acceptors(), ("P2A", self.pid, self.vote))
        if self.is_acceptor:
            self.set_timer(1, name="acceptor-report")
        if self.pid == self.leader:
            self.set_timer(2, name="leader-outcome")
        else:
            # an RM that has not heard the outcome within 4 delays recovers
            self.set_timer(4, name="rm-recover")

    def on_deliver_protocol(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "P2B" and self.pid == self.leader:
            self._record_report(src, payload[1])
        elif kind == "OUTCOME":
            self.decide_once(payload[1])

    def on_timeout_protocol(self, name: str) -> None:
        if name == "acceptor-report" and self.is_acceptor:
            # phase 2b: report the accepted state of all instances to the leader
            self.send(self.leader, ("P2B", dict(self.accepted)))
        elif name == "leader-outcome" and self.pid == self.leader:
            self._leader_outcome()
        elif name == "rm-recover" and not self.decided and not self.proposed:
            self._start_query()

    def _leader_outcome(self) -> None:
        if self.decided:
            return
        if self._full_commit_reports(self.reports):
            outcome = COMMIT
        elif any(
            ABORT in report.values() for report in self.reports.values()
        ):
            outcome = ABORT
        else:
            # some instance is unresolved (crash or late message): settle
            # through consensus after reading the acceptors
            self._start_query()
            return
        self.send_all(("OUTCOME", outcome), include_self=False)
        self.decide_once(outcome)


class FasterPaxosCommit(_PaxosCommitBase):
    """Faster Paxos Commit: 2 delays, ``2fn + 2n - 2f - 2`` messages."""

    protocol_name = "FasterPaxosCommit"

    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.send_many(self.acceptors(), ("P2A", self.pid, self.vote))
        if self.is_acceptor:
            self.set_timer(1, name="acceptor-broadcast")
        self.set_timer(2, name="rm-decide")

    def on_deliver_protocol(self, src: int, payload: Any) -> None:
        if payload[0] == "P2B":
            self._record_report(src, payload[1])

    def on_timeout_protocol(self, name: str) -> None:
        if name == "acceptor-broadcast" and self.is_acceptor:
            # phase 2b broadcast straight to every RM (the "faster" variant)
            # one snapshot for all: receivers copy the report, never mutate it
            self.send_all(("P2B", dict(self.accepted)))
        elif name == "rm-decide" and not self.decided and not self.proposed:
            if self._full_commit_reports(self.reports):
                self.decide_once(COMMIT)
            elif any(ABORT in report.values() for report in self.reports.values()):
                self._propose_uc(ABORT)
            else:
                self._start_query()
