"""Two-phase commit (2PC), the classical baseline.

The paper's Table 5 compares INBAC against 2PC under the convention that every
process starts spontaneously: in a nice execution the ``n - 1`` participants
send their votes to the coordinator at time 0, the coordinator computes the
logical AND at the end of the first message delay and broadcasts the outcome,
and every participant decides at the end of the second message delay — 2
message delays and ``2n - 2`` messages.

2PC guarantees agreement and validity in every crash-failure *and*
network-failure execution but is **blocking**: if the coordinator crashes
after collecting votes and before broadcasting the outcome, the remaining
participants never decide (termination is violated), which is exactly the row
the robustness-matrix experiment reproduces.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess, logical_and


class TwoPhaseCommit(AtomicCommitProcess):
    """2PC with a fixed coordinator and spontaneous participant votes."""

    protocol_name = "2PC"
    #: the coordinator is P1 (the paper's Table 5)
    coordinator = 1

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self._votes: Dict[int, int] = {}
        self._outcome_sent = False

    @property
    def is_coordinator(self) -> bool:
        return self.pid == self.coordinator

    @property
    def finished(self) -> bool:
        """Proposed and decided: a late VOTE or OUTCOME sends nothing.

        Decided alone is not enough: a participant that learnt the outcome
        before its own propose still sends its VOTE when it proposes.
        """
        return self.decided and self.vote is not None

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        if self.is_coordinator:
            self._votes[self.pid] = self.vote
            # the coordinator waits one message delay for all votes
            self.set_timer(1, name="collect")
        else:
            self.send(self.coordinator, ("VOTE", self.vote))
            if self.vote == ABORT:
                # a participant voting no may abort unilaterally
                self.decide_once(ABORT)

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "VOTE" and self.is_coordinator:
            self._votes[src] = payload[1]
            if len(self._votes) == self.n and not self._outcome_sent:
                # all votes arrived early; the outcome still goes out at the
                # end of the first delay via the collect timer, matching the
                # synchronous accounting of the paper
                pass
        elif kind == "OUTCOME":
            self.decide_once(payload[1])

    def on_timeout(self, name: str) -> None:
        if name != "collect" or not self.is_coordinator or self._outcome_sent:
            return
        self._outcome_sent = True
        if len(self._votes) == self.n:
            outcome = logical_and(self._votes.values())
        else:
            # a vote is missing: some participant crashed or its message is
            # late; the coordinator aborts (a failure occurred, so validity
            # still holds)
            outcome = ABORT
        self.send_all(("OUTCOME", outcome), include_self=False)
        self.decide_once(outcome)
