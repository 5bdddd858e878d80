"""Three-phase commit (3PC, Skeen 1981).

3PC removes 2PC's blocking under pure crash failures by inserting a
*pre-commit* phase: the coordinator only commits after every participant has
acknowledged that it is prepared to commit, so a recovering cohort can always
deduce a safe outcome.  The price is one extra message delay and ``2n - 2``
extra messages per transaction — the overhead the paper quotes in Section 6.2.

As the paper (and Keidar & Dolev, Gray & Lamport) point out, 3PC's termination
protocol does not handle network failures correctly: two concurrently elected
backup coordinators can drive the cohort to conflicting decisions.  The
robustness-matrix experiment exhibits this with an adversarial delay schedule.
The implementation here follows the classical description: a simplified
termination protocol in which cohorts that time out broadcast their state and
commit if anyone reached the pre-committed state, abort otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess, logical_and

# cohort states
_Q = "initial"
_WAIT = "waiting"
_PRECOMMIT = "pre-committed"
_ABORTED = "aborted"
_COMMITTED = "committed"


class ThreePhaseCommit(AtomicCommitProcess):
    """3PC with a fixed coordinator and the classical termination protocol."""

    protocol_name = "3PC"
    #: the coordinator is P1 (the paper's Table 5)
    coordinator = 1

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.state = _Q
        self._votes: Dict[int, int] = {}
        self._acks: Set[int] = set()
        self._recovery_states: Dict[int, str] = {}
        self._in_recovery = False

    @property
    def is_coordinator(self) -> bool:
        return self.pid == self.coordinator

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.state = _WAIT
        if self.is_coordinator:
            self._votes[self.pid] = self.vote
            self.set_timer(1, name="votes")
        else:
            self.send(self.coordinator, ("VOTE", self.vote))
            if self.vote == ABORT:
                self.state = _ABORTED
                self.decide_once(ABORT)
            else:
                # expect a PRECOMMIT/ABORT within two delays, else run recovery
                self.set_timer(2.5, name="await-precommit")

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "VOTE" and self.is_coordinator:
            self._votes[src] = payload[1]
        elif kind == "PRECOMMIT":
            if self.state == _WAIT:
                self.state = _PRECOMMIT
                self.send(src, ("ACK",))
                self.set_timer(self.now() + 2.5, name="await-commit")
        elif kind == "ACK" and self.is_coordinator:
            self._acks.add(src)
            if len(self._acks) == self.n - 1:
                self._broadcast_commit()
        elif kind == "GLOBAL-ABORT":
            self.state = _ABORTED
            self.decide_once(ABORT)
        elif kind == "GLOBAL-COMMIT":
            self.state = _COMMITTED
            self.decide_once(COMMIT)
        elif kind == "STATE-REQ":
            self.send(src, ("STATE", self.state))
        elif kind == "STATE" and self._in_recovery:
            self._recovery_states[src] = payload[1]

    def on_timeout(self, name: str) -> None:
        if name == "votes" and self.is_coordinator:
            if len(self._votes) == self.n and logical_and(self._votes.values()) == COMMIT:
                self.state = _PRECOMMIT
                self.send_all(("PRECOMMIT",), include_self=False)
                self.set_timer(self.now() + 2.5, name="acks")
            else:
                self.state = _ABORTED
                self.send_all(("GLOBAL-ABORT",), include_self=False)
                self.decide_once(ABORT)
        elif name == "acks" and self.is_coordinator and self.state == _PRECOMMIT:
            if len(self._acks) < self.n - 1 and not self.decided:
                # some cohort is unreachable; commit is still safe because
                # every cohort is at least prepared (classical 3PC rule)
                self._broadcast_commit()
        elif name == "await-precommit" and not self.decided and self.state == _WAIT:
            self._start_recovery()
        elif name == "await-commit" and not self.decided and self.state == _PRECOMMIT:
            self._start_recovery()
        elif name == "recovery-collect" and self._in_recovery and not self.decided:
            self._finish_recovery()

    # ------------------------------------------------------------------ #
    # coordinator helpers
    # ------------------------------------------------------------------ #
    def _broadcast_commit(self) -> None:
        if self.decided:
            return
        self.state = _COMMITTED
        self.send_all(("GLOBAL-COMMIT",), include_self=False)
        self.decide_once(COMMIT)

    # ------------------------------------------------------------------ #
    # termination (recovery) protocol
    # ------------------------------------------------------------------ #
    def _start_recovery(self) -> None:
        if self._in_recovery or self.decided:
            return
        self._in_recovery = True
        self._recovery_states = {self.pid: self.state}
        self.send_all(("STATE-REQ",), include_self=False)
        self.set_timer(self.now() + 2.5, name="recovery-collect")

    def _finish_recovery(self) -> None:
        states = set(self._recovery_states.values())
        if _COMMITTED in states or _PRECOMMIT in states:
            outcome = COMMIT
        else:
            outcome = ABORT
        self.state = _COMMITTED if outcome == COMMIT else _ABORTED
        self.send_all(
            ("GLOBAL-COMMIT",) if outcome == COMMIT else ("GLOBAL-ABORT",),
            include_self=False,
        )
        self.decide_once(outcome)
