"""(2n-2)NBAC — message-optimal protocol for cell (AVT, VT) (Appendix E.4).

The protocol solves NBAC in every crash-failure execution and preserves
validity and termination in every network-failure execution with ``2n - 2``
messages in nice executions: every process sends its vote to ``P_n``, ``P_n``
broadcasts the logical AND, and everyone then "noops" for ``f + 1`` message
delays so that, in a crash-failure execution, at least one process always
succeeds in flooding a 0 before anybody commits (the agreement argument of the
appendix).

Timers follow the Appendix E convention ("the timer starts at time 1 when the
first sending event happens").
"""

from __future__ import annotations

from typing import Any, Set

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class TwoNMinus2NBAC(AtomicCommitProcess):
    """``2n - 2`` messages in every nice execution."""

    protocol_name = "(2n-2)NBAC"
    timer_origin_shift = 1.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.votes: int = COMMIT
        self.received_b = False
        self.phase = 0
        self.collection: Set[int] = {pid}
        self._forwarded_zero = False

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.votes = self.votes and self.vote
        if 1 <= self.pid <= self.n - 1:
            self.send(self.n, ("V", self.vote))
            self.set_timer_units(3)
        else:
            self.set_timer_units(2)

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V":
            self.votes = self.votes and payload[1]
            self.collection.add(src)
        elif kind == "B":
            self.received_b = True
            self.votes = payload[1]
            if self.votes == ABORT and not self._forwarded_zero:
                # relay the abort so that every correct process hears it
                # before the nooping period ends (forwarding once per process
                # is sufficient for the agreement argument)
                self._forwarded_zero = True
                self.send_all(("B", ABORT))

    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 0 and self.pid == self.n:
            if self.votes == COMMIT and self.collection == set(self.all_pids()):
                self.send_all(("B", COMMIT))
            else:
                self.votes = ABORT
                self.send_all(("B", ABORT))
            self.set_timer_units(3 + self.f)
            self.phase = 1
        elif self.phase == 0:
            if not self.received_b:
                self.send_all(("B", ABORT))
                self.votes = ABORT
            self.set_timer_units(3 + self.f)
            self.phase = 1
        elif self.phase == 1 and not self.decided:
            self.decide_once(self.votes)
