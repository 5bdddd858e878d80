"""avNBAC — agreement + validity under both failure types (cell (AV, AV)).

The paper uses the name *avNBAC* for two different optimal protocols of the
same problem and notes that "the name is abused as the meaning is clear in the
context":

* :class:`AvNBACDelayOptimal` (Section 4.1) — delay-optimal: one message
  delay, at the cost of ``n(n-1)`` messages.  Every process broadcasts its
  vote; a process decides at the end of the first delay **iff** it collected
  all ``n`` votes, and never decides otherwise (termination is not required
  when a failure occurs).
* :class:`AvNBACMessageOptimal` (Appendix E.5) — message-optimal: ``2n - 2``
  messages.  Every process sends its vote to ``P_n``; ``P_n`` computes the
  AND, broadcasts it and decides; the others decide when (and only when) they
  receive the broadcast.

Both decide the logical AND of all ``n`` votes whenever they decide, which is
what gives agreement and validity in *every* execution, including
network-failure ones.
"""

from __future__ import annotations

from typing import Any, Set

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class AvNBACDelayOptimal(AtomicCommitProcess):
    """Delay-optimal avNBAC: decide after one message delay in nice executions."""

    protocol_name = "avNBAC-delay"

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.collection: Set[int] = set()
        self.votes_and: int = COMMIT

    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.votes_and = self.votes_and and self.vote
        self.send_all(("V", self.vote))
        self.set_timer(1)

    def on_deliver(self, src: int, payload: Any) -> None:
        if payload[0] == "V":
            self.collection.add(src)
            self.votes_and = self.votes_and and payload[1]

    def on_timeout(self, name: str) -> None:
        if name != "timer" or self.decided:
            return
        if self.collection == set(self.all_pids()):
            self.decide_once(self.votes_and)
        # otherwise a failure occurred: the process never decides, which is
        # allowed because termination is not required outside failure-free
        # executions for this problem


class AvNBACMessageOptimal(AtomicCommitProcess):
    """Message-optimal avNBAC (Appendix E.5): ``2n - 2`` messages.

    The Appendix E timers "start at time 1 when the first sending event
    happens", hence :attr:`timer_origin_shift`.
    """

    protocol_name = "avNBAC"
    timer_origin_shift = 1.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.votes: int = COMMIT
        self.received_b = False
        self.collection: Set[int] = {pid}

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

    def on_timeout(self, name: str) -> None:
        if name != "timer" or self.decided:
            return
        if self.pid == self.n:
            if self.collection == set(self.all_pids()):
                self.send_all(("B", self.votes))
                self.decide_once(self.votes)
        else:
            if self.received_b:
                self.decide_once(self.votes)
