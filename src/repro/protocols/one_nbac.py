"""1NBAC — the delay-optimal synchronous NBAC protocol (Appendix D).

1NBAC solves NBAC in every crash-failure execution and additionally satisfies
validity and termination in every network-failure execution (cell
``(AVT, VT)`` of Table 1).  In every nice execution every process decides the
logical AND of all ``n`` votes at the end of the **first** message delay,
which the paper proves is optimal — closing the three-decade-old question of
the time complexity of synchronous NBAC.  The price is the time/message
tradeoff: the all-to-all vote exchange costs ``n(n-1)`` messages.

The implementation follows the Appendix D pseudocode: votes are broadcast at
time 0; a process that has collected all ``n`` votes at time U broadcasts the
AND (the ``[D, d]`` round, only useful when something went wrong elsewhere)
and decides; a process missing votes waits one more delay for some ``[D, d]``
and otherwise falls back to the uniform-consensus module ``uc``.
"""

from __future__ import annotations

from typing import Any, Set

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class OneNBAC(AtomicCommitProcess):
    """Synchronous NBAC in one message delay (and ``n² - n`` messages)."""

    protocol_name = "1NBAC"

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.phase = 0
        self.proposed = False
        self.collection0: Set[int] = set()
        self.collection1: Set[int] = set()
        self.decision_var: int = COMMIT
        self.uc = self.make_consensus("uc")

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.decision_var = self.vote
        self.send_all(("V", self.vote))
        self.set_timer(1)

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V":
            self.collection0.add(src)
            self.decision_var = self.decision_var and payload[1]
        elif kind == "D":
            self.collection1.add(src)
            self.decision_var = payload[1]

    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 0:
            if self.collection0 == set(self.all_pids()):
                self.send_all(("D", self.decision_var))
                if not self.decided:
                    self.decide_once(self.decision_var)
            else:
                self.phase = 1
                self.set_timer(2)
        elif self.phase == 1:
            if not self.decided and not self.proposed:
                if not self.collection1:
                    self.decision_var = ABORT
                self.proposed = True
                self.uc.propose(self.decision_var)
