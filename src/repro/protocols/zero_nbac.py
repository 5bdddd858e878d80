"""0NBAC — zero messages in nice executions (Appendix E.1).

0NBAC guarantees agreement and termination in every execution (cell
``(AT, AT)``) and solves NBAC in every failure-free execution, while sending
**no message at all** in nice executions: a process that votes 1 and receives
nothing by the end of the first message delay decides 1 by the *absence* of
messages (the paper's "implicit votes" technique).  It is simultaneously
message-optimal (0 messages) and delay-optimal (1 delay) for its problem — one
of the few cells with no time/message tradeoff.

Only processes that vote 0, or that learn of a 0 vote, ever send messages:
``[V, 0]`` from the no-voters, ``[B, 0]`` from yes-voters that saw a ``[V,
0]``, plus acknowledgements, and finally a round of uniform consensus to fix
the outcome.
"""

from __future__ import annotations

from typing import AbstractSet, Any

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class ZeroNBAC(AtomicCommitProcess):
    """0 messages and one message delay in every nice execution."""

    protocol_name = "0NBAC"
    consensus_name = "uc"
    #: who acknowledged this process' [V, 0] / [B, 0]; the first ACK gives
    #: the process its own set
    myack: AbstractSet[int] = frozenset()

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.myvote: int = COMMIT
        self.zero = False
        self.phase = 0

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.myvote = COMMIT if value else ABORT
        self.vote = self.myvote
        if self.myvote == ABORT:
            self.send_all(("V", ABORT))
        self.set_timer(1)
        self.phase = 1

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V" and self.phase == 1:
            self.zero = True
            self.send(src, ("ACK",))
        elif kind == "B" and self.phase == 2:
            if not (self.myvote == COMMIT and self.decided):
                self.send(src, ("ACK",))
        elif kind == "ACK":
            if not self.myack:
                self.myack = set()
            self.myack.add(src)

    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 1:
            self.phase = 2
            if not self.zero and self.myvote == COMMIT:
                # no [V, 0] arrived within one delay: everyone (implicitly)
                # voted 1, decide commit without having sent anything
                self.decide_once(COMMIT)
            elif self.zero and self.myvote == COMMIT:
                self.send_all(("B", ABORT))
                self.set_timer(3)
            else:  # myvote == ABORT
                self.set_timer(2)
        elif self.phase == 2 and not self.decided:
            # did every process acknowledge my [V, 0] / [B, 0] broadcast?
            if self.myack < set(self.all_pids()):
                self.consensus().propose(COMMIT)
            else:
                self.consensus().propose(ABORT)
