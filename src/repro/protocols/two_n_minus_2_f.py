"""(2n-2+f)NBAC — message-optimal indulgent atomic commit (Appendix E.6).

This protocol solves indulgent atomic commit (cell ``(AVT, AVT)``) with only
``2n - 2 + f`` messages in nice executions — the tight message lower bound of
Theorem 2 — at the price of a long chain of message delays (it is the
message-optimal counterpart of INBAC, which is delay-optimal).

Nice execution:

* a ``[V]`` chain ``P1 -> P2 -> ... -> Pn`` accumulates the AND of the votes
  (``n - 1`` messages);
* a ``[B]`` chain ``Pn -> P1 -> ... -> Pn`` carries the outcome back around
  the ring (``n`` messages), with ``Pf`` and all of ``P_{f+1}..P_n`` deciding
  as the chain passes them;
* a ``[Z]`` chain ``Pn -> P1 -> ... -> P_{f-1}`` (``f - 1`` messages, only
  when ``f >= 2``) lets the remaining backup processes decide.

Any process whose expected chain message does not arrive in time falls back to
the uniform-consensus module ``uc``; processes in the middle of the ring that
are left behind ask ``{P1..Pf, Pn}`` for help (``[HELP]`` / ``[HELPED]``).

Timers follow the Appendix E convention ("the timer starts at time 1 when the
first sending event happens").
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class TwoNMinus2PlusFNBAC(AtomicCommitProcess):
    """Indulgent atomic commit with ``2n - 2 + f`` messages in nice executions."""

    protocol_name = "(2n-2+f)NBAC"
    timer_origin_shift = 1.0
    consensus_name = "uc"

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.votes: int = COMMIT
        self.received_v = False
        self.received_b = False
        self.received_z = False
        self.phase = 0
        self.proposed = False

    def _propose_uc(self, value: int) -> None:
        if not self.proposed:
            self.proposed = True
            self.consensus().propose(value)

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.votes = self.votes and self.vote
        if self.pid == 1:
            self.send(2, ("V", self.votes))
            self.set_timer_units(self.n + 1)
            self.phase = 1
        else:
            self.set_timer_units(self.pid)

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V" and self.phase == 0:
            self.votes = self.votes and payload[1]
            self.received_v = True
        elif kind == "B" and self.phase == 1:
            self.votes = self.votes and payload[1]
            self.received_b = True
        elif kind == "Z" and self.phase == 2:
            self.votes = self.votes and payload[1]
            self.received_z = True
        elif kind == "HELP":
            if self.pid == self.n and self.phase == 1:
                self.send(src, ("HELPED", self.votes))
            elif 1 <= self.pid <= self.f and self.phase == 2:
                self.send(src, ("HELPED", self.votes))
        elif kind == "HELPED":
            self._propose_uc(payload[1])

    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 0:
            self._phase0_timeout()
        elif self.phase == 1:
            self._phase1_timeout()
        elif self.phase == 2:
            self._phase2_timeout()

    # ------------------------------------------------------------------ #
    # timeout bodies
    # ------------------------------------------------------------------ #
    def _phase0_timeout(self) -> None:
        if self.received_v:
            if self.pid == self.n:
                self.send(1, ("B", self.votes))
            else:
                self.send(self.pid + 1, ("V", self.votes))
        else:
            self.votes = ABORT
            self._propose_uc(ABORT)
        self.set_timer_units(self.n + self.pid)
        self.phase = 1

    def _phase1_timeout(self) -> None:
        if self.pid == self.f:
            if self.received_b:
                self.send(self.f + 1, ("B", self.votes))
                if not self.decided:
                    self.decide_once(self.votes)
            else:
                self.votes = ABORT
                self._propose_uc(ABORT)
            self.phase = 2
        elif self.pid == self.n:
            if self.received_b:
                if not self.decided:
                    self.decide_once(self.votes)
                if self.f >= 2:
                    self.send(1, ("Z", self.votes))
            else:
                self._propose_uc(self.votes)
        elif 1 <= self.pid <= self.f - 1:
            if self.received_b:
                self.send(self.pid + 1, ("B", self.votes))
            else:
                self.votes = ABORT
                self._propose_uc(ABORT)
            self.set_timer_units(2 * self.n + self.pid)
            self.phase = 2
        elif self.f + 1 <= self.pid <= self.n - 1:
            if self.received_b:
                self.send(self.pid + 1, ("B", self.votes))
                if not self.decided:
                    self.decide_once(self.votes)
            else:
                self.send_many((*self.first_f(), self.n), ("HELP",))

    def _phase2_timeout(self) -> None:
        if not 1 <= self.pid <= self.f - 1:
            return
        if self.received_z:
            if not self.decided:
                self.decide_once(self.votes)
            if self.f - 1 >= self.pid + 1:
                self.send(self.pid + 1, ("Z", self.votes))
        else:
            self._propose_uc(self.votes)
