"""(n-1+f)NBAC — the message-optimal synchronous NBAC protocol (Appendix E.2).

This protocol solves NBAC in every crash-failure execution and additionally
satisfies termination in every network-failure execution (cell ``(AVT, T)``),
while exchanging only ``n - 1 + f`` messages in nice executions — matching the
paper's generalisation of Dwork and Skeen's ``2n - 2`` lower bound to an
arbitrary number of crashes ``f``.

The nice execution is a chain: ``P1 -> P2 -> ... -> Pn -> P1 -> ... -> Pf``,
each process forwarding the running AND of the votes seen so far.  The last
``2f + 1`` timer units are spent "nooping": a process that hears nothing
during the nooping period concludes (implicitly) that every vote was 1 and
decides commit.  If anything goes wrong, 0s are flooded so that every process
learns about the abort before the nooping period ends.

Timers follow the Appendix E convention ("the timer starts at time 1 when the
first sending event happens"), hence :attr:`timer_origin_shift`.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import ABORT, COMMIT, AtomicCommitProcess


class NMinus1PlusFNBAC(AtomicCommitProcess):
    """Synchronous NBAC with ``n - 1 + f`` messages in nice executions."""

    protocol_name = "(n-1+f)NBAC"
    timer_origin_shift = 1.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.decision_var: int = COMMIT
        self.delivered = False
        self.phase = 0
        self._forwarded_zero = False

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        self.vote = COMMIT if value else ABORT
        self.decision_var = self.vote
        if self.pid == 1:
            self.send(2, ("CHAIN", self.decision_var))
            self.set_timer_units(self.n + 1)
            self.phase = 2
        else:
            self.set_timer_units(self.pid)
            self.phase = 1

    def on_deliver(self, src: int, payload: Any) -> None:
        if payload[0] != "CHAIN":
            return
        value = payload[1]
        self.decision_var = self.decision_var and value
        if self.phase <= 2:
            if src == self.mod_index(self.pid - 1):
                self.delivered = True
        elif not self.decided:
            # phase 3: propagate the (necessarily aborting) outcome so that
            # every correct process hears a 0 before it decides.  The paper's
            # pseudocode re-broadcasts on every delivery; forwarding once per
            # process is sufficient for the agreement argument and avoids an
            # exponential flood in large failure scenarios.
            if self.decision_var == ABORT and not self._forwarded_zero:
                self._forwarded_zero = True
                self.send_all(("CHAIN", self.decision_var))

    def on_timeout(self, name: str) -> None:
        if name != "timer":
            return
        if self.phase == 1:
            self._phase1_timeout()
        elif self.phase == 2:
            self._phase2_timeout()
        elif self.phase == 3:
            self.decide_once(self.decision_var)

    # ------------------------------------------------------------------ #
    # timeout bodies
    # ------------------------------------------------------------------ #
    def _phase1_timeout(self) -> None:
        if not self.delivered:
            self.decision_var = ABORT
        if self.decision_var == COMMIT:
            self.send(self.mod_index(self.pid + 1), ("CHAIN", self.decision_var))
        elif self.pid == self.n:
            self.send_all(("CHAIN", self.decision_var))
        self.delivered = False
        if self.pid >= self.f + 1:
            self.set_timer_units(self.n + 2 * self.f + 1)
            self.phase = 3
        else:
            self.set_timer_units(self.n + self.pid)
            self.phase = 2

    def _phase2_timeout(self) -> None:
        if not self.delivered:
            self.decision_var = ABORT
        if self.decision_var == COMMIT and self.pid != self.f:
            self.send(self.mod_index(self.pid + 1), ("CHAIN", self.decision_var))
        if self.decision_var == ABORT:
            self.send_all(("CHAIN", self.decision_var))
        self.delivered = False
        self.set_timer_units(self.n + 2 * self.f + 1)
        self.phase = 3
