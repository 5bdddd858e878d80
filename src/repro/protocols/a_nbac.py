"""aNBAC — message-optimal protocol for cell (AV, A) (Appendix E.3).

aNBAC guarantees agreement and validity in every crash-failure execution and
agreement in every network-failure execution, with only ``n - 1 + f`` messages
in nice executions.  It composes two mechanisms:

* the (n-1+f)NBAC **chain** (``P1 -> ... -> Pn -> P1 -> ... -> Pf``) carrying
  the running AND of the votes, used to *commit*;
* a 0NBAC-style **abort path** (``[V, 0]`` broadcasts from no-voters, ``[B,
  0]`` relays from yes-voters, acknowledged hop by hop), used to *abort* —
  and, crucially, a process only decides 0 after collecting acknowledgements
  from *everyone*, which is what preserves agreement when timing assumptions
  break (a process that already decided 1 refuses to acknowledge).

Termination is only promised in failure-free executions; when the
acknowledgement collection is incomplete a process sets ``noop`` and never
decides (there is no consensus fallback in this protocol).
"""

from __future__ import annotations

from typing import Any, Set

from repro.protocols.base import ABORT, COMMIT
from repro.protocols.n1f_nbac import NMinus1PlusFNBAC


class ANBAC(NMinus1PlusFNBAC):
    """Agreement/validity under crashes, agreement under network failures."""

    protocol_name = "aNBAC"
    timer_origin_shift = 1.0

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.delivered_v = False
        self.collection_v: Set[int] = set()
        self.collection_b: Set[int] = set()
        self.noop = False
        self.phase0 = 0

    # ------------------------------------------------------------------ #
    # events
    # ------------------------------------------------------------------ #
    def on_propose(self, value: Any) -> None:
        super().on_propose(value)
        if self.vote == ABORT:
            self.send_all(("V", ABORT))
            self.set_timer_units(3, name="timer0")
        else:
            self.set_timer_units(2, name="timer0")

    def on_deliver(self, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "V":
            self.decision_var = ABORT
            self.delivered_v = True
            self.send(src, ("ACK", "V"))
        elif kind == "B":
            self.decision_var = ABORT
            self.send(src, ("ACK", "B"))
        elif kind == "ACK":
            if payload[1] == "V":
                self.collection_v.add(src)
            else:
                self.collection_b.add(src)
        else:
            super().on_deliver(src, payload)

    def on_timeout(self, name: str) -> None:
        if name == "timer0":
            self._timer0_timeout()
            return
        if name == "timer" and self.phase == 3:
            # unlike (n-1+f)NBAC, only a clean all-ones chain may commit here
            if not self.decided and self.decision_var == COMMIT and not self.noop:
                self.decide_once(COMMIT)
            return
        super().on_timeout(name)

    # ------------------------------------------------------------------ #
    # the abort path (0NBAC-style acknowledgements)
    # ------------------------------------------------------------------ #
    def _timer0_timeout(self) -> None:
        if self.vote == COMMIT and self.delivered_v and self.phase0 == 0:
            self.send_all(("B", ABORT))
            self.set_timer_units(4, name="timer0")
            self.phase0 = 1
            return
        if self.vote == ABORT:
            if self.collection_v == set(self.all_pids()) and not self.decided:
                self.decide_once(ABORT)
            else:
                self.noop = True
            return
        if self.vote == COMMIT and self.delivered_v and self.phase0 == 1:
            if self.collection_b == set(self.all_pids()) and not self.decided:
                self.decide_once(ABORT)
            else:
                self.noop = True
