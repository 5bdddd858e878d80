"""Deliberately broken commit protocols for the anomaly-hunting tests.

Not a test module (no ``test_`` prefix): these classes are fixtures imported
by ``tests/test_explore_cluster.py`` and ``tests/test_db_invariants.py`` to
prove that the cluster-invariant battery plus
schedule exploration actually *catches* bugs — every real protocol passes the
same battery clean, so a positive control is needed.
"""

from __future__ import annotations

from repro.protocols.base import ABORT, COMMIT
from repro.protocols.two_phase import TwoPhaseCommit


class SplitBrainCommit(TwoPhaseCommit):
    """2PC with an injected split-brain bug in the coordinator's timeout path.

    Correct 2PC aborts when a vote is missing at the end of the collection
    round (some participant crashed or its vote is late).  This subclass
    instead sends ``ABORT`` to the first half of the participants and
    ``COMMIT`` to the rest — so the bug is invisible in every nice execution
    (all votes arrive, the inherited path runs) and fires exactly when an
    adversarial schedule crashes a participant or defers a vote past the
    collect timer.  Partitions then apply a transaction other partitions
    aborted: a transaction-atomicity violation the cluster-invariant battery
    reports and ``explore(preset="cluster-anomaly")`` shrinks to a 1-minimal
    counterexample.
    """

    protocol_name = "SplitBrain2PC"

    def on_timeout(self, name: str) -> None:
        if name != "collect" or not self.is_coordinator or self._outcome_sent:
            return
        if len(self._votes) == self.n:
            # every vote arrived: behave exactly like correct 2PC
            super().on_timeout(name)
            return
        self._outcome_sent = True
        others = self.other_pids()
        half = len(others) // 2
        for q in others[:half]:
            self.send(q, ("OUTCOME", ABORT))
        for q in others[half:]:
            self.send(q, ("OUTCOME", COMMIT))  # the bug: a second outcome
        self.decide_once(ABORT)
