"""ROADMAP item 1's counterexample, pinned: INBAC decides on a late ack.

INBAC's cell is ``(CF=AVT, NF=AVT)`` — agreement in *every* network-failure
execution — and this seven-deferral schedule at n=3, f=1, all-yes, no crash,
breaks it: ``{2: 1, 1: 0, 3: 0}``.  The test is a **strict xfail**: it states
the property that must hold, fails today, and must turn green in the PR that
fixes the protocol (the only PR allowed to re-pin ``bench/pins.json``).
Nothing here changes a byte of the protocol; do not "fix" it from this side.
"""

from __future__ import annotations

import pytest

from repro.core.checker import check_nbac
from repro.explore.strategies import ReplayController
from repro.protocols.inbac import INBAC
from repro.sim.runner import Simulation

#: (event index, "defer", extra delay in U): shrunk by the explorer from
#: ``explore("INBAC", n=3, f=1, budget=600, strategy="random-walk",
#: params=dict(defer_prob=0.3, crash_prob=0.0, max_defers=60), seed=11)``
DEFERRALS = [
    (4, "defer", 0.7), (11, "defer", 1.0), (12, "defer", 1.0), (24, "defer", 1.6),
    (27, "defer", 0.7), (29, "defer", 2.5), (31, "defer", 2.5),
]


def _replay():
    return Simulation(n=3, f=1, process_class=INBAC).run(
        [1, 1, 1], controller=ReplayController(decisions=list(DEFERRALS))
    )


def test_the_schedule_still_replays_to_the_split_decision():
    """The pin itself (passes today): what the xfail below is about."""
    result = _replay()
    assert result.trace.metadata["execution_class"] == "network-failure"
    assert result.decisions() == {2: 1, 1: 0, 3: 0}
    assert [result.processes[pid].branch for pid in (1, 2, 3)] == [
        "acks-incomplete/cons-propose-AND",
        "no-ack-from-backups/ask-for-more-acks",
        "no-ack-from-backups/ask-for-more-acks",
    ]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: INBAC decides on a late ack")
def test_inbac_agrees_under_the_late_ack_schedule():
    """f=1, so P1 is the only backup and P2 is ``P_{f+1}``.  Per message
    (send -> receive, in U; ``*`` = deferred by the schedule):

    ====  ==========================  ===========  ===========================
    time  message                     arrives      effect
    ====  ==========================  ===========  ===========================
    0     P1 -> P2  ``V 1``           1.7 *        late: P2's ack to P1 is ()
    0     P2, P3 -> P1  ``V 1``       1.0          P1 holds all three votes
    1     P2 -> P1  ``C ()``          2.0          P1: acks incomplete
    1     P1 -> P2  ``C {1,2,3}``     3.0 *        after P2's timeout at 2
    1     P1 -> P3  ``C {1,2,3}``     4.6 *        after P3's timeout at 2
    2     P2, P3 timeout              —            both: no ack from backups,
                                                   ``wait``; freeze collection0
                                                   (own vote only), send HELP
    2     P1 timeout                  —            proposes AND(own full ack)
                                                   = 1 to ``iuc``
    3     P2 -> P3  ``HELPED {2}``    4.0          collection0 as frozen at 2
    3     P1's ``C`` reaches P2       —            P2 counts the late C plus
                                                   its own HELPED as n-f = 2,
                                                   ``_full_backups`` is met by
                                                   the late C: **decides 1
                                                   without consensus**
    4     P3 has two HELPED, 2 votes  —            proposes 0 to ``iuc``
    6-8   ``iuc`` ballot 3            —            decides 0: P1 and P3 decide 0
    ====  ==========================  ===========  ===========================

    The safety argument behind the fast decision — "whoever decides 1
    directly hands the full vote set to everyone it helps, because its
    ``collection0`` absorbed the acks at the timeout" — does not cover a
    direct decision taken on an ack that arrived *after* the freeze.
    """
    report = check_nbac(_replay().trace)
    assert report.agreement.holds, report.agreement.violations
