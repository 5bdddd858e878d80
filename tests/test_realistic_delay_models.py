"""Protocols under realistic (non-degenerate) delay distributions.

The complexity experiments use the degenerate "every delay equals U" model the
paper measures with; these tests check that the protocols remain correct when
message delays vary within the synchronous bound — uniform and heavy-tailed
(Bakr & Keidar-style) distributions — and that runs are deterministic given a
seed.
"""

from __future__ import annotations

import pytest

from conftest import nbac_report, run_protocol
from repro.protocols import (
    INBAC,
    NMinus1PlusFNBAC,
    OneNBAC,
    PaxosCommit,
    TwoNMinus2NBAC,
    TwoPhaseCommit,
    ZeroNBAC,
)
from repro.sim.faults import FaultPlan
from repro.sim.network import LognormalDelay, UniformDelay

PROTOCOLS = [
    TwoPhaseCommit,
    INBAC,
    OneNBAC,
    ZeroNBAC,
    NMinus1PlusFNBAC,
    TwoNMinus2NBAC,
    PaxosCommit,
]


def _models(seed):
    return [
        UniformDelay(0.2, 1.0, seed=seed),
        LognormalDelay(median=0.3, sigma=0.8, seed=seed),
    ]


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda c: c.protocol_name)
def test_all_yes_commits_under_varying_delays(protocol):
    for seed in (1, 2):
        for model in _models(seed):
            result = run_protocol(protocol, 5, 2, [1] * 5, delay_model=model, max_time=400)
            report = nbac_report(result)
            assert set(result.decisions().values()) == {1}
            assert report.validity.holds and report.agreement.holds and report.termination.holds


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda c: c.protocol_name)
def test_one_no_vote_aborts_under_varying_delays(protocol):
    for model in _models(seed=3):
        result = run_protocol(protocol, 5, 2, [1, 1, 0, 1, 1], delay_model=model, max_time=400)
        report = nbac_report(result)
        assert set(result.decisions().values()) == {0}
        assert report.validity.holds and report.agreement.holds


@pytest.mark.parametrize("protocol", [INBAC, PaxosCommit, OneNBAC], ids=lambda c: c.protocol_name)
def test_crash_under_varying_delays_preserves_the_cell(protocol):
    for model in _models(seed=5):
        result = run_protocol(
            protocol, 5, 2, [1] * 5, delay_model=model,
            fault_plan=FaultPlan.crash(2, at=0.0), max_time=400,
        )
        report = nbac_report(result)
        assert report.agreement.holds
        assert report.termination.holds
        assert report.validity.holds


def test_runs_are_deterministic_given_the_seed():
    a = run_protocol(INBAC, 5, 2, [1] * 5, delay_model=UniformDelay(0.2, 1.0, seed=9))
    b = run_protocol(INBAC, 5, 2, [1] * 5, delay_model=UniformDelay(0.2, 1.0, seed=9))
    assert a.trace.message_count() == b.trace.message_count()
    assert [m.recv_time for m in a.trace.messages] == [m.recv_time for m in b.trace.messages]
    assert a.decisions() == b.decisions()


def test_varying_delays_do_not_change_best_case_message_counts():
    """Message complexity is delay-independent as long as delays stay <= U."""
    fixed = run_protocol(INBAC, 6, 2, [1] * 6)
    varied = run_protocol(INBAC, 6, 2, [1] * 6, delay_model=UniformDelay(0.3, 1.0, seed=4))
    assert fixed.trace.message_count() == varied.trace.message_count() == 24
