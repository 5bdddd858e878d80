"""Tests for the baseline protocols: 2PC, 3PC, PaxosCommit, Faster PaxosCommit."""

from __future__ import annotations

from conftest import assert_agreement, assert_all_decided, nbac_report, run_protocol
from repro.protocols import (
    FasterPaxosCommit,
    PaxosCommit,
    ThreePhaseCommit,
    TwoPhaseCommit,
)
from repro.sim.faults import DelayRule, FaultPlan


class TestTwoPhaseCommit:
    def test_commit_when_all_yes(self):
        result = run_protocol(TwoPhaseCommit, 5, 1, [1] * 5)
        assert_all_decided(result, value=1)

    def test_abort_when_any_no(self):
        result = run_protocol(TwoPhaseCommit, 5, 1, [1, 1, 1, 0, 1])
        assert_all_decided(result, value=0)

    def test_participant_voting_no_aborts_unilaterally_and_immediately(self):
        result = run_protocol(TwoPhaseCommit, 4, 1, [1, 0, 1, 1])
        assert result.trace.decisions[2].time == 0.0

    def test_blocking_when_coordinator_crashes_before_outcome(self):
        # the defining weakness of 2PC (Section 6.2): participants that voted
        # yes wait forever once the coordinator is gone
        plan = FaultPlan.crash(1, at=1.0)
        result = run_protocol(TwoPhaseCommit, 4, 1, [1] * 4, fault_plan=plan, max_time=60)
        report = nbac_report(result)
        assert not report.termination.holds
        assert report.agreement.holds
        assert report.validity.holds

    def test_participant_crash_leads_to_abort(self):
        plan = FaultPlan.crash(3, at=0.0)
        result = run_protocol(TwoPhaseCommit, 4, 1, [1] * 4, fault_plan=plan)
        surviving = {pid: v for pid, v in result.decisions().items()}
        assert set(surviving.values()) == {0}

    def test_agreement_under_network_failure(self):
        # a late vote makes the coordinator abort; everyone still agrees
        plan = FaultPlan.delay_messages(src=4, dst=1, delay=20.0)
        result = run_protocol(TwoPhaseCommit, 4, 1, [1] * 4, fault_plan=plan)
        assert_agreement(result)
        report = nbac_report(result)
        assert report.validity.holds  # a failure occurred so abort is valid


class TestThreePhaseCommit:
    def test_commit_when_all_yes(self):
        result = run_protocol(ThreePhaseCommit, 4, 1, [1] * 4)
        assert_all_decided(result, value=1)

    def test_abort_when_any_no(self):
        result = run_protocol(ThreePhaseCommit, 4, 1, [1, 1, 0, 1])
        assert_all_decided(result, value=0)

    def test_non_blocking_on_coordinator_crash_before_precommit(self):
        plan = FaultPlan.crash(1, at=0.5)
        result = run_protocol(ThreePhaseCommit, 4, 1, [1] * 4, fault_plan=plan, max_time=80)
        report = nbac_report(result)
        assert report.termination.holds
        assert report.agreement.holds

    def test_non_blocking_on_coordinator_crash_after_precommit(self):
        plan = FaultPlan.crash(1, at=2.5)
        result = run_protocol(ThreePhaseCommit, 4, 1, [1] * 4, fault_plan=plan, max_time=80)
        report = nbac_report(result)
        assert report.termination.holds
        assert report.agreement.holds

    def test_recovery_commits_when_someone_precommitted(self):
        plan = FaultPlan.crash(1, at=3.2)  # after PRECOMMIT went out, before COMMIT
        result = run_protocol(ThreePhaseCommit, 4, 1, [1] * 4, fault_plan=plan, max_time=80)
        survivors = {pid: v for pid, v in result.decisions().items() if pid != 1}
        assert set(survivors.values()) <= {1}


class TestPaxosCommit:
    def test_commit_when_all_yes(self):
        result = run_protocol(PaxosCommit, 5, 2, [1] * 5)
        assert_all_decided(result, value=1)
        assert result.trace.last_decision_time() == 3.0

    def test_abort_when_any_no(self):
        result = run_protocol(PaxosCommit, 5, 2, [1, 0, 1, 1, 1])
        assert_all_decided(result, value=0)

    def test_leader_crash_is_tolerated(self):
        plan = FaultPlan.crash(1, at=1.5)
        result = run_protocol(PaxosCommit, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_acceptor_crash_is_tolerated(self):
        plan = FaultPlan.crash(2, at=0.0)
        result = run_protocol(PaxosCommit, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_indulgence_under_delayed_reports(self):
        plan = FaultPlan(
            delay_rules=[DelayRule(predicate=lambda p: p[0] == "P2B", delay=25.0)]
        )
        result = run_protocol(PaxosCommit, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_acceptors_are_first_f_plus_one(self):
        result = run_protocol(PaxosCommit, 6, 2, [1] * 6)
        assert list(result.process(1).acceptors()) == [1, 2, 3]
        assert result.process(4).is_acceptor is False
        assert result.process(3).is_acceptor is True


class TestFasterPaxosCommit:
    def test_commit_in_two_delays(self):
        result = run_protocol(FasterPaxosCommit, 5, 2, [1] * 5)
        assert_all_decided(result, value=1)
        assert result.trace.last_decision_time() == 2.0

    def test_abort_when_any_no(self):
        result = run_protocol(FasterPaxosCommit, 5, 2, [0, 1, 1, 1, 1])
        assert_all_decided(result, value=0)

    def test_acceptor_crash_is_tolerated(self):
        plan = FaultPlan.crash(3, at=0.0)
        result = run_protocol(FasterPaxosCommit, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_agreement_when_one_rm_fast_commits_and_others_recover(self):
        # P2B broadcasts towards P4 and P5 are late: they must recover through
        # the acceptor query path while the others fast-commit; everyone must
        # agree on commit (the invariant discussed in the module docstring)
        plan = FaultPlan(
            delay_rules=[
                DelayRule(dst=4, predicate=lambda p: p[0] == "P2B", delay=20.0),
                DelayRule(dst=5, predicate=lambda p: p[0] == "P2B", delay=20.0),
            ]
        )
        result = run_protocol(FasterPaxosCommit, 5, 2, [1] * 5, fault_plan=plan)
        assert_all_decided(result)
        assert_agreement(result)
        assert result.decisions()[1] == 1

    def test_uses_more_messages_but_fewer_delays_than_paxos_commit(self):
        n, f = 6, 2
        faster = run_protocol(FasterPaxosCommit, n, f, [1] * n).trace
        classic = run_protocol(PaxosCommit, n, f, [1] * n).trace
        assert faster.last_decision_time() < classic.last_decision_time()
        assert faster.message_count() > classic.message_count()
