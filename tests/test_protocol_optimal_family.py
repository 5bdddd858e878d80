"""Tests for the paper's other optimal protocols (Appendices D and E).

Covers 1NBAC, the two avNBAC variants, 0NBAC, aNBAC, (n-1+f)NBAC, (2n-2)NBAC
and (2n-2+f)NBAC under aborting votes, crashes and network failures.
"""

from __future__ import annotations

import pytest

from conftest import assert_all_decided, nbac_report, run_protocol
from repro.protocols import (
    ANBAC,
    AvNBACDelayOptimal,
    AvNBACMessageOptimal,
    NMinus1PlusFNBAC,
    OneNBAC,
    TwoNMinus2NBAC,
    TwoNMinus2PlusFNBAC,
    ZeroNBAC,
)
from repro.sim.faults import DelayRule, FaultPlan


class TestOneNBAC:
    def test_abort_on_no_vote(self):
        result = run_protocol(OneNBAC, 4, 2, [1, 0, 1, 1])
        assert_all_decided(result, value=0)
        assert nbac_report(result).validity.holds

    def test_crash_failure_solves_nbac(self):
        for crashed in (1, 3):
            plan = FaultPlan.crash(crashed, at=0.0)
            result = run_protocol(OneNBAC, 4, 2, [1] * 4, fault_plan=plan)
            report = nbac_report(result)
            assert report.validity.holds and report.agreement.holds and report.termination.holds

    def test_late_crash_still_commits(self):
        plan = FaultPlan.crash(2, at=1.5)
        result = run_protocol(OneNBAC, 4, 2, [1] * 4, fault_plan=plan)
        survivors = {pid: v for pid, v in result.decisions().items() if pid != 2}
        assert set(survivors.values()) == {1}

    def test_validity_and_termination_under_network_failure(self):
        # cell (AVT, VT): agreement may be lost under network failures, but
        # validity and termination must hold
        plan = FaultPlan.delay_messages(src=1, delay=30.0)
        result = run_protocol(OneNBAC, 4, 2, [1] * 4, fault_plan=plan)
        report = nbac_report(result)
        assert report.validity.holds
        assert report.termination.holds

    def test_decision_broadcast_only_after_full_collection(self):
        result = run_protocol(OneNBAC, 4, 1, [1] * 4)
        d_messages = [m for m in result.trace.counted_messages() if m.payload[0] == "D"]
        assert all(m.send_time == 1.0 for m in d_messages)


class TestAvNBACVariants:
    def test_delay_optimal_commits_in_one_delay(self):
        result = run_protocol(AvNBACDelayOptimal, 5, 2, [1] * 5)
        assert_all_decided(result, value=1)
        assert result.trace.last_decision_time() == 1.0

    def test_delay_optimal_aborts_on_no_vote(self):
        result = run_protocol(AvNBACDelayOptimal, 5, 2, [1, 1, 1, 1, 0])
        assert_all_decided(result, value=0)

    def test_delay_optimal_never_decides_after_a_crash(self):
        plan = FaultPlan.crash(2, at=0.0)
        result = run_protocol(AvNBACDelayOptimal, 5, 2, [1] * 5, fault_plan=plan, max_time=30)
        assert result.decisions() == {}
        report = nbac_report(result)
        assert report.agreement.holds and report.validity.holds

    def test_message_optimal_commits_via_pn(self):
        result = run_protocol(AvNBACMessageOptimal, 5, 2, [1] * 5)
        assert_all_decided(result, value=1)
        assert result.trace.message_count() == 8  # 2n - 2

    def test_message_optimal_aborts_on_no_vote(self):
        result = run_protocol(AvNBACMessageOptimal, 5, 2, [0, 1, 1, 1, 1])
        assert_all_decided(result, value=0)

    def test_message_optimal_blocks_when_pn_crashes_but_stays_safe(self):
        plan = FaultPlan.crash(5, at=0.0)
        result = run_protocol(AvNBACMessageOptimal, 5, 2, [1] * 5, fault_plan=plan, max_time=30)
        assert result.decisions() == {}
        assert nbac_report(result).agreement.holds


class TestZeroNBAC:
    def test_nice_execution_is_silent(self):
        result = run_protocol(ZeroNBAC, 5, 2, [1] * 5)
        assert result.trace.message_count() == 0
        assert_all_decided(result, value=1)

    def test_no_vote_triggers_messages_and_abort(self):
        result = run_protocol(ZeroNBAC, 5, 2, [1, 0, 1, 1, 1])
        assert result.trace.message_count() > 0
        assert_all_decided(result, value=0)
        assert nbac_report(result).validity.holds

    def test_multiple_no_votes_abort(self):
        result = run_protocol(ZeroNBAC, 4, 1, [0, 0, 1, 1])
        assert_all_decided(result, value=0)

    def test_agreement_and_termination_under_crash(self):
        plan = FaultPlan.crash(2, at=0.0)
        result = run_protocol(ZeroNBAC, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_agreement_under_delayed_abort_notification(self):
        # cell (AT, AT): under a network failure validity may be violated
        # (implicit yes votes win) but agreement and termination must not be
        plan = FaultPlan.delay_messages(src=2, delay=25.0)
        result = run_protocol(ZeroNBAC, 4, 1, [1, 0, 1, 1], fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds
        assert report.termination.holds


class TestChainFamily:
    @pytest.mark.parametrize("cls", [NMinus1PlusFNBAC, ANBAC])
    def test_abort_on_no_vote(self, cls):
        result = run_protocol(cls, 5, 2, [1, 1, 0, 1, 1], max_time=400)
        decided = result.decisions()
        assert decided and set(decided.values()) == {0}
        assert nbac_report(result).agreement.holds

    def test_n1f_solves_nbac_under_crashes(self):
        for crashed, at in [(1, 0.0), (3, 0.0), (5, 2.0), (2, 5.0)]:
            plan = FaultPlan.crash(crashed, at)
            result = run_protocol(NMinus1PlusFNBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=400)
            report = nbac_report(result)
            assert report.validity.holds, (crashed, at, report.violations())
            assert report.agreement.holds, (crashed, at)
            assert report.termination.holds, (crashed, at)

    def test_n1f_terminates_under_network_failure(self):
        # cell (AVT, T): only termination is promised under network failures
        plan = FaultPlan.delay_messages(src=1, delay=40.0)
        result = run_protocol(NMinus1PlusFNBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=400)
        assert nbac_report(result).termination.holds

    def test_anbac_does_not_decide_when_acks_incomplete(self):
        # a crash during the abort path leaves collection incomplete: aNBAC
        # noops rather than risking disagreement (termination is not required)
        plan = FaultPlan.crash(4, at=0.0)
        result = run_protocol(ANBAC, 5, 2, [1, 0, 1, 1, 1], fault_plan=plan, max_time=400)
        report = nbac_report(result)
        assert report.agreement.holds
        assert report.validity.holds

    def test_2n2_commits_and_aborts_correctly(self):
        commit = run_protocol(TwoNMinus2NBAC, 5, 2, [1] * 5)
        assert_all_decided(commit, value=1)
        abort = run_protocol(TwoNMinus2NBAC, 5, 2, [1, 0, 1, 1, 1])
        assert_all_decided(abort, value=0)

    def test_2n2_solves_nbac_under_crashes(self):
        for crashed, at in [(5, 0.0), (5, 1.2), (1, 0.0), (3, 1.0)]:
            plan = FaultPlan.crash(crashed, at)
            result = run_protocol(TwoNMinus2NBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=200)
            report = nbac_report(result)
            assert report.validity.holds and report.agreement.holds and report.termination.holds

    def test_2n2_validity_and_termination_under_network_failure(self):
        plan = FaultPlan.delay_messages(src=5, delay=30.0, after_time=0.5)
        result = run_protocol(TwoNMinus2NBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=200)
        report = nbac_report(result)
        assert report.validity.holds and report.termination.holds

    def test_2n2f_commits_and_aborts_correctly(self):
        commit = run_protocol(TwoNMinus2PlusFNBAC, 5, 2, [1] * 5, max_time=400)
        assert_all_decided(commit, value=1)
        abort = run_protocol(TwoNMinus2PlusFNBAC, 5, 2, [1, 1, 1, 1, 0], max_time=400)
        assert_all_decided(abort, value=0)

    @pytest.mark.parametrize("crashed,at", [(1, 0.0), (2, 0.0), (5, 0.0), (3, 3.0), (5, 6.0)])
    def test_2n2f_indulgent_under_crashes(self, crashed, at):
        plan = FaultPlan.crash(crashed, at)
        result = run_protocol(TwoNMinus2PlusFNBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=400)
        report = nbac_report(result)
        assert report.validity.holds and report.agreement.holds and report.termination.holds

    def test_2n2f_indulgent_under_network_failure(self):
        plan = FaultPlan(delay_rules=[DelayRule(src=5, after_time=1.0, delay=50.0)])
        result = run_protocol(TwoNMinus2PlusFNBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=400)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_help_path_of_2n2f(self):
        # crash Pf while it relays the [B] chain: some process in the middle of
        # the ring asks {P1..Pf, Pn} for help and still terminates
        plan = FaultPlan.crash(2, at=5.0)
        result = run_protocol(TwoNMinus2PlusFNBAC, 5, 2, [1] * 5, fault_plan=plan, max_time=400)
        report = nbac_report(result)
        assert report.termination.holds and report.agreement.holds
