"""Detailed tests of the INBAC protocol (Section 5 and Appendix A/B)."""

from __future__ import annotations

import pytest

from conftest import assert_all_decided, nbac_report, run_protocol
from repro.protocols.inbac import (
    BRANCH_ASK_HELP,
    BRANCH_CONS_AND,
    BRANCH_CONSENSUS_DECIDE,
    BRANCH_FAST_ABORT,
    BRANCH_FAST_DECIDE,
    INBAC,
)
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.runner import Simulation


class TestBackupSets:
    """The backup-set construction of Section 5.2."""

    def test_backup_set_of_outsiders_is_first_f(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        for pid in (3, 4, 5):
            assert result.process(pid).backup_set() == {1, 2}

    def test_backup_set_of_first_f_includes_pf_plus_1(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        assert result.process(1).backup_set() == {2, 3}
        assert result.process(2).backup_set() == {1, 3}

    def test_every_backup_set_has_size_f(self):
        for n, f in [(4, 1), (5, 2), (6, 5)]:
            result = run_protocol(INBAC, n, f, [1] * n)
            for pid in range(1, n + 1):
                assert len(result.process(pid).backup_set()) == f

    def test_vote_messages_go_exactly_to_the_backup_set(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        votes = [m for m in result.trace.counted_messages() if m.payload[0] == "V"]
        for pid in range(1, 6):
            destinations = {m.dst for m in votes if m.src == pid}
            assert destinations == result.process(pid).backup_set()


class TestNicePath:
    def test_every_process_takes_the_fast_decide_branch(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        for pid in range(1, 6):
            assert result.process(pid).branch == BRANCH_FAST_DECIDE

    def test_acknowledgements_batch_several_votes_into_one_message(self):
        # Lemma 6 / the "necessary design": a backup acknowledges a *set* of
        # votes in a single [C, collection] message
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        acks = [m for m in result.trace.counted_messages() if m.payload[0] == "C"]
        assert all(len(m.payload[1]) >= 2 for m in acks)

    def test_commit_decided_exactly_at_two_delays(self):
        result = run_protocol(INBAC, 6, 2, [1] * 6)
        assert all(rec.time == 2.0 for rec in result.trace.decisions.values())


class TestFailureFreeAborts:
    def test_single_no_vote_aborts_everywhere(self):
        result = run_protocol(INBAC, 5, 2, [1, 1, 0, 1, 1])
        assert_all_decided(result, value=0)
        report = nbac_report(result)
        assert report.validity.holds and report.agreement.holds and report.termination.holds

    def test_all_no_votes_abort(self):
        result = run_protocol(INBAC, 4, 1, [0, 0, 0, 0])
        assert_all_decided(result, value=0)

    def test_without_fast_abort_the_abort_takes_two_delays(self):
        result = run_protocol(INBAC, 5, 2, [1, 0, 1, 1, 1])
        assert result.trace.last_decision_time() == 2.0

    def test_fast_abort_optimisation_decides_in_at_most_one_delay(self):
        result = run_protocol(
            INBAC, 5, 2, [1, 0, 1, 1, 1], protocol_kwargs={"fast_abort": True}
        )
        assert_all_decided(result, value=0)
        assert result.trace.last_decision_time() <= 1.0
        assert result.process(2).branch == BRANCH_FAST_ABORT

    def test_a_misspelt_keyword_is_refused(self):
        # it used to be swallowed, and INBAC ran without the fast abort
        simulation = Simulation(
            n=3, f=1, process_class=INBAC, protocol_kwargs={"fast_abrot": True}
        )
        with pytest.raises(TypeError, match="fast_abrot"):
            simulation.run([1, 0, 1])


class TestCrashFailures:
    @pytest.mark.parametrize("crashed,at", [(1, 0.0), (2, 0.0), (5, 0.0), (3, 1.0), (1, 1.5)])
    def test_single_crash_preserves_nbac(self, crashed, at):
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=FaultPlan.crash(crashed, at))
        report = nbac_report(result)
        assert report.validity.holds
        assert report.agreement.holds
        assert report.termination.holds

    def test_f_crashes_of_all_backups_still_terminates(self):
        # both backup processes crash before sending anything: the remaining
        # processes must go through the HELP path and consensus
        plan = FaultPlan.crashes_at({1: 0.0, 2: 0.0})
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds
        branches = {result.process(pid).branch for pid in (3, 4, 5)}
        assert BRANCH_ASK_HELP in branches

    def test_late_crash_after_acks_commits(self):
        # the crash happens after the acknowledgements are out: survivors
        # still observe f correct acks and decide 1 in two delays
        plan = FaultPlan.crash(1, at=1.5)
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=plan)
        surviving = {pid: v for pid, v in result.decisions().items() if pid != 1}
        assert set(surviving.values()) == {1}

    def test_crash_with_no_vote_aborts(self):
        plan = FaultPlan.crash(4, at=0.5)
        result = run_protocol(INBAC, 5, 2, [1, 1, 1, 0, 1], fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.validity.holds


class TestNetworkFailures:
    def test_delayed_acknowledgements_fall_back_to_consensus(self):
        # acknowledgements from P1 are delayed beyond the bound: receivers
        # cannot take the fast branch, so they settle through consensus and
        # must still agree (indulgence)
        plan = FaultPlan(
            delay_rules=[DelayRule(src=1, after_time=0.5, delay=40.0)],
            description="late acks from P1",
        )
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds
        branches = [result.process(pid).branch for pid in range(1, 6)]
        assert any(b in (BRANCH_CONS_AND, BRANCH_CONSENSUS_DECIDE) for b in branches)

    def test_all_commit_traffic_delayed_everyone_agrees(self):
        plan = FaultPlan(
            delay_rules=[
                DelayRule(predicate=lambda p: isinstance(p, tuple) and p[0] == "C", delay=30.0)
            ],
            description="all acknowledgements late",
        )
        result = run_protocol(INBAC, 4, 1, [1] * 4, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_indulgence_under_combined_crash_and_delay(self):
        plan = FaultPlan.crash(2, at=0.0).merged_with(
            FaultPlan.delay_messages(src=1, delay=25.0, after_time=0.5)
        )
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds
        assert report.termination.holds
        assert report.validity.holds  # abort is allowed, commit-validity must hold


class TestConsensusPluggability:
    def test_runs_with_a_process_crashed_from_the_start(self):
        plan = FaultPlan.crash(5, at=0.0)
        result = run_protocol(INBAC, 5, 2, [1] * 5, fault_plan=plan)
        report = nbac_report(result)
        assert report.agreement.holds and report.termination.holds

    def test_consensus_module_untouched_on_nice_path(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        for pid in range(1, 6):
            assert not result.process(pid).iuc.proposed
            assert not result.process(pid).iuc.decided


class TestBranchHistory:
    def test_branch_history_is_recorded(self):
        result = run_protocol(INBAC, 5, 2, [1] * 5)
        assert all(result.process(pid).branch_history for pid in range(1, 6))

    def test_figure1_branches_all_reachable(self):
        """Across a small scenario battery every Figure 1 branch is exercised."""
        observed = set()
        scenarios = [
            ([1] * 5, None),
            ([1] * 5, FaultPlan.crashes_at({1: 0.0, 2: 0.0})),
            ([1] * 5, FaultPlan(delay_rules=[DelayRule(src=1, after_time=0.5, delay=40.0)])),
            ([1] * 5, FaultPlan(delay_rules=[DelayRule(dst=4, delay=35.0, after_time=0.5)])),
        ]
        for votes, plan in scenarios:
            result = run_protocol(INBAC, 5, 2, votes, fault_plan=plan)
            for pid in range(1, 6):
                observed.update(result.process(pid).branch_history)
        assert BRANCH_FAST_DECIDE in observed
        assert BRANCH_ASK_HELP in observed
        assert BRANCH_CONSENSUS_DECIDE in observed
