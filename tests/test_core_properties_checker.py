"""Tests for the property checkers and the problem evaluator."""

from __future__ import annotations

import pytest

from repro.core.checker import (
    check_nbac,
    evaluate_problem,
    required_properties,
)
from repro.core.lattice import ALL_PROPS, Prop, PropertyPair
from repro.core.properties import (
    check_agreement,
    check_termination,
    check_validity,
    is_nice_execution,
)
from repro.exp.results import RobustnessFold, TrialResult
from repro.sim.trace import Trace


def make_trace(n=3, votes=None, decisions=None, crashes=None, execution_class="failure-free"):
    """Build a synthetic trace for checker tests."""
    trace = Trace(n=n, f=1, protocol="synthetic")
    votes = votes if votes is not None else {pid: 1 for pid in range(1, n + 1)}
    for pid, vote in votes.items():
        trace.record_proposal(pid, vote, 0.0)
    for pid, (value, time) in (decisions or {}).items():
        trace.record_decision(pid, value, time)
    for pid, time in (crashes or {}).items():
        trace.record_crash(pid, time)
    trace.metadata["execution_class"] = execution_class
    return trace


class TestValidity:
    def test_commit_with_all_yes_is_valid(self):
        trace = make_trace(decisions={1: (1, 2), 2: (1, 2), 3: (1, 2)})
        assert check_validity(trace).holds

    def test_abort_with_all_yes_and_no_failure_is_invalid(self):
        trace = make_trace(decisions={1: (0, 2), 2: (0, 2), 3: (0, 2)})
        check = check_validity(trace)
        assert not check.holds
        assert len(check.violations) == 3

    def test_abort_with_all_yes_but_a_crash_is_valid(self):
        trace = make_trace(decisions={1: (0, 2), 2: (0, 2)}, crashes={3: 0.0})
        assert check_validity(trace).holds

    def test_abort_with_all_yes_but_network_failure_is_valid(self):
        trace = make_trace(
            decisions={1: (0, 2)}, execution_class="network-failure"
        )
        assert check_validity(trace).holds

    def test_commit_despite_a_no_vote_is_invalid(self):
        trace = make_trace(votes={1: 1, 2: 0, 3: 1}, decisions={1: (1, 2)})
        check = check_validity(trace)
        assert not check.holds
        assert "proposed 0" in check.violations[0]

    def test_abort_with_a_no_vote_is_valid(self):
        trace = make_trace(votes={1: 1, 2: 0, 3: 1}, decisions={1: (0, 2), 2: (0, 2)})
        assert check_validity(trace).holds


class TestAgreementAndTermination:
    def test_agreement_holds_when_all_equal(self):
        trace = make_trace(decisions={1: (1, 2), 2: (1, 3), 3: (1, 2)})
        assert check_agreement(trace).holds

    def test_agreement_violated_when_values_differ(self):
        trace = make_trace(decisions={1: (1, 2), 2: (0, 3)})
        check = check_agreement(trace)
        assert not check.holds
        assert "P1" in check.violations[0] and "P2" in check.violations[0]

    def test_agreement_vacuously_holds_with_no_decisions(self):
        assert check_agreement(make_trace()).holds

    @staticmethod
    def quadratic_agreement(trace):
        """The pair enumeration ``check_agreement`` answers without, kept as
        the reference: same verdict, same violation strings, same order."""
        violations = []
        decided = sorted(trace.decisions.items())
        for i, (pid_a, rec_a) in enumerate(decided):
            for pid_b, rec_b in decided[i + 1 :]:
                if rec_a.value != rec_b.value:
                    violations.append(
                        f"P{pid_a} decided {rec_a.value} but P{pid_b} decided {rec_b.value}"
                    )
        return violations

    @staticmethod
    def decision_maps(n=7):
        yield "empty", {}
        yield "single", {4: 1}
        for value in (0, 1):
            yield f"all-{value}", {pid: value for pid in range(1, n + 1)}
        for dissenter in range(1, n + 1):
            yield f"dissenter-P{dissenter}", {
                pid: int(pid != dissenter) for pid in range(1, n + 1)
            }
        yield "interleaved", {pid: pid % 2 for pid in range(1, n + 1)}
        yield "three-values", {pid: pid % 3 for pid in range(1, n + 1)}
        # recorded out of pid order: the strings still come out sorted by pid
        yield "unordered", {5: 1, 2: 0, 7: 1, 1: 1}

    def test_agreement_matches_the_pair_enumeration(self):
        for label, decisions in self.decision_maps():
            trace = make_trace(
                n=7, decisions={pid: (value, 2.0) for pid, value in decisions.items()}
            )
            check = check_agreement(trace)
            expected = self.quadratic_agreement(trace)
            assert check.violations == expected, label
            assert check.holds == (not expected), label
            assert check.name == "agreement"

    def test_termination_requires_every_correct_process_to_decide(self):
        trace = make_trace(decisions={1: (1, 2), 2: (1, 2)})
        check = check_termination(trace)
        assert not check.holds
        assert "P3" in check.violations[0]

    def test_crashed_processes_are_exempt_from_termination(self):
        trace = make_trace(decisions={1: (1, 2), 2: (1, 2)}, crashes={3: 0.5})
        assert check_termination(trace).holds

    def test_solves_nbac_combines_all_three(self):
        good = make_trace(decisions={1: (1, 2), 2: (1, 2), 3: (1, 2)})
        assert check_nbac(good).solves_nbac()
        bad = make_trace(decisions={1: (1, 2), 2: (0, 2), 3: (1, 2)})
        assert not check_nbac(bad).solves_nbac()


class TestNiceExecution:
    def test_all_yes_failure_free_is_nice(self):
        assert is_nice_execution(make_trace())

    def test_a_no_vote_is_not_nice(self):
        assert not is_nice_execution(make_trace(votes={1: 1, 2: 0, 3: 1}))

    def test_a_crash_is_not_nice(self):
        assert not is_nice_execution(make_trace(crashes={1: 0.0}))

    def test_network_failure_is_not_nice(self):
        assert not is_nice_execution(make_trace(execution_class="network-failure"))


class TestProblemEvaluation:
    def test_required_properties_per_execution_class(self):
        cell = PropertyPair.of("AV", "A")
        assert required_properties(cell, "failure-free") == ALL_PROPS
        assert required_properties(cell, "crash-failure") == cell.cf
        assert required_properties(cell, "network-failure") == cell.nf
        with pytest.raises(ValueError):
            required_properties(cell, "martian-failure")

    def test_evaluation_ignores_properties_the_cell_does_not_require(self):
        # termination violated, but the cell only requires agreement under crashes
        trace = make_trace(decisions={1: (1, 2)}, crashes={2: 0.0}, execution_class="crash-failure")
        evaluation = evaluate_problem(trace, PropertyPair.of("A", "A"))
        assert evaluation.satisfied
        assert Prop.TERMINATION not in evaluation.required

    def test_evaluation_fails_on_required_property(self):
        trace = make_trace(
            decisions={1: (1, 2), 2: (0, 2)}, crashes={3: 0.0}, execution_class="crash-failure"
        )
        evaluation = evaluate_problem(trace, PropertyPair.of("A", ""))
        assert not evaluation.satisfied
        assert evaluation.failures

    def test_report_reads_each_property_by_label(self):
        # P3 never decides: validity and agreement hold, termination does not
        trace = make_trace(decisions={1: (1, 2), 2: (1, 2)})
        report = check_nbac(trace)
        assert report.check(Prop.VALIDITY) is report.validity
        assert report.check(Prop.AGREEMENT) is report.agreement
        assert report.check(Prop.TERMINATION) is report.termination
        assert report.holds(frozenset({Prop.VALIDITY, Prop.AGREEMENT}))
        assert not report.holds(ALL_PROPS)
        assert not report.solves_nbac()
        assert report.violations() == list(report.termination.violations)

    def test_robustness_row_takes_the_intersection_over_traces(self):
        # the quantifier lives in RobustnessFold: a property holds for a
        # class only if it held in every trial of that class
        def trial(index, **flags):
            return TrialResult(
                index=index, protocol="synthetic", n=3, f=1, delay_label="U=1",
                fault_label="crash", votes_label="all-yes", base_seed=index,
                derived_seed=index, execution_class="crash-failure", **flags,
            )

        fold = RobustnessFold()
        fold.fold(trial(0))
        fold.fold(trial(1, termination=False))
        assert fold.rows() == [{"protocol": "synthetic", "crash-failure": "AV"}]


class TestDelayOnlyNetworkFailures:
    """Validity's "or a failure occurs" clause when the *only* failure is a
    delay beyond ``U`` — no crash appears anywhere in the trace, so the
    checker must rely on the execution class stamped into the metadata (or
    passed explicitly)."""

    def run_delayed(self, execution_class=None, **kwargs):
        from repro.protocols.one_nbac import OneNBAC
        from repro.sim.faults import FaultPlan
        from repro.sim.runner import Simulation

        sim = Simulation(n=4, f=1, process_class=OneNBAC, max_time=60, **kwargs)
        # P1's votes arrive after everyone's round-1 timer: a pure
        # network-failure execution, no crash involved
        plan = FaultPlan.delay_messages(src=1, delay=40.0)
        return sim.run([1, 1, 1, 1], fault_plan=plan)

    def test_metadata_stamping_classifies_the_run(self):
        trace = self.run_delayed().trace
        assert not trace.crashes
        assert trace.metadata["execution_class"] == "network-failure"

    def test_abort_on_all_yes_votes_is_excused_by_the_delay(self):
        trace = self.run_delayed().trace
        # the synchronous protocol times out on the missing votes and aborts
        assert 0 in {rec.value for rec in trace.decisions.values()}
        assert check_validity(trace).holds
        assert check_nbac(trace).validity.holds

    def test_same_trace_without_the_stamp_would_violate_validity(self):
        trace = self.run_delayed().trace
        # control: strip the stamp and the abort becomes a violation,
        # proving the network-failure clause (not the crash clause) excused it
        del trace.metadata["execution_class"]
        assert not check_validity(trace).holds
        # an explicit class argument overrides the (missing) metadata
        assert check_validity(trace, "network-failure").holds
        assert check_nbac(trace, "network-failure").validity.holds

    def test_schedule_deferral_stamps_the_class_without_any_fault_plan(self):
        # the schedule controller is the other source of delay-only failures:
        # deferring a delivery beyond U upgrades the class dynamically
        from repro.explore import ScheduleController
        from repro.protocols.two_phase import TwoPhaseCommit
        from repro.sim.runner import Simulation

        class DeferOnce(ScheduleController):
            def __init__(self):
                super().__init__()
                self._done = False

            def intercept(self, scheduler, event, step):
                from repro.sim.events import MessageDeliveryEvent

                if not self._done and isinstance(event, MessageDeliveryEvent) \
                        and event.src != event.dst:
                    self._done = True
                    return ("defer", 3.0)
                return None

        sim = Simulation(n=4, f=1, process_class=TwoPhaseCommit, max_time=60)
        trace = sim.run([1, 1, 1, 1], controller=DeferOnce()).trace
        assert not trace.crashes
        assert trace.metadata["execution_class"] == "network-failure"
        # 2PC aborts when a vote misses the collect deadline; the deferred
        # delivery is a failure, so validity still holds
        assert check_validity(trace).holds
