"""Tests for the simulation kernel: clock, events, network, fault plans."""

from __future__ import annotations

import math

import pytest

from repro.env import Process
from repro.errors import ConfigurationError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.faults import FAR_FUTURE, DelayRule, FaultPlan
from repro.sim.network import (
    AdversarialDelay,
    FixedDelay,
    FlakyLinkDelay,
    LinkPolicy,
    LognormalDelay,
    UniformDelay,
)
from repro.protocols import TwoPhaseCommit
from repro.sim.runner import Scheduler, Simulation


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0


class Recorder(Process):
    """Logs every event it handles as ``(kind, detail, now)``."""

    def __init__(self, pid, n, f, env, log):
        super().__init__(pid, n, f, env)
        self.log = log

    def on_propose(self, value):
        self.log.append((self.pid, "propose", value, self.now()))

    def on_deliver(self, src, payload):
        self.log.append((self.pid, "deliver", payload, self.now()))

    def on_timeout(self, name):
        self.log.append((self.pid, "timeout", name, self.now()))


class TestEventOrdering:
    """Appendix A's ordering rule, observed at the scheduler's interface."""

    @staticmethod
    def scheduler(fault_plan=None):
        log = []
        scheduler = Scheduler(n=3, f=1, delay_model=FixedDelay(1.0), fault_plan=fault_plan)
        scheduler.bind_processes(lambda pid, n, f, env: Recorder(pid, n, f, env, log))
        return scheduler, log

    def test_time_dominates_kind(self):
        scheduler, log = self.scheduler()
        scheduler.send_many(2, (1,), "late-delivery")  # arrives at t=1
        scheduler.set_timer(1, 0.5, "early-timer")
        scheduler.run()
        assert log == [(1, "timeout", "early-timer", 0.5), (1, "deliver", "late-delivery", 1.0)]

    def test_delivery_before_timer_at_one_instant(self):
        # the paper's Appendix A scheduling remark; the timer is armed first,
        # so post order alone would have fired it first
        scheduler, log = self.scheduler()
        scheduler.set_timer(1, 1.0, "timer")
        scheduler.send_many(2, (1,), "message")
        scheduler.run()
        assert log == [(1, "deliver", "message", 1.0), (1, "timeout", "timer", 1.0)]

    def test_crash_preempts_everything_at_its_instant(self):
        scheduler, log = self.scheduler(FaultPlan.crash(1, at=1.0))
        scheduler.post_propose(1, "vote", at=1.0)
        scheduler.send_many(2, (1,), "message")
        scheduler.set_timer(1, 1.0, "timer")
        scheduler.send_many(1, (2,), "to-a-live-process")
        scheduler.run()
        assert log == [(2, "deliver", "to-a-live-process", 1.0)]
        assert scheduler.trace.crashes == {1: 1.0}

    def test_propose_before_delivery_at_one_instant(self):
        scheduler, log = self.scheduler()
        scheduler.send_many(2, (1,), "message")
        scheduler.post_propose(1, "vote", at=1.0)
        scheduler.run()
        assert [entry[1] for entry in log] == ["propose", "deliver"]

    def test_int_times_are_recorded_as_floats(self):
        # one unit of virtual time is one U: nothing converts a time, so the
        # kernel floats every queue key itself — an int would print as 2, not
        # 2.0, in the fingerprint JSON
        scheduler, log = self.scheduler(FaultPlan.crash(3, at=2))
        scheduler.post_propose(1, "vote", at=1)
        scheduler.set_timer(2, 3, "timer")
        trace = scheduler.run()
        assert [entry[3] for entry in log] == [1.0, 3.0]
        assert all(type(entry[3]) is float for entry in log)
        assert repr(trace.crashes) == "{3: 2.0}"
        assert repr(trace.end_time) == "3.0"

    def test_equal_time_and_kind_fire_in_post_order(self):
        scheduler, log = self.scheduler()
        for tag in ("a", "b", "c"):
            scheduler.send_many(2, (1,), tag)
            scheduler.set_timer(3, 1.0, tag)
        scheduler.run()
        assert [entry[2] for entry in log if entry[1] == "deliver"] == ["a", "b", "c"]
        assert [entry[2] for entry in log if entry[1] == "timeout"] == ["a", "b", "c"]


class TestDelayModels:
    def test_fixed_delay(self):
        model = FixedDelay(1.0)
        assert model.delay(1, 2, None, 0.0) == 1.0

    def test_fixed_delay_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(0)

    def test_uniform_delay_within_range_and_bound(self):
        model = UniformDelay(0.2, 0.9, seed=7)
        samples = [model.delay(1, 2, None, 0.0) for _ in range(200)]
        assert all(0.2 <= s <= 0.9 for s in samples)

    def test_uniform_delay_validation(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(0.5, 0.2)
        with pytest.raises(ConfigurationError):
            UniformDelay(0.1, 1.5)

    def test_uniform_delay_validation_messages_are_precise(self):
        # regression: lo <= 0 and hi < lo used to share one vague message
        with pytest.raises(ConfigurationError) as err:
            UniformDelay(0.0, 1.0)
        assert "lower bound must be positive" in str(err.value)
        assert "lo=0.0" in str(err.value)
        with pytest.raises(ConfigurationError) as err:
            UniformDelay(0.5, 0.2)
        assert "upper bound must be >= lower bound" in str(err.value)
        assert "hi=0.2 < lo=0.5" in str(err.value)

    def test_lognormal_delay_clipped_at_bound(self):
        model = LognormalDelay(median=0.2, sigma=1.5, seed=3)
        samples = [model.delay(1, 2, None, 0.0) for _ in range(500)]
        assert all(0 < s <= 1.0 for s in samples)
        assert any(s < 0.5 for s in samples)

    def test_lognormal_validation(self):
        with pytest.raises(ConfigurationError):
            LognormalDelay(median=0.0, sigma=0.5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: UniformDelay(math.nan, 1.0),
            lambda: UniformDelay(0.2, math.nan),
            lambda: LognormalDelay(median=math.nan, sigma=0.5),
            lambda: LognormalDelay(median=0.2, sigma=math.nan),
            lambda: LinkPolicy(delay_units=math.nan),
            lambda: LinkPolicy(jitter_units=math.nan),
            lambda: LinkPolicy(slow_factor=math.nan),
            lambda: FlakyLinkDelay(slow_pairs={(1, 2): math.nan}),
        ],
        ids=[
            "uniform-lo", "uniform-hi", "lognormal-median", "lognormal-sigma",
            "link-delay", "link-jitter", "link-slow-factor", "flaky-slow-factor",
        ],
    )
    def test_a_nan_parameter_is_refused(self, build):
        # NaN fails every comparison: a check written as ``x <= 0`` passes it
        with pytest.raises(ConfigurationError):
            build()

    def test_adversarial_delay(self):
        model = AdversarialDelay(lambda s, d, p, t: 5.0 if d == 2 else 1.0)
        assert model.delay(1, 2, None, 0.0) == 5.0
        assert model.delay(1, 3, None, 0.0) == 1.0

    def test_adversarial_delay_must_be_positive(self):
        # a mid-run fault, not a construction-time one: SimulationError so
        # sweep error capture (TrialResult.error) classifies it correctly
        model = AdversarialDelay(lambda s, d, p, t: -1.0)
        with pytest.raises(SimulationError):
            model.delay(1, 2, None, 0.0)

    def test_deterministic_given_seed(self):
        a = [UniformDelay(0.1, 1.0, seed=5).delay(1, 2, None, 0.0) for _ in range(5)]
        b = [UniformDelay(0.1, 1.0, seed=5).delay(1, 2, None, 0.0) for _ in range(5)]
        assert a != sorted(a) or True  # values vary
        assert a == b


class TestDelayRules:
    def test_requires_exactly_one_of_delay_or_extra(self):
        with pytest.raises(ConfigurationError):
            DelayRule(src=1)
        with pytest.raises(ConfigurationError):
            DelayRule(src=1, delay=2.0, extra=1.0)

    @pytest.mark.parametrize("field", ["delay", "extra"])
    def test_a_nan_delay_is_refused(self, field):
        with pytest.raises(ConfigurationError):
            DelayRule(src=1, **{field: math.nan})

    @pytest.mark.parametrize("field", ["delay", "extra"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_an_infinite_delay_is_refused_naming_the_field(self, field, value):
        # an infinite extra= used to turn a slow link into a lost one: INBAC
        # at (3,1) ran, only P1 decided, and the run was classed
        # network-failure; in the paper's model a slow link still delivers
        with pytest.raises(ConfigurationError, match=f"{field}= must be finite"):
            DelayRule(src=1, **{field: value})

    def test_a_nan_window_is_refused(self):
        # every comparison with NaN is False: a NaN after_time matched from
        # time 0 and turned a plan that reads as never firing into a
        # network failure
        with pytest.raises(ConfigurationError, match="after_time"):
            DelayRule(src=1, delay=5.0, after_time=math.nan)

    def test_absolute_delay_override(self):
        rule = DelayRule(src=1, dst=2, delay=9.0)
        assert rule.apply(1, 2, None, 0.0, nominal=1.0) == 9.0
        assert rule.apply(1, 3, None, 0.0, nominal=1.0) is None

    def test_extra_delay_adds_to_nominal(self):
        rule = DelayRule(src=1, extra=3.0)
        assert rule.apply(1, 2, None, 0.0, nominal=1.0) == 4.0

    def test_after_time_matching(self):
        rule = DelayRule(after_time=2.0, delay=9.0)
        assert rule.apply(1, 2, None, 1.0, nominal=1.0) is None
        assert rule.apply(1, 2, None, 2.0, nominal=1.0) == 9.0
        assert rule.apply(1, 2, None, 4.0, nominal=1.0) == 9.0

    def test_predicate_matching(self):
        rule = DelayRule(predicate=lambda p: p[0] == "C", delay=9.0)
        assert rule.apply(1, 2, ("C", 1), 0.0, nominal=1.0) == 9.0
        assert rule.apply(1, 2, ("V", 1), 0.0, nominal=1.0) is None

    def test_network_failure_classification(self):
        assert DelayRule(delay=5.0).is_network_failure()
        assert not DelayRule(delay=0.5).is_network_failure()
        assert not DelayRule(delay=1.0).is_network_failure()
        assert DelayRule(extra=0.1).is_network_failure()


def _plan_class(plan: FaultPlan) -> str:
    """The class the one classifier gives a run under ``plan`` alone, once
    the run has happened (a crash counts only when it took place)."""
    scheduler = Scheduler(3, 1, delay_model=FixedDelay(1.0), fault_plan=plan)
    scheduler.bind_processes(lambda pid, n, f, env: Recorder(pid, n, f, env, []))
    scheduler.run()
    return scheduler.execution_class()


class TestFaultPlans:
    def test_failure_free_plan(self):
        plan = FaultPlan.failure_free()
        assert not plan.crashes and not plan.delay_rules
        assert _plan_class(plan) == "failure-free"

    def test_crash_plan_classification(self):
        plan = FaultPlan.crash(2, at=1.0)
        assert _plan_class(plan) == "crash-failure"
        assert plan.crashes == {2: 1.0}

    def test_delay_plan_classification(self):
        plan = FaultPlan.delay_messages(src=1, delay=FAR_FUTURE)
        assert plan.is_network_failure()
        assert _plan_class(plan) == "network-failure"

    def test_crash_plus_bounded_delays_is_still_crash_failure(self):
        plan = FaultPlan(crashes={1: 0.0}, delay_rules=[DelayRule(src=2, delay=0.5)])
        assert not plan.is_network_failure()
        assert _plan_class(plan) == "crash-failure"

    def test_a_planned_crash_that_never_happens_leaves_the_run_failure_free(self):
        # the stop rule ends the run once every process (P2 included: it has
        # not crashed yet) has decided, long before P2's crash at 10 U
        plan = FaultPlan.crash(2, at=10.0)
        result = Simulation(n=3, f=1, process_class=TwoPhaseCommit).run(
            [1, 1, 1], delay_model=FixedDelay(1.0), fault_plan=plan
        )
        assert result.decisions() == {1: 1, 2: 1, 3: 1}
        assert result.trace.crashes == {}
        assert result.trace.metadata["execution_class"] == "failure-free"

    def test_merged_plans(self):
        merged = FaultPlan.crash(1, 0.0).merged_with(FaultPlan.delay_messages(src=2))
        assert merged.crashes == {1: 0.0}
        assert len(merged.delay_rules) == 1
        assert merged.is_network_failure()
        assert _plan_class(merged) == "network-failure"

    def test_merge_keeps_earliest_crash_time(self):
        merged = FaultPlan.crash(1, 3.0).merged_with(FaultPlan.crash(1, 1.0))
        assert merged.crashes == {1: 1.0}

    def test_validation_rejects_too_many_crashes(self):
        plan = FaultPlan.crashes_at({1: 0.0, 2: 0.0})
        with pytest.raises(ConfigurationError):
            plan.validate(n=4, f=1)
        plan.validate(n=4, f=2)

    def test_validation_rejects_unknown_processes(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.crash(9).validate(n=4, f=3)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.crash(1, at=math.nan),
            FaultPlan.crashes_at({1: 0.0, 2: math.nan}),
            FaultPlan.crash_recover(2, at=math.nan, rejoin_at=5.0),
            FaultPlan.crash_recover(2, at=1.0, rejoin_at=math.nan),
        ],
        ids=["crash", "crashes-at", "crash-recover-at", "crash-recover-rejoin-at"],
    )
    def test_a_nan_crash_or_rejoin_time_is_refused(self, plan):
        # a NaN crash time used to be recorded as a crash that happened:
        # the run was crash-failure and decided nothing
        with pytest.raises(ConfigurationError, match="NaN"):
            plan.validate(n=4, f=2)
        with pytest.raises(ConfigurationError, match="NaN"):
            Simulation(n=4, f=2, process_class=TwoPhaseCommit).run(
                [1, 1, 1, 1], fault_plan=plan
            )

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.crash(1, at=-1.0),
            FaultPlan.crash_recover(2, at=-2.0, rejoin_at=5.0),
            FaultPlan(crashes={2: 1.0}, recoveries={2: -1.0}),
        ],
        ids=["crash", "crash-recover-at", "rejoin-at"],
    )
    def test_a_negative_crash_or_rejoin_time_is_refused_naming_the_pid(self, plan):
        # a crash at -1.0 used to fail mid-run: "clock cannot run backwards"
        pid = next(iter(plan.recoveries or plan.crashes))
        with pytest.raises(ConfigurationError, match=f"P{pid}'s .* before the run starts"):
            Simulation(n=4, f=2, process_class=TwoPhaseCommit).run(
                [1, 1, 1, 1], fault_plan=plan
            )

    @pytest.mark.parametrize(
        "rule", [DelayRule(src=9, extra=1.0), DelayRule(dst=0, delay=2.0)],
        ids=["src", "dst"],
    )
    def test_a_delay_rule_on_a_process_that_does_not_exist_is_refused(self, rule):
        # the src=9 rule used to run, and the run was classed network-failure
        with pytest.raises(ConfigurationError, match=r"delay rule DelayRule\(.* P1\.\.P3"):
            Simulation(n=3, f=1, process_class=TwoPhaseCommit).run(
                [1, 1, 1], fault_plan=FaultPlan(delay_rules=[rule])
            )

    def test_a_delay_rule_on_every_existing_process_is_accepted(self):
        rules = [DelayRule(src=1, dst=3, extra=0.5), DelayRule(src=3, extra=0.5)]
        FaultPlan(delay_rules=rules).validate(n=3, f=1)


class TestHorizon:
    @pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
    def test_a_horizon_that_is_not_a_number_at_least_zero_is_refused(self, bad):
        # under NaN every `time > max_time` comparison is False: the run
        # used to go on without a horizon
        with pytest.raises(ConfigurationError, match="max_time"):
            Simulation(n=3, f=1, process_class=TwoPhaseCommit, max_time=bad)
        with pytest.raises(ConfigurationError, match="max_time"):
            Scheduler(3, 1, max_time=bad)

    def test_a_zero_horizon_is_valid(self):
        # the asyncio runtime starts its kernel at max_time=0.0 and raises it
        # to the wall clock before every run()
        assert Scheduler(3, 1, max_time=0.0).max_time == 0.0


class TestVotes:
    @pytest.mark.parametrize(
        "votes", [[1, 2, 1], {1: 1, 2: 2, 3: 0}, [1, 2, None]], ids=["list", "dict", "two-bad"]
    )
    def test_a_vote_other_than_0_or_1_is_refused_naming_the_pid(self, votes):
        # a vote of 2 used to run, and 2PC committed it
        with pytest.raises(ConfigurationError, match=r"P2 cannot be proposed 2\b"):
            Simulation(n=3, f=1, process_class=TwoPhaseCommit).run(votes)

    def test_the_refusal_comes_before_the_first_event(self):
        scheduler = Scheduler(3, 1)
        scheduler.bind_processes(TwoPhaseCommit)
        scheduler.post_propose(1, 1)
        with pytest.raises(ConfigurationError, match="P3 cannot be proposed 'yes'"):
            scheduler.post_propose(3, "yes")
        scheduler.run()
        assert scheduler.trace.votes() == {1: 1}


class TestTransitDelay:
    def test_overrides_take_precedence(self):
        plan = FaultPlan(delay_rules=[DelayRule(src=1, dst=2, delay=7.0)])
        model = FixedDelay(1.0)
        assert plan.transit_delay(model, 1, 2, None, 0.0) == 7.0
        assert plan.transit_delay(model, 1, 3, None, 0.0) == 1.0

    def test_extra_rule_composes_with_model(self):
        plan = FaultPlan(delay_rules=[DelayRule(dst=3, extra=2.0)])
        assert plan.transit_delay(FixedDelay(0.5), 1, 3, None, 0.0) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_override_is_rejected_naming_the_rule(self, bad):
        # regression: overrides used to be returned unvalidated, silently
        # scheduling delivery at or before the send time
        rule = DelayRule(src=1, dst=2, delay=bad)
        plan = FaultPlan(delay_rules=[rule])
        with pytest.raises(SimulationError) as err:
            plan.transit_delay(FixedDelay(1.0), 1, 2, None, 0.0)
        message = str(err.value)
        assert repr(rule) in message
        assert str(bad) in message

    def test_non_positive_override_surfaces_mid_simulation(self):
        # end to end: the bad rule fires inside a run and is classified as a
        # simulation fault, not swallowed into a corrupted schedule
        from repro.protocols import TwoPhaseCommit
        from repro.sim.faults import FaultPlan
        from repro.sim.runner import Simulation

        plan = FaultPlan(delay_rules=[DelayRule(src=1, dst=2, delay=0.0)])
        sim = Simulation(n=4, f=1, process_class=TwoPhaseCommit)
        with pytest.raises(SimulationError):
            sim.run(votes=[1, 1, 1, 1], fault_plan=plan)
