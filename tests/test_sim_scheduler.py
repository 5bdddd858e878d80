"""Tests for the scheduler, the process abstraction and trace recording."""

from __future__ import annotations

import pytest

from repro.env import Process, ProcessComponent
from repro.errors import ConfigurationError, ProtocolViolationError, SimulationError
from repro.sim.faults import FaultPlan
from repro.explore.schedule import ScheduleController
from repro.protocols import INBAC, TwoPhaseCommit
from repro.sim.network import FlakyLinkDelay
from repro.sim.runner import Scheduler, Simulation, run_nice_execution


class EchoProcess(Process):
    """Sends its vote to everyone, decides the set of votes it saw at time 2."""

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.seen = {}
        self.timeouts = []

    def on_propose(self, value):
        self.seen[self.pid] = value
        for q in self.other_pids():
            self.send(q, ("vote", value))
        self.set_timer(2, name="decide")

    def on_deliver(self, src, payload):
        self.seen[src] = payload[1]

    def on_timeout(self, name):
        self.timeouts.append((name, self.now()))
        if name == "decide" and len(self.seen) == self.n:
            self.decide(sum(self.seen.values()))


class SelfSender(Process):
    """Exercises local self-messages (not counted, delivered immediately)."""

    def __init__(self, pid, n, f, env):
        super().__init__(pid, n, f, env)
        self.got_self_message_at = None

    def on_propose(self, value):
        self.send(self.pid, ("self", value))

    def on_deliver(self, src, payload):
        if src == self.pid:
            self.got_self_message_at = self.now()

    def on_timeout(self, name):
        pass


class TestSchedulerBasics:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            Scheduler(n=1, f=1)
        with pytest.raises(ConfigurationError):
            Scheduler(n=4, f=0)
        with pytest.raises(ConfigurationError):
            Scheduler(n=4, f=4)

    def test_env_random_stream_is_built_on_first_use(self):
        import random

        scheduler = Scheduler(n=3, f=1, seed=9)
        env = scheduler.env_for(2)
        assert env._random is None  # most runs never read it
        expected = random.Random(9 * 1_000_003 + 2)
        assert [env.random.random() for _ in range(3)] == [
            expected.random() for _ in range(3)
        ]
        assert env.random is env.random

    def test_simulation_needs_exactly_one_factory(self):
        with pytest.raises(ConfigurationError):
            Simulation(n=3, f=1)
        with pytest.raises(ConfigurationError):
            Simulation(n=3, f=1, process_class=EchoProcess, process_factory=lambda *a: None)

    def test_vote_count_must_match_n(self):
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        with pytest.raises(ConfigurationError):
            sim.run([1, 1])

    def test_all_processes_decide_with_fixed_delays(self):
        sim = Simulation(n=4, f=1, process_class=EchoProcess)
        result = sim.run([1, 1, 1, 1])
        assert result.decisions() == {1: 4, 2: 4, 3: 4, 4: 4}
        assert result.trace.last_decision_time() == 2.0

    def test_votes_as_dict(self):
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        result = sim.run({1: 1, 2: 0, 3: 1})
        assert set(result.decisions().values()) == {2}

    def test_partial_votes_dict_is_legal(self):
        # processes without a vote simply never propose
        sim = Simulation(n=3, f=1, process_class=EchoProcess, max_time=5)
        result = sim.run({1: 1, 3: 1})
        assert sorted(result.trace.proposals) == [1, 3]
        assert result.trace.metadata["votes"] == {1: 1, 3: 1}

    @pytest.mark.parametrize("bad_pid", [0, 4, 9, -1, "2"])
    def test_votes_dict_with_unknown_pid_is_rejected(self, bad_pid):
        # regression: a vote for a pid outside 1..n used to be dropped
        # silently while trace.metadata["votes"] still recorded it
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        with pytest.raises(ConfigurationError) as err:
            sim.run({1: 1, 2: 1, 3: 1, bad_pid: 0})
        assert repr(bad_pid) in str(err.value)

    def test_message_counting_excludes_self_messages(self):
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        trace = sim.run([1, 1, 1]).trace
        assert trace.message_count() == 6  # 3 processes x 2 others
        sim2 = Simulation(n=3, f=1, process_class=SelfSender, stop_when_all_correct_decided=False, max_time=5)
        trace2 = sim2.run([1, 1, 1]).trace
        assert trace2.message_count() == 0
        assert all(not m.counted for m in trace2.messages)

    def test_self_messages_arrive_immediately(self):
        sim = Simulation(n=3, f=1, process_class=SelfSender, stop_when_all_correct_decided=False, max_time=5)
        result = sim.run([1, 1, 1])
        assert all(result.process(pid).got_self_message_at == 0.0 for pid in (1, 2, 3))

    def test_double_decision_raises(self):
        class DoubleDecider(EchoProcess):
            def on_timeout(self, name):
                self.decide(1)
                self.decide(1)

        sim = Simulation(n=2, f=1, process_class=DoubleDecider, stop_when_all_correct_decided=False)
        with pytest.raises(ProtocolViolationError):
            sim.run([1, 1])

    def test_send_to_unknown_process_raises(self):
        class BadSender(EchoProcess):
            def on_propose(self, value):
                self.send(99, ("oops",))

        sim = Simulation(n=2, f=1, process_class=BadSender)
        with pytest.raises(Exception):
            sim.run([1, 1])

    def test_metadata_stamped_on_trace(self):
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        trace = sim.run([1, 1, 1]).trace
        assert trace.metadata["execution_class"] == "failure-free"
        assert trace.metadata["votes"] == {1: 1, 2: 1, 3: 1}


class TestCrashInjection:
    def test_crashed_process_sends_nothing(self):
        plan = FaultPlan.crash(2, at=0.0)
        sim = Simulation(n=3, f=1, process_class=EchoProcess, fault_plan=plan,
                         stop_when_all_correct_decided=False, max_time=10)
        trace = sim.run([1, 1, 1]).trace
        assert all(m.src != 2 for m in trace.counted_messages())
        assert 2 not in trace.decisions
        assert trace.crashes == {2: 0.0}

    def test_crash_mid_execution_stops_later_sends(self):
        class TwoRoundSender(EchoProcess):
            def on_timeout(self, name):
                for q in self.other_pids():
                    self.send(q, ("late", self.pid))

        plan = FaultPlan.crash(1, at=1.5)
        sim = Simulation(n=3, f=1, process_class=TwoRoundSender, fault_plan=plan,
                         stop_when_all_correct_decided=False, max_time=5)
        trace = sim.run([1, 1, 1]).trace
        late_from_1 = [m for m in trace.counted_messages()
                       if m.src == 1 and m.payload[0] == "late"]
        assert late_from_1 == []  # the timer at 2 fires after the crash at 1.5

    def test_messages_to_crashed_process_are_harmless(self):
        plan = FaultPlan.crash(3, at=0.0)
        sim = Simulation(n=3, f=2, process_class=EchoProcess, fault_plan=plan,
                         stop_when_all_correct_decided=False, max_time=10)
        result = sim.run([1, 1, 1])
        # messages addressed to the crashed process are still transmitted but
        # never handled: the crashed process records nothing and never decides
        assert any(m.dst == 3 for m in result.trace.counted_messages())
        assert result.process(3).seen == {}
        assert 3 not in result.trace.decisions


class TestTimers:
    def test_rearming_supersedes_previous_deadline(self):
        class Rearmer(Process):
            def __init__(self, pid, n, f, env):
                super().__init__(pid, n, f, env)
                self.fired = []

            def on_propose(self, value):
                self.set_timer(1, name="t")
                self.set_timer(3, name="t")  # supersedes the first arming

            def on_deliver(self, src, payload):
                pass

            def on_timeout(self, name):
                self.fired.append(self.now())

        sim = Simulation(n=2, f=1, process_class=Rearmer,
                         stop_when_all_correct_decided=False, max_time=10)
        result = sim.run([1, 1])
        assert result.process(1).fired == [3.0]

    def test_cancel_timer(self):
        class Canceller(Process):
            def __init__(self, pid, n, f, env):
                super().__init__(pid, n, f, env)
                self.fired = []

            def on_propose(self, value):
                self.set_timer(1, name="t")
                self.env.cancel_timer("t")

            def on_deliver(self, src, payload):
                pass

            def on_timeout(self, name):
                self.fired.append(name)

        sim = Simulation(n=2, f=1, process_class=Canceller,
                         stop_when_all_correct_decided=False, max_time=5)
        result = sim.run([1, 1])
        assert result.process(1).fired == []

    def test_timer_expiries_recorded_in_trace(self):
        sim = Simulation(n=2, f=1, process_class=EchoProcess)
        trace = sim.run([1, 1]).trace
        assert any(t.name == "decide" for t in trace.timers)


class TestComponents:
    def test_component_messages_are_routed_and_tagged(self):
        class Pinger(ProcessComponent):
            def __init__(self, host):
                super().__init__(host, "ping")
                self.got = []

            def on_deliver(self, src, payload):
                self.got.append((src, payload))

            def on_timeout(self, name):
                pass

        class Host(Process):
            def __init__(self, pid, n, f, env):
                super().__init__(pid, n, f, env)
                self.ping = self.attach_component(Pinger(self))

            def on_propose(self, value):
                self.ping.broadcast(("hello", self.pid), include_self=False)

            def on_deliver(self, src, payload):
                raise AssertionError("component messages must not reach the host handler")

            def on_timeout(self, name):
                pass

        sim = Simulation(n=3, f=1, process_class=Host,
                         stop_when_all_correct_decided=False, max_time=5)
        result = sim.run([1, 1, 1])
        assert sorted(result.process(1).ping.got) == [(2, ("hello", 2)), (3, ("hello", 3))]
        modules = {m.module for m in result.trace.counted_messages()}
        assert modules == {"ping"}

    def test_duplicate_component_name_rejected(self):
        scheduler = Scheduler(n=2, f=1)
        proc = EchoProcess(1, 2, 1, scheduler.env_for(1))

        class Dummy(ProcessComponent):
            def on_deliver(self, src, payload):
                pass

            def on_timeout(self, name):
                pass

        proc.attach_component(Dummy(proc, "x"))
        with pytest.raises(ProtocolViolationError):
            proc.attach_component(Dummy(proc, "x"))


class TestTraceQueries:
    def test_counts_and_histogram(self):
        sim = Simulation(n=3, f=1, process_class=EchoProcess)
        trace = sim.run([1, 1, 1]).trace
        assert len(trace.decisions) == 3
        assert trace.message_count() == 6
        assert [m.payload[0] for m in trace.counted_messages()] == ["vote"] * 6

    def test_causal_depth_of_request_reply(self):
        class RequestReply(Process):
            def on_propose(self, value):
                if self.pid == 1:
                    self.send(2, ("req",))

            def on_deliver(self, src, payload):
                if payload[0] == "req":
                    self.send(src, ("rep",))
                elif payload[0] == "rep":
                    self.decide(1)

            def on_timeout(self, name):
                pass

        sim = Simulation(n=2, f=1, process_class=RequestReply,
                         stop_when_all_correct_decided=False, max_time=5)
        trace = sim.run([1, 1]).trace
        assert trace.causal_depth() == 2

    def test_mod_index_helper(self):
        scheduler = Scheduler(n=4, f=1)
        proc = EchoProcess(1, 4, 1, scheduler.env_for(1))
        assert proc.mod_index(0) == 4
        assert proc.mod_index(4) == 4
        assert proc.mod_index(5) == 1
        assert proc.mod_index(2) == 2

    def test_run_nice_execution_helper(self):
        result = run_nice_execution(EchoProcess, n=3, f=1)
        assert len(result.decisions()) == 3


class TestDeliveredMarking:
    """Regression tests for the O(1) msg-id → record delivery marking.

    The scheduler used to find the record to mark with an O(messages)
    reversed scan of ``trace.messages`` per delivery; it now pops the record
    from a pending-records map.  The observable contract is unchanged:
    exactly the messages actually handed to a live process are marked.
    """

    def test_all_messages_to_live_processes_marked_delivered(self):
        sim = Simulation(n=4, f=1, process_class=EchoProcess)
        trace = sim.run([1, 1, 1, 1]).trace
        assert trace.messages  # 4 x 3 votes
        assert all(m.delivered for m in trace.messages)

    def test_messages_to_crashed_process_stay_unmarked(self):
        plan = FaultPlan.crash(3, at=0.0)
        sim = Simulation(n=3, f=2, process_class=EchoProcess, fault_plan=plan,
                         stop_when_all_correct_decided=False, max_time=10)
        trace = sim.run([1, 1, 1]).trace
        to_crashed = [m for m in trace.messages if m.dst == 3]
        to_live = [m for m in trace.messages if m.dst != 3 and m.src != 3]
        assert to_crashed and all(not m.delivered for m in to_crashed)
        assert to_live and all(m.delivered for m in to_live)

    def test_in_flight_messages_stay_unmarked_when_run_stops_early(self):
        # stopping at the last decision leaves post-decision traffic undelivered
        sim = Simulation(n=4, f=1, process_class=EchoProcess, max_time=1.5)
        trace = sim.run([1, 1, 1, 1]).trace
        late = [m for m in trace.messages if m.recv_time > 1.5]
        assert all(not m.delivered for m in late)

    def test_pending_map_is_drained_on_delivery(self):
        # delivered records are popped, so the map never grows with the run
        scheduler = Scheduler(n=4, f=1)
        scheduler.bind_processes(lambda pid, n, f, env: EchoProcess(pid, n, f, env))
        for pid in range(1, 5):
            scheduler.processes[pid].on_start()
            scheduler.post_propose(pid, 1, at=0.0)
        scheduler.stop_when_all_correct_decided()
        scheduler.run()
        assert scheduler._pending_records == {}

    def test_pending_map_is_drained_for_crashed_destinations_too(self):
        # messages to a crashed process are popped (but not marked) on their
        # delivery event, so the map stays bounded by in-flight messages
        scheduler = Scheduler(n=3, f=2, fault_plan=FaultPlan.crash(3, at=0.0),
                              max_time=10)
        scheduler.bind_processes(lambda pid, n, f, env: EchoProcess(pid, n, f, env))
        for pid in range(1, 4):
            scheduler.processes[pid].on_start()
            scheduler.post_propose(pid, 1, at=0.0)
        trace = scheduler.run()
        assert any(m.dst == 3 for m in trace.messages)
        assert scheduler._pending_records == {}
        assert all(not m.delivered for m in trace.messages if m.dst == 3)


class TestCountingStopCondition:
    """Regression tests for the decremented all-correct-decided counter.

    The all-correct-decided stop used to re-evaluate ``all(pid in
    trace.decisions ...)`` over every correct pid on every event; it is now a
    counter decremented by ``record_decision``.  Both must produce identical
    traces — asserted here against the legacy predicate on a crash-storm
    plan, where the correct set and the decision schedule interact the most.
    """

    class TimedDecider(EchoProcess):
        """Decides at its timer with whatever votes it has seen — so the
        all-correct-decided stop actually fires mid-storm."""

        def on_timeout(self, name):
            self.decide(sum(self.seen.values()))

    def storm_plan(self, n=8, width=3):
        return FaultPlan.crashes_at(
            {pid: 0.5 * (pid % 3) for pid in range(n - width + 1, n + 1)}
        )

    def _prepared_scheduler(self, n, f, plan):
        scheduler = Scheduler(n=n, f=f, fault_plan=plan, max_time=400)
        scheduler.bind_processes(
            lambda pid, n_, f_, env: self.TimedDecider(pid, n_, f_, env)
        )
        for pid in range(1, n + 1):
            scheduler.processes[pid].on_start()
            scheduler.post_propose(pid, 1, at=0.0)
        return scheduler

    def run_with_legacy_predicate(self, n, f, plan):
        scheduler = self._prepared_scheduler(n, f, plan)
        record_decision = scheduler.record_decision
        crash = scheduler._crash

        def scan():
            trace = scheduler.trace
            if all(p in trace.decisions for p in trace.correct_pids()):
                scheduler.stop()

        # only a decision or a crash can make the scan true: the event that
        # did stops the run, as the predicate tested after it did
        def record_then_scan(pid, value):
            record_decision(pid, value)
            scan()

        def crash_then_scan(pid, time):
            crash(pid, time)
            scan()

        scheduler.record_decision = record_then_scan
        scheduler._crash = crash_then_scan
        return scheduler.run()

    def run_with_counter(self, n, f, plan):
        scheduler = self._prepared_scheduler(n, f, plan)
        scheduler.stop_when_all_correct_decided()
        return scheduler.run()

    def test_identical_trace_on_crash_storm(self):
        n, f = 8, 3
        legacy = self.run_with_legacy_predicate(n, f, self.storm_plan(n, 3))
        counter = self.run_with_counter(n, f, self.storm_plan(n, 3))
        assert legacy.decisions  # the stop condition really fired
        assert counter.end_time == legacy.end_time
        assert counter.decisions.keys() == legacy.decisions.keys()
        assert {p: r.time for p, r in counter.decisions.items()} == {
            p: r.time for p, r in legacy.decisions.items()
        }
        assert counter.message_count() == legacy.message_count()
        assert counter.crashes == legacy.crashes

    def test_identical_trace_failure_free(self):
        legacy = self.run_with_legacy_predicate(5, 2, FaultPlan.failure_free())
        counter = self.run_with_counter(5, 2, FaultPlan.failure_free())
        assert counter.end_time == legacy.end_time
        assert counter.message_count() == legacy.message_count()

    def test_counter_reaches_zero_exactly_when_all_correct_decided(self):
        plan = self.storm_plan(8, 3)
        scheduler = self._prepared_scheduler(8, 3, plan)
        scheduler.stop_when_all_correct_decided()
        # no crash has happened yet: every process counts as correct
        assert scheduler._undecided_correct == 8
        trace = scheduler.run()
        assert scheduler._undecided_correct == 0
        assert trace.crashes.keys() == plan.crashes.keys()
        assert set(trace.decisions) >= set(trace.correct_pids())

    class SilentFirst(TimedDecider):
        """P1 never decides; the others decide at their timer."""

        def on_timeout(self, name):
            if self.pid != 1:
                super().on_timeout(name)

    def test_a_crash_planned_after_the_others_decide_still_happens(self):
        """P1 is correct until the plan crashes it at 5: the run does not stop
        at 2, when the others have decided, with P1 undecided and never
        crashed — a termination violation the run made up."""
        scheduler = Scheduler(
            n=4, f=1, fault_plan=FaultPlan.crashes_at({1: 5.0}), max_time=400
        )
        scheduler.bind_processes(
            lambda pid, n_, f_, env: self.SilentFirst(pid, n_, f_, env)
        )
        for pid in range(1, 5):
            scheduler.post_propose(pid, 1, at=0.0)
        scheduler.stop_when_all_correct_decided()
        trace = scheduler.run()
        assert trace.crashes == {1: 5.0}
        assert set(trace.decisions) == set(trace.correct_pids()) == {2, 3, 4}
        assert scheduler._undecided_correct == 0


class TestResumedRun:
    """``run()`` is re-entrant: raising ``max_time`` resumes the execution.

    Regression: the heap loop popped the next event *before* comparing it to
    ``max_time``, so the first overdue event — here a vote delivery held back
    by a link outage — was discarded and the resumed run aborted on a
    reliable channel.  The loop peeks; nothing is lost.
    """

    @staticmethod
    def run_in_stages(protocol, stops, controller=None):
        scheduler = Scheduler(
            n=4,
            f=1,
            delay_model=FlakyLinkDelay(outages=((1, 2, 0.0, 3.0),)),
            controller=controller,
        )
        scheduler.bind_processes(lambda pid, n, f, env: protocol(pid, n, f, env))
        scheduler.start_processes()
        for pid in range(1, 5):
            scheduler.post_propose(pid, 1)
        scheduler.stop_when_all_correct_decided()
        for max_time in stops:
            scheduler.max_time = max_time
            trace = scheduler.run()
        return trace

    @pytest.mark.parametrize("controlled", [False, True], ids=["plain", "controller"])
    @pytest.mark.parametrize("protocol", [TwoPhaseCommit, INBAC])
    def test_resumed_run_equals_uninterrupted_run(self, protocol, controlled):
        def controller():
            return ScheduleController() if controlled else None

        whole = self.run_in_stages(protocol, [500.0], controller())
        resumed = self.run_in_stages(protocol, [0.5, 500.0], controller())
        assert {rec.value for rec in whole.decisions.values()} == {1}
        assert {rec.value for rec in resumed.decisions.values()} == {1}
        assert resumed.fingerprint() == whole.fingerprint()

    def test_overdue_event_stays_queued(self):
        scheduler = Scheduler(n=3, f=1, max_time=0.5)
        scheduler.bind_processes(lambda pid, n, f, env: EchoProcess(pid, n, f, env))
        for pid in (1, 2, 3):
            scheduler.post_propose(pid, 1)
        scheduler.run()
        in_flight = len(scheduler._queue)
        assert in_flight == 6 + 3  # six votes at t=1, three timers at t=2
        scheduler.run()  # still past max_time: a no-op, not a drain
        assert len(scheduler._queue) == in_flight


class TestFifoDrain:
    """``run()`` stays on one ``(time, kind)`` FIFO instead of re-finding it.

    What that must not change: a lower kind queued into the current bucket
    pre-empts the rest of the FIFO, an entry appended to the FIFO being
    drained is still served by that drain, and wherever the loop is
    interrupted — a handler that raises, ``stop()``, ``max_time`` — the
    queue holds exactly the entries not yet dispatched.
    """

    class Scripted(Process):
        """Logs every event into a shared list; runs a hook per payload."""

        def __init__(self, pid, n, f, env, log, hooks):
            super().__init__(pid, n, f, env)
            self.log = log
            self.hooks = hooks

        def on_propose(self, value):
            self.log.append((self.pid, "propose", value, self.now()))

        def on_deliver(self, src, payload):
            self.log.append((self.pid, "deliver", payload, self.now()))
            hook = self.hooks.get(payload)
            if hook is not None:
                hook(self)

        def on_timeout(self, name):
            self.log.append((self.pid, "timeout", name, self.now()))

    def prepared(self, hooks, messages=("m1", "m2", "m3"), **kwargs):
        """P2's ``messages`` to P1 sit in one delivery FIFO at t=1."""
        log = []
        scheduler = Scheduler(n=3, f=1, **kwargs)
        scheduler.bind_processes(
            lambda pid, n, f, env: self.Scripted(pid, n, f, env, log, hooks)
        )
        for tag in messages:
            scheduler.send_many(2, (1,), tag)
        return scheduler, log

    @staticmethod
    def seen(log):
        return [(kind, what) for _, kind, what, _ in log]

    def test_lower_kind_queued_at_the_current_time_preempts_the_fifo(self):
        scheduler = None

        def hook(process):
            scheduler.post_propose(1, "late", at=scheduler.clock.now)  # lower kind
            process.set_timer(process.now(), name="now")  # higher kind
            process.send(1, "to-self")  # same FIFO

        scheduler, log = self.prepared({"m1": hook})
        scheduler.run()
        assert self.seen(log) == [
            ("deliver", "m1"),
            ("propose", "late"),  # before the deliveries already queued
            ("deliver", "m2"),
            ("deliver", "m3"),
            ("deliver", "to-self"),  # same drain, after what was queued
            ("timeout", "now"),  # timers of a bucket fire after its deliveries
        ]
        assert {at for _, _, _, at in log} == {1.0}
        assert len(scheduler._queue) == 0 and not scheduler._queue

    def test_self_send_from_the_last_entry_of_a_bucket_is_delivered(self):
        # the bucket is released before its last entry is dispatched; a send
        # to self from that handler opens a fresh bucket at the same time
        scheduler, log = self.prepared({"m3": lambda p: p.send(1, "to-self")})
        scheduler.run()
        assert self.seen(log)[-2:] == [("deliver", "m3"), ("deliver", "to-self")]
        assert log[-1][3] == 1.0

    def test_handler_that_raises_leaves_the_rest_queued(self):
        def boom(process):
            raise RuntimeError("handler failed")

        hooks = {"m2": boom}
        scheduler, log = self.prepared(hooks)
        scheduler.send_many(2, (3,), "other")
        with pytest.raises(RuntimeError, match="handler failed"):
            scheduler.run()
        assert self.seen(log) == [("deliver", "m1"), ("deliver", "m2")]
        assert len(scheduler._queue) == 2  # m3 and the message to P3
        del hooks["m2"]
        scheduler.run()
        assert self.seen(log) == [
            ("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3"), ("deliver", "other"),
        ]
        assert len(scheduler._queue) == 0

    def test_stop_mid_fifo_then_resume(self):
        scheduler = None
        scheduler, log = self.prepared({"m1": lambda p: scheduler.stop()})
        scheduler.run()
        assert self.seen(log) == [("deliver", "m1")]
        assert len(scheduler._queue) == 2
        trace = scheduler.run()  # stop() ended that run(), not this one
        assert self.seen(log) == [("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3")]
        assert len(scheduler._queue) == 0
        assert sum(m.delivered for m in trace.messages) == 3

    def test_stop_from_a_later_entry_mid_fifo_then_resume(self):
        scheduler = None
        scheduler, log = self.prepared({"m2": lambda p: scheduler.stop()})
        scheduler.run()
        assert len(log) == 2 and len(scheduler._queue) == 1
        scheduler.run()
        assert self.seen(log) == [("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3")]

    def test_max_time_between_two_buckets_then_resume(self):
        def later(process):
            process.send(2, "reply")  # arrives at t=2, past max_time

        scheduler, log = self.prepared({"m3": later}, max_time=1.5)
        scheduler.run()
        assert self.seen(log) == [("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3")]
        assert len(scheduler._queue) == 1
        assert scheduler.clock.now == 1.0
        scheduler.max_time = 5.0
        scheduler.run()
        assert log[-1] == (2, "deliver", "reply", 2.0)
        assert len(log) == 4 and len(scheduler._queue) == 0

    def test_event_queued_in_the_past_mid_drain_is_a_clock_error(self):
        scheduler = None
        scheduler, log = self.prepared(
            {"m1": lambda p: scheduler.post_propose(1, "past", at=0.5)}
        )
        with pytest.raises(SimulationError, match="clock cannot run backwards"):
            scheduler.run()
        # the FIFO in progress was finished first; nothing is lost or repeated
        assert self.seen(log) == [("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3")]
        assert len(scheduler._queue) == 0 and not scheduler._queue.times

    def test_deferring_controller_on_the_first_entry_of_a_bucket(self):
        class DeferFirst(ScheduleController):
            def intercept(self, scheduler, event, step):
                return ("defer", 0.5) if step == 0 else None

        scheduler, log = self.prepared({}, controller=DeferFirst())
        trace = scheduler.run()
        assert [(what, at) for _, _, what, at in log] == [
            ("m2", 1.0), ("m3", 1.0), ("m1", 1.5),
        ]
        assert scheduler.applied_schedule_actions == [(0, "defer", 0.5)]
        assert [m.recv_time for m in trace.messages] == [1.5, 1.0, 1.0]
        assert len(scheduler._queue) == 0

    def test_deferring_the_only_entry_does_not_advance_the_clock(self):
        class DeferFirst(ScheduleController):
            def intercept(self, scheduler, event, step):
                return ("defer", 2.0) if step == 0 else None

        scheduler, log = self.prepared({}, messages=("m1",), controller=DeferFirst(),
                                       max_time=2.0)
        scheduler.run()
        # nothing was dispatched at t=1, so the clock never got there
        assert log == [] and scheduler.clock.now == 0.0
        assert len(scheduler._queue) == 1
        scheduler.max_time = 10.0
        scheduler.run()
        assert log == [(1, "deliver", "m1", 3.0)]
