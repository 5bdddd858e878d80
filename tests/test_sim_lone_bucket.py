"""A timestamp that holds one delivery stores that delivery, not a bucket.

``BucketQueue.buckets[time]`` is a bucket (a ``list``) or, when one delivery
is all that is queued at ``time``, the delivery's entry itself.  Nothing an
execution can observe may depend on which: these tests put every other kind
of event, a second delivery, a self-send, a controller deferral and every
way of interrupting ``run()`` on top of a lone entry and require the
``(time, kind, post order)`` order of ``docs/performance.md``.  The contract
against a reference heap is ``tests/test_property_based.py``; what a batch
leaves queued is ``tests/test_sim_send_many.py``.
"""

from __future__ import annotations

import ast
import heapq
import inspect
import os
import random
import textwrap
from collections import Counter

import pytest

import repro
from repro.env import Process
from repro.errors import SimulationError
from repro.explore import ScheduleController
from repro.sim.batch import BucketQueue
from repro.sim.events import PRIORITY_CRASH, PRIORITY_DELIVERY
from repro.sim.network import AdversarialDelay
from repro.sim.runner import Scheduler


def is_lone(scheduler_or_queue, time):
    queue = getattr(scheduler_or_queue, "_queue", scheduler_or_queue)
    return time in queue.buckets and type(queue.buckets[time]) is not list


# --------------------------------------------------------------------------- #
# the queue by itself
# --------------------------------------------------------------------------- #
class TestQueueLayout:
    def test_one_delivery_is_stored_unboxed(self):
        queue = BucketQueue()
        entry = (1, 2, "payload", 1, 0.0)
        queue.push(1.5, PRIORITY_DELIVERY, entry)
        assert queue.buckets == {1.5: entry} and queue.times == [1.5]
        assert len(queue) == 1 and queue
        assert queue.pop() == (1.5, PRIORITY_DELIVERY, entry)
        assert not queue and queue.times == [] and queue.buckets == {}

    @pytest.mark.parametrize("priority", [0, 1, 2, 4])
    def test_other_kinds_are_never_lone(self, priority):
        queue = BucketQueue()
        queue.push(1.5, priority, "event")
        assert type(queue.buckets[1.5]) is list

    def test_second_push_inflates_with_the_lone_entry_first(self):
        queue = BucketQueue()
        queue.push(1.0, PRIORITY_DELIVERY, "first")
        queue.push(1.0, PRIORITY_DELIVERY, "second")
        queue.push(1.0, PRIORITY_CRASH, "crash")
        assert queue.times == [1.0]  # inflating does not re-push the time
        assert len(queue) == 3
        assert [queue.pop()[2] for _ in range(3)] == ["crash", "first", "second"]

    def test_lone_again_after_the_bucket_drained(self):
        queue = BucketQueue()
        for round_ in range(3):
            queue.push(1.0, PRIORITY_DELIVERY, ("a", round_))
            assert is_lone(queue, 1.0)
            queue.push(1.0, PRIORITY_DELIVERY, ("b", round_))
            assert not is_lone(queue, 1.0)
            assert queue.pop()[2] == ("a", round_)
            assert queue.pop()[2] == ("b", round_)
            assert not queue

    def test_len_counts_lone_entries(self):
        queue = BucketQueue()
        queue.push(1.0, PRIORITY_DELIVERY, "lone")
        queue.push(2.0, PRIORITY_DELIVERY, "x")
        queue.push(2.0, 4, "timer")
        queue.push(3.0, PRIORITY_DELIVERY, "lone too")
        assert len(queue) == 4
        queue.pop()
        assert len(queue) == 3

    def test_a_list_is_not_an_entry(self):
        queue = BucketQueue()
        for priority in range(5):
            with pytest.raises(SimulationError, match="cannot be a list"):
                queue.push(1.0, priority, ["not", "an", "entry"])
        assert not queue and queue.times == []

    @pytest.mark.parametrize("seed", range(6))
    def test_push_run_is_the_loop_of_pushes(self, seed):
        # one script drives a queue through push_run, a queue through single
        # pushes and the reference heap; runs of one and of many land on
        # empty, lone and bucket slots alike
        rng = random.Random(seed)
        batched, single, heap = BucketQueue(), BucketQueue(), []
        seq = 0
        for _ in range(400):
            roll = rng.random()
            if heap and roll < 0.4:
                expected = heapq.heappop(heap)
                assert batched.pop() == single.pop() == (expected[0], expected[1], expected[2])
            elif roll < 0.8:
                time = rng.choice([0.5, 1.0, 1.5, 2.0])
                run = list(range(seq, seq + rng.choice([1, 1, 2, 5])))
                seq += len(run)
                for entry in run:
                    single.push(time, PRIORITY_DELIVERY, entry)
                    heapq.heappush(heap, (time, PRIORITY_DELIVERY, entry))
                batched.push_run(time, run)
            else:
                time, priority = rng.choice([0.5, 1.0, 1.5, 2.0]), rng.choice([0, 2, 4])
                for queue in (batched, single):
                    queue.push(time, priority, seq)
                heapq.heappush(heap, (time, priority, seq))
                seq += 1
            assert len(batched) == len(single) == len(heap)
            assert sorted(batched.times) == sorted(single.times)
            assert {t: type(s) is list for t, s in batched.buckets.items()} == {
                t: type(s) is list for t, s in single.buckets.items()
            }
        while heap:
            expected = heapq.heappop(heap)
            assert batched.pop() == single.pop() == (expected[0], expected[1], expected[2])
        assert batched.buckets == single.buckets == {}


# --------------------------------------------------------------------------- #
# the scheduler around a lone entry
# --------------------------------------------------------------------------- #
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

    def on_crash(self):
        self.log.append((self.pid, "crash", None, self.now()))


def by_payload(delays):
    """Each payload has a delay of its own: every message is alone at its time."""
    return AdversarialDelay(lambda src, dst, payload, at: delays[payload])


def prepared(delays, hooks=None, **kwargs):
    """P2 sends P1 one message per entry of ``delays``, each at its own time."""
    log = []
    scheduler = Scheduler(n=3, f=1, delay_model=by_payload(delays), **kwargs)
    scheduler.bind_processes(
        lambda pid, n, f, env: Scripted(pid, n, f, env, log, hooks or {})
    )
    for tag in delays:
        scheduler.send_many(2, (1,), tag)
    return scheduler, log


def seen(log):
    return [(kind, what) for _, kind, what, _ in log]


class TestOtherKindsAtALoneTime:
    def test_each_message_of_the_setup_is_lone(self):
        scheduler, _ = prepared({"m1": 1.0, "m2": 2.0})
        assert is_lone(scheduler, 1.0) and is_lone(scheduler, 2.0)
        assert len(scheduler._queue) == 2

    def test_crash_proposal_and_timer_fire_in_kind_order_around_it(self):
        scheduler, log = prepared({"m1": 1.0})
        # pushed after the delivery, in reverse kind order
        scheduler.set_timer(1, 1.0, "t")
        scheduler.post_propose(1, "vote", at=1.0)
        scheduler._queue.push(1.0, PRIORITY_CRASH, (3,))
        assert not is_lone(scheduler, 1.0) and len(scheduler._queue) == 4
        scheduler.run()
        assert log == [
            (3, "crash", None, 1.0),
            (1, "propose", "vote", 1.0),
            (1, "deliver", "m1", 1.0),
            (1, "timeout", "t", 1.0),
        ]
        assert scheduler.trace.crashes == {3: 1.0}

    @pytest.mark.parametrize(
        "post, expected",
        [
            (lambda s: s.set_timer(1, 1.0, "t"), [("deliver", "m1"), ("timeout", "t")]),
            (
                lambda s: s.post_propose(1, "vote", at=1.0),
                [("propose", "vote"), ("deliver", "m1")],
            ),
            (
                lambda s: s._queue.push(1.0, PRIORITY_CRASH, (1,)),
                [("crash", None)],  # the crashed destination ignores the delivery
            ),
            (lambda s: s.send_many(3, (1,), "m1"), [("deliver", "m1"), ("deliver", "m1")]),
        ],
        ids=["timer", "proposal", "crash-of-the-destination", "second-delivery"],
    )
    def test_one_more_event_at_the_lone_time(self, post, expected):
        scheduler, log = prepared({"m1": 1.0})
        post(scheduler)
        assert not is_lone(scheduler, 1.0)
        trace = scheduler.run()
        assert seen(log) == expected
        assert trace.end_time == 1.0 and not scheduler._queue
        assert scheduler._pending_records == {}

    def test_handler_of_a_lone_delivery_queues_at_its_own_time(self):
        # the slot is released before the entry is dispatched: a timer and a
        # self-send from the handler find the time empty again
        def hook(process):
            process.set_timer(process.now(), name="now")
            process.send(1, "to-self")

        scheduler, log = prepared({"m1": 1.0, "m2": 2.0}, {"m1": hook})
        scheduler.run()
        assert seen(log) == [
            ("deliver", "m1"), ("deliver", "to-self"), ("timeout", "now"), ("deliver", "m2"),
        ]
        assert [at for _, _, _, at in log] == [1.0, 1.0, 1.0, 2.0]

    def test_lone_delivery_in_the_past_fails_the_clock_guard(self):
        scheduler, log = prepared({"m1": 2.0})
        scheduler.run()
        scheduler._queue.push(1.0, PRIORITY_DELIVERY, (2, 1, "late", 99, 0.0))
        with pytest.raises(SimulationError, match="clock cannot run backwards"):
            scheduler.run()


class TestSelfSendAtTheRunTime:
    """A delay that rounds to zero puts counted messages at the send time."""

    @pytest.mark.parametrize("batched", [True, False], ids=["send_many", "sends"])
    @pytest.mark.parametrize(
        "dsts",
        [[2, 1], [1, 2], [2, 1, 3, 1, 2], [2, 3, 1], [1, 1, 2]],
        ids=lambda dsts: "-".join(map(str, dsts)),
    )
    @pytest.mark.parametrize("level", ["full", "counters"])
    def test_deliveries_keep_post_order(self, level, dsts, batched):
        log = []

        def broadcast(process):
            if batched:
                process.env.send_many(dsts, "now")
            else:
                for dst in dsts:
                    process.env.send(dst, "now")
            scheduler.stop()  # dispatch "go" only

        scheduler = Scheduler(
            n=3,
            f=1,
            delay_model=AdversarialDelay(
                lambda src, dst, payload, at: 1.0 if payload == "go" else 1e-300
            ),
            trace_level=level,
        )
        scheduler.bind_processes(
            lambda pid, n, f, env: Scripted(pid, n, f, env, log, {"go": broadcast})
        )
        scheduler.send_many(2, (1,), "go")
        assert is_lone(scheduler, 1.0)
        scheduler.run()
        queued = scheduler._queue.buckets[1.0]
        entries = [queued] if type(queued) is not list else queued[PRIORITY_DELIVERY]
        assert [(entry[1], entry[3]) for entry in entries] == [
            (dst, msg_id) for msg_id, dst in enumerate(dsts, start=2)
        ]
        assert len(scheduler._queue) == len(dsts)
        assert scheduler.trace.message_count() == 1 + sum(dst != 1 for dst in dsts)
        scheduler.run()
        assert [(pid, what) for pid, _, what, _ in log[1:]] == [(dst, "now") for dst in dsts]
        assert {at for _, _, _, at in log} == {1.0}


class DeferOnce(ScheduleController):
    """Defers the delivery of one payload, once, by ``extra``."""

    def __init__(self, payload, extra):
        super().__init__()
        self.payload, self.extra, self.done = payload, extra, False

    def intercept(self, scheduler, event, step):
        if not self.done and getattr(event, "payload", None) == self.payload:
            self.done = True
            return ("defer", self.extra)
        return None


class TestDeferral:
    @pytest.mark.parametrize("level", ["full", "counters"])
    def test_onto_a_lone_time_lands_behind_its_occupant(self, level):
        scheduler = None
        scheduler, log = prepared(
            {"m1": 1.0, "m2": 2.0},
            {"m2": lambda p: scheduler.stop()},
            controller=DeferOnce("m1", 1.0),
            trace_level=level,
        )
        scheduler.run()  # m1 is deferred; the run goes on to m2's time
        assert scheduler.applied_schedule_actions == [(0, "defer", 1.0)]
        assert seen(log) == [("deliver", "m2")] and len(scheduler._queue) == 1
        scheduler.run()
        assert seen(log) == [("deliver", "m2"), ("deliver", "m1")]
        assert [at for _, _, _, at in log] == [2.0, 2.0]
        assert scheduler.trace.messages_received_by(1.5) == 0
        assert scheduler.trace.messages_received_by(2.0) == 2

    @pytest.mark.parametrize("level", ["full", "counters"])
    def test_onto_an_empty_time_is_lone_again(self, level):
        scheduler, log = prepared(
            {"m1": 1.0, "m2": 2.0},
            controller=DeferOnce("m1", 0.5),
            trace_level=level,
            max_time=1.2,
        )
        scheduler.run()
        assert log == [] and is_lone(scheduler, 1.5) and len(scheduler._queue) == 2
        scheduler.max_time = 500.0
        scheduler.run()
        assert seen(log) == [("deliver", "m1"), ("deliver", "m2")]
        assert [at for _, _, _, at in log] == [1.5, 2.0]
        assert scheduler.trace.messages_received_by(1.0) == 0
        assert scheduler.trace.messages_received_by(1.5) == 1


class TestInterruptedRun:
    """Beside ``tests/test_sim_scheduler.py::TestResumedRun``: lone heads."""

    def test_stop_leaves_the_next_lone_head_queued(self):
        scheduler = None
        scheduler, log = prepared(
            {"m1": 1.0, "m2": 2.0, "m3": 3.0}, {"m1": lambda p: scheduler.stop()}
        )
        scheduler.run()
        assert seen(log) == [("deliver", "m1")]
        assert len(scheduler._queue) == 2 and is_lone(scheduler, 2.0)
        trace = scheduler.run()  # stop() ended that run(), not this one
        assert seen(log) == [("deliver", "m1"), ("deliver", "m2"), ("deliver", "m3")]
        assert trace.end_time == 3.0 and len(scheduler._queue) == 0

    def test_stop_from_a_controller_leaves_the_next_lone_head_queued(self):
        class StopFirst(ScheduleController):
            def intercept(self, scheduler, event, step):
                if step == 0:
                    scheduler.stop()  # the event it was offered still runs
                return None

        scheduler, log = prepared({"m1": 1.0, "m2": 2.0}, controller=StopFirst())
        scheduler.run()
        assert seen(log) == [("deliver", "m1")]
        assert scheduler._queue.times == [2.0] and is_lone(scheduler, 2.0)
        scheduler.run()
        assert seen(log) == [("deliver", "m1"), ("deliver", "m2")]

    def test_max_time_peeks_at_a_lone_head(self):
        scheduler, log = prepared({"m1": 1.0, "m2": 2.0}, max_time=1.5)
        scheduler.run()
        assert seen(log) == [("deliver", "m1")]
        assert len(scheduler._queue) == 1 and is_lone(scheduler, 2.0)
        scheduler.run()  # still past max_time: a no-op, not a drain
        assert len(scheduler._queue) == 1 and is_lone(scheduler, 2.0)
        scheduler.max_time = 2.0
        trace = scheduler.run()
        assert seen(log) == [("deliver", "m1"), ("deliver", "m2")]
        assert trace.end_time == 2.0

    def test_handler_that_raises_has_consumed_its_lone_entry(self):
        def boom(process):
            raise RuntimeError("handler failed")

        hooks = {"m1": boom}
        scheduler, log = prepared({"m1": 1.0, "m2": 2.0}, hooks)
        with pytest.raises(RuntimeError, match="handler failed"):
            scheduler.run()
        assert seen(log) == [("deliver", "m1")]
        assert scheduler._queue.times == [2.0] and len(scheduler._queue) == 1
        scheduler.run()
        assert seen(log) == [("deliver", "m1"), ("deliver", "m2")]

    @pytest.mark.parametrize("level", ["full", "counters"])
    def test_resumed_run_equals_uninterrupted_run(self, level):
        delays = {f"m{i}": 0.25 * i for i in range(1, 9)}

        def run_in_stages(stops):
            scheduler, log = prepared(delays, trace_level=level)
            for max_time in stops:
                scheduler.max_time = max_time
                trace = scheduler.run()
            return trace.fingerprint(), log

        assert run_in_stages([0.3, 0.3, 1.1, 500.0]) == run_in_stages([500.0])


# --------------------------------------------------------------------------- #
# one queue, one loop, no knob
# --------------------------------------------------------------------------- #
def _layout_tests(node):
    """How many ``type(...) is [not] list`` comparisons ``node`` contains."""
    return sum(
        isinstance(sub, ast.Compare)
        and isinstance(sub.left, ast.Call)
        and getattr(sub.left.func, "id", None) == "type"
        and getattr(sub.comparators[0], "id", None) == "list"
        for sub in ast.walk(node)
    )


class TestOneLoop:
    def test_run_dispatches_each_kind_once_and_reads_the_layout_per_timestamp(self):
        tree = ast.parse(textwrap.dedent(inspect.getsource(Scheduler.run)))
        calls = Counter(
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        )
        for handler in ("deliver", "timeout", "on_propose", "_crash"):
            assert calls[handler] == 1, handler
        per_timestamp, drain = [n for n in ast.walk(tree) if isinstance(n, ast.While)]
        assert _layout_tests(per_timestamp) == 1
        assert _layout_tests(drain) == 0  # never per message

    def test_there_is_no_queue_option(self):
        package = os.path.dirname(repro.__file__)
        refused = ("event_queue", "lone_threshold", "use_lone")
        for dirpath, _, filenames in os.walk(package):
            for filename in filenames:
                if filename.endswith(".py"):
                    with open(os.path.join(dirpath, filename), encoding="utf-8") as handle:
                        source = handle.read()
                    assert not [name for name in refused if name in source], filename
