"""``send_many(dsts, payload, module)`` is exactly a loop of ``send``.

The contract in :mod:`repro.env` defines the broadcast call as
``for dst in dsts: send(dst, payload, module)``; the scheduler implements it
as one kernel operation.  These tests drive one probe process twice — once
through ``send_many``, once through the loop it stands for — and require the
two schedulers to be in the same state: trace fingerprint, message-id
counter, delay-source position, and the queue's contents entry by entry.
"""

from __future__ import annotations

import pytest

from repro.env import Process
from repro.errors import SimulationError
from repro.sim.batch import _new_bucket
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import (
    AdversarialDelay,
    FixedDelay,
    FlakyLinkDelay,
    LognormalDelay,
    UniformDelay,
)
from repro.sim.runner import Scheduler

N, F = 5, 2

DELAYS = {
    "fixed": lambda: FixedDelay(1.0),
    "uniform": lambda: UniformDelay(0.2, 1.0, seed=11),
    "lognormal": lambda: LognormalDelay(median=0.3, sigma=0.6, seed=11),
    "flaky-link": lambda: FlakyLinkDelay(
        jitter=0.4,
        slow_pairs={(1, 3): 2.5},
        outages=((1, 4, 0.0, 0.7),),
        seed=11,
    ),
}

FAULTS = {
    "failure-free": FaultPlan.failure_free,
    # P1's messages to P4 are held back: the rule matches in the middle of a
    # batch, so a batch that did not consult it per message would miss them
    "link-delay-rule": lambda: FaultPlan(
        delay_rules=[DelayRule(src=1, dst=4, delay=7.5)]
    ),
    "crash": lambda: FaultPlan.crash(3, at=0.5),
}


class Broadcaster(Process):
    """P1 performs the scripted sends on propose; everyone echoes once."""

    def __init__(self, pid, n, f, env, batched, script):
        super().__init__(pid, n, f, env)
        self.batched = batched
        self.script = script
        self.received = []

    def _emit(self, dsts, payload, module="main"):
        if self.batched:
            self.env.send_many(dsts, payload, module)
        else:
            for dst in dsts:
                self.env.send(dst, payload, module)

    def on_propose(self, value):
        if self.pid == 1:
            for make_dsts, payload, module in self.script:
                self._emit(make_dsts(), payload, module)

    def on_deliver(self, src, payload):
        self.received.append((src, payload, self.now()))
        if payload[0] == "ping":
            # replies fan back out, so later batches start from a queue the
            # earlier ones filled
            self._emit(self.other_pids(), ("pong", self.pid))

    def on_timeout(self, name):
        pass


SCRIPT = (
    (lambda: range(1, N + 1), ("ping", "all-with-self"), "main"),
    (lambda: [], ("ping", "nobody"), "main"),
    (lambda: (pid for pid in (2, 4, 5)), ("ping", "generator"), "side"),
    (lambda: [2, 3, 3, 2], ("ping", "duplicates"), "main"),
    (lambda: (1,), ("ping", "self-only"), "main"),
)


def build(batched, delay, fault, level, script=SCRIPT, at=0.0, delay_model=None):
    scheduler = Scheduler(
        n=N,
        f=F,
        delay_model=delay_model or DELAYS[delay](),
        fault_plan=FAULTS[fault](),
        seed=3,
        max_time=50.0,
        trace_level=level,
    )
    scheduler.bind_processes(
        lambda pid, n, f, env: Broadcaster(pid, n, f, env, batched, script)
    )
    scheduler.post_propose(1, 1, at=at)
    return scheduler


def run_first_event(scheduler):
    """Dispatch P1's propose only: its sends are queued, none is delivered."""
    first = scheduler.processes[1]

    def propose_then_stop(value):
        Broadcaster.on_propose(first, value)
        scheduler.stop()

    first.on_propose = propose_then_stop
    scheduler.run()
    del first.on_propose


def queue_contents(scheduler):
    """Every queued entry, bucket by bucket, with the live counts."""
    queue = scheduler._queue
    # a lone entry reads as the one-delivery bucket it stands for
    views = {
        time: slot if type(slot) is list else _new_bucket([slot])
        for time, slot in queue.buckets.items()
    }
    return (
        sorted(queue.times),
        {
            time: ([fifo[cursor:] for fifo, cursor in zip(bucket[:6], bucket[6])], bucket[7])
            for time, bucket in views.items()
        },
        len(queue),
    )


def delay_source_position(scheduler):
    rng = getattr(scheduler.delay_model, "_rng", None)
    return None if rng is None else rng.getstate()


def state(scheduler):
    return (
        scheduler.trace.fingerprint(),
        scheduler._msg_counter,
        delay_source_position(scheduler),
        queue_contents(scheduler),
        sorted(scheduler._pending_records),
    )


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("level", ["full", "counters"])
def test_send_many_equals_loop_of_sends(level, delay, fault):
    many = build(True, delay, fault, level)
    loop = build(False, delay, fault, level)
    # stop right after P1's propose handler, so the queues themselves can be
    # compared
    for scheduler in (many, loop):
        run_first_event(scheduler)
    assert many._msg_counter == 5 + 0 + 3 + 4 + 1
    assert state(many) == state(loop)
    for scheduler in (many, loop):
        scheduler.run()
    assert state(many) == state(loop)
    received = {pid: p.received for pid, p in many.processes.items()}
    assert received == {pid: p.received for pid, p in loop.processes.items()}
    assert received[2]  # the run did deliver something


def test_self_delivery_is_uncounted_and_immediate():
    scheduler = build(True, "fixed", "failure-free", "full")
    trace = scheduler.run()
    to_self = [m for m in trace.messages if m.src == m.dst == 1]
    assert [m.payload[1] for m in to_self] == ["all-with-self", "self-only"]
    assert all(not m.counted and m.recv_time == m.send_time for m in to_self)
    assert all(m.counted for m in trace.messages if m.src != m.dst)
    # module tags survive the batch
    assert {m.module for m in trace.messages if m.payload[1] == "generator"} == {"side"}


@pytest.mark.parametrize("level", ["full", "counters"])
def test_a_delay_lost_to_rounding_shares_the_fifo_of_the_self_send(level):
    # 1.0 + 1e-300 == 1.0: counted messages land in the sender's own bucket,
    # the FIFO the uncounted message to self goes to
    def tiny():
        return AdversarialDelay(lambda src, dst, payload, at: 1e-300)

    script = ((lambda: [2, 1, 3, 1, 4], ("ping", "now"), "main"),)
    many, loop = (
        build(batched, None, "failure-free", level, script, at=1.0, delay_model=tiny())
        for batched in (True, False)
    )
    for scheduler in (many, loop):
        run_first_event(scheduler)
    assert state(many) == state(loop)
    assert len(many._queue) == 5 and many.trace.message_count() == 3
    assert sorted(many._queue.buckets) == [1.0]
    for scheduler in (many, loop):
        scheduler.run()
    assert state(many) == state(loop)


def test_message_ids_follow_dsts_order():
    scheduler = build(True, "fixed", "failure-free", "full", script=SCRIPT[3:4])
    trace = scheduler.run()
    first = [m for m in trace.messages if m.payload == ("ping", "duplicates")]
    assert [(m.msg_id, m.dst) for m in first] == [(1, 2), (2, 3), (3, 3), (4, 2)]


@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("level", ["full", "counters"])
def test_unknown_destination_mid_batch_leaves_the_prefix_sent(level, delay):
    bad = ((lambda: [2, 3, 9, 4], ("ping", "bad"), "main"),)
    prefix = ((lambda: [2, 3], ("ping", "bad"), "main"),)
    many = build(True, delay, "link-delay-rule", level, script=bad)
    loop = build(False, delay, "link-delay-rule", level, script=bad)
    sent = build(False, delay, "link-delay-rule", level, script=prefix)
    for scheduler in (many, loop):
        with pytest.raises(SimulationError, match="unknown process P9"):
            scheduler.run()
    run_first_event(sent)
    assert state(many) == state(loop) == state(sent)
    assert many._msg_counter == 2
    # and the execution carries on from there
    for scheduler in (many, loop, sent):
        scheduler.run()
    assert state(many) == state(loop) == state(sent)


def test_failing_delay_rule_mid_batch_leaves_the_prefix_sent():
    def plan():
        return FaultPlan(delay_rules=[DelayRule(src=1, dst=3, delay=-1.0)])

    schedulers = []
    for batched in (True, False):
        scheduler = Scheduler(n=N, f=F, fault_plan=plan(), trace_level="counters")
        script = ((lambda: [2, 3, 4], ("ping", "x"), "main"),)
        scheduler.bind_processes(
            lambda pid, n, f, env, b=batched: Broadcaster(pid, n, f, env, b, script)
        )
        scheduler.post_propose(1, 1)
        with pytest.raises(SimulationError, match="non-positive"):
            scheduler.run()
        schedulers.append(scheduler)
    many, loop = schedulers
    assert state(many) == state(loop)
    # the id of the message that failed was allocated; nothing was recorded for it
    assert many._msg_counter == 2
    assert many.trace.counted_total == 1
