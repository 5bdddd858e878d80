"""The event queue's allocations, guarded by a count instead of a timer.

Beside ``tests/test_message_path_budget.py``.  Under a continuous delay model
every message has a receive time of its own, and a time that only one
delivery visits stores that delivery — no bucket.  What is counted here is
calls of the bucket constructor, a number that repeats exactly: before lone
entries it was one per counted message on these grids (1.009 on
``sweep_pool_full``'s), now it is one per timestamp that two events share
(0.009 there).

A *stay* of a time is one uninterrupted presence in ``queue.buckets``: from
the push that finds the time absent to the pop that takes its last entry.
The queue before lone entries built exactly one bucket per stay.
"""

from __future__ import annotations

import pytest

from repro.env import Process
from repro.protocols import INBAC, PaxosCommit, TwoPhaseCommit
from repro.sim import batch
from repro.sim.batch import BucketQueue
from repro.sim.events import PRIORITY_DELIVERY
from repro.sim.network import FixedDelay, LognormalDelay, UniformDelay
from repro.sim.runner import Scheduler, Simulation

PROTOCOLS = {"2PC": TwoPhaseCommit, "INBAC": INBAC, "PaxosCommit": PaxosCommit}
SYSTEMS = [(8, 3), (20, 4), (50, 10)]
DELAYS = {
    "uniform": lambda: UniformDelay(0.2, 1.0, seed=7),
    "lognormal": lambda: LognormalDelay(median=0.3, sigma=0.6, seed=7),
}
BUCKETS_PER_MESSAGE_BUDGET = 0.05


class QueueLedger:
    """Counts built buckets and records what every stay of a time held."""

    def __init__(self, monkeypatch):
        self.buckets = 0
        self.stays = []  # [events, held a non-delivery event]
        self._open = {}  # time -> its current stay
        new_bucket, push, post_run = batch._new_bucket, BucketQueue.push, Scheduler._post_run

        def counting_new_bucket(deliveries):
            self.buckets += 1
            return new_bucket(deliveries)

        def recording_push(queue, time, priority, entry):
            self._note(queue, time, 1, priority != PRIORITY_DELIVERY)
            push(queue, time, priority, entry)

        def recording_post_run(scheduler, time, run, payload, module):
            # every run send_many closes; it stores a run of one itself and
            # hands the rest to BucketQueue.push_run
            self._note(scheduler._queue, time, len(run), False)
            post_run(scheduler, time, run, payload, module)

        monkeypatch.setattr(batch, "_new_bucket", counting_new_bucket)
        monkeypatch.setattr(BucketQueue, "push", recording_push)
        monkeypatch.setattr(Scheduler, "_post_run", recording_post_run)

    def _note(self, queue, time, events, non_delivery):
        if time not in queue.buckets:
            stay = self._open[time] = [0, False]
            self.stays.append(stay)
        stay = self._open[time]
        stay[0] += events
        stay[1] = stay[1] or non_delivery

    def shared_stays(self):
        """Stays that held a non-delivery event or two or more events."""
        return sum(1 for events, non_delivery in self.stays if non_delivery or events >= 2)


def measure(monkeypatch, protocol, n, f, delay_model, level):
    ledger = QueueLedger(monkeypatch)
    sim = Simulation(
        n=n, f=f, process_class=PROTOCOLS[protocol], delay_model=delay_model, trace_level=level
    )
    result = sim.run([1] * n)
    assert len(result.decisions()) == n
    return ledger, result.trace.message_count()


@pytest.mark.parametrize("level", ["full", "counters"])
@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("n,f", SYSTEMS)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_no_bucket_for_a_time_only_one_delivery_visits(monkeypatch, protocol, n, f, delay, level):
    ledger, messages = measure(monkeypatch, protocol, n, f, DELAYS[delay](), level)
    # exactly the shared stays, so never more: a bucket is built when a second
    # event (or a first non-delivery) arrives, and at no other moment
    assert ledger.buckets == ledger.shared_stays()
    assert ledger.buckets < len(ledger.stays)


@pytest.mark.parametrize("level", ["full", "counters"])
@pytest.mark.parametrize("delay", sorted(DELAYS))
@pytest.mark.parametrize("n,f", SYSTEMS[1:])
def test_buckets_per_message_on_the_pooled_grid(monkeypatch, n, f, delay, level):
    # the three protocols of ``sweep_pool_full`` together, as that grid runs them
    buckets = stays = messages = 0
    for protocol in sorted(PROTOCOLS):
        with monkeypatch.context() as patch:
            ledger, counted = measure(patch, protocol, n, f, DELAYS[delay](), level)
        buckets += ledger.buckets
        stays += len(ledger.stays)
        messages += counted
    # what one bucket per stay used to cost (a lognormal delay clamped to the
    # bound U is the one receive time messages share here)
    assert stays / messages >= 0.95
    assert buckets / messages <= BUCKETS_PER_MESSAGE_BUDGET, (
        f"{buckets} buckets for {messages} messages ({buckets / messages:.3f} per message)"
    )


@pytest.mark.parametrize("delay", sorted(DELAYS))
def test_the_count_repeats_exactly(monkeypatch, delay):
    counts = set()
    for _ in range(3):
        with monkeypatch.context() as patch:
            ledger, messages = measure(patch, "INBAC", 20, 4, DELAYS[delay](), "counters")
            counts.add((ledger.buckets, len(ledger.stays), messages))
    assert len(counts) == 1


@pytest.mark.parametrize("level", ["full", "counters"])
@pytest.mark.parametrize("n,f", SYSTEMS)
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_fixed_delay_builds_no_more_buckets_than_one_per_stay(monkeypatch, protocol, n, f, level):
    ledger, _ = measure(monkeypatch, protocol, n, f, FixedDelay(1.0), level)
    assert ledger.buckets == ledger.shared_stays() <= len(ledger.stays)


class Broadcaster(Process):
    def on_propose(self, value):
        self.env.send_many(value, "wave")

    def on_deliver(self, src, payload):
        pass

    def on_timeout(self, name):
        pass


@pytest.mark.parametrize("level", ["full", "counters"])
@pytest.mark.parametrize(
    "dsts", [[2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], [2, 3, 1, 4, 5]], ids=["others", "all", "self-inside"]
)
def test_a_broadcast_builds_exactly_one_bucket(monkeypatch, dsts, level):
    scheduler = Scheduler(n=6, f=1, delay_model=FixedDelay(1.0), trace_level=level)
    scheduler.bind_processes(Broadcaster)
    scheduler.post_propose(1, dsts)
    ledger = QueueLedger(monkeypatch)
    scheduler.run()
    # the k counted messages share the bucket of t=1, built around the run's
    # own list; the message to self is alone at t=0 and needs none
    assert ledger.buckets == 1
    assert [stay[0] for stay in ledger.stays] == sorted(
        [1, len(dsts) - 1] if 1 in dsts else [len(dsts)]
    )
