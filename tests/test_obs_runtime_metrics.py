"""Telemetry from the asyncio runtime: link draws, timers, cluster lifecycle.

The runtime layers never import ``repro.obs``; a metrics registry and an
event bus reach them as duck-typed constructor arguments
(``LinkDelay(metrics=...)``, ``AsyncClusterService(metrics=, events=)``)
and every hook is a no-op when they are ``None``.  These tests hand real
obs objects in and pin what each layer reports.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.db.cluster import ClusterConfig
from repro.db.transaction import Operation, Transaction
from repro.obs import EventBus, MemorySink, MetricsRegistry
from repro.runtime import AsyncClusterService
from repro.runtime.cluster import run_cluster_async
from repro.runtime.runtime import AsyncRuntime
from repro.sim.faults import FaultPlan
from repro.sim.network import LinkDelay, LinkPolicy
from repro.workloads.transactions import uniform_workload

pytestmark = pytest.mark.runtime


def workload(txns=4, partitions=3, seed=2):
    return uniform_workload(
        num_transactions=txns, num_partitions=partitions,
        participants_per_txn=partitions, seed=seed,
    ).transactions


def config(**overrides):
    base = dict(num_partitions=3, commit_protocol="2PC", seed=2, max_time=300.0)
    base.update(overrides)
    return ClusterConfig(**base)


class TestTransportMetrics:
    def test_sends_and_link_delays_are_counted(self):
        metrics = MetricsRegistry()
        report = run_cluster_async(
            config(
                delay_model=LinkDelay(LinkPolicy(delay_units=0.3), metrics=metrics)
            ),
            workload(),
            metrics=metrics,
        )
        assert report.committed == 4
        snapshot = metrics.snapshot()
        # every counted message is one draw; with a uniform delay policy
        # every draw is also delayed and observed in the histogram
        assert snapshot.counters["transport.sends"] == report.messages_total
        assert snapshot.counters["transport.delayed"] == report.messages_total
        delays = snapshot.histogram_summary("transport.link_delay_units")
        assert delays["count"] == float(report.messages_total)
        assert delays["p50"] == 0.3

    def test_the_default_network_counts_sends_and_no_delays(self):
        metrics = MetricsRegistry()
        report = run_cluster_async(config(), workload(), metrics=metrics)
        counters = metrics.snapshot().counters
        assert counters["transport.sends"] == report.messages_total
        assert "transport.delayed" not in counters

    def test_an_outage_is_held_not_dropped(self):
        metrics = MetricsRegistry()
        # the link is down for the whole run: every message is held past it
        network = LinkDelay(LinkPolicy(outages=((0.0, 10_000.0),)), metrics=metrics)

        async def drive():
            service = AsyncClusterService(
                config(num_partitions=2, max_time=100.0, delay_model=network),
                metrics=metrics,
            )
            await service.start()
            outcome = await service.submit(
                workload(txns=1, partitions=2)[0], timeout_units=10.0
            )
            report = await service.shutdown()
            return outcome, report

        outcome, report = asyncio.run(drive())
        assert outcome is None
        assert report.execution_class == "network-failure"
        counters = metrics.snapshot().counters
        assert counters["transport.delayed"] == counters["transport.sends"] == network.late > 0
        assert not any(name.endswith("drops") for name in counters)

    def test_metrics_default_to_none_and_cost_nothing(self):
        assert LinkDelay().metrics is None


class TestTimerMetrics:
    def test_set_rearm_cancel_counters(self):
        metrics = MetricsRegistry()

        async def drive():
            runtime = AsyncRuntime(3, 1, unit=0.001, metrics=metrics)
            runtime.set_timer(1, 5.0, "retry")       # first arm
            runtime.set_timer(1, 9.0, "retry")       # rearm (same key)
            runtime.set_timer(2, 5.0, "retry")       # first arm, other pid
            runtime.cancel_timer(1, "retry")
            runtime.cancel_timer(1, "never-set")     # no-op: nothing to cancel
            # arm-after-cancel: the cancel dropped the table entry, so this
            # supersedes nothing and counts as a set
            runtime.set_timer(1, 12.0, "retry")

        asyncio.run(drive())
        counters = metrics.snapshot().counters
        assert counters["runtime.timer_set"] == 3
        assert counters["runtime.timer_rearm"] == 1
        assert counters["runtime.timer_cancel"] == 1

    def test_commit_run_arms_timers(self):
        metrics = MetricsRegistry()
        run_cluster_async(config(), workload(), metrics=metrics)
        assert metrics.counter_value("runtime.timer_set") > 0


def spaced_transfers():
    """Two multi-partition transactions with a quiet window between them."""
    return [
        Transaction.of(
            "t-early",
            [Operation.write(1, "a", 10), Operation.write(2, "b", 20)],
            submit_time=0.0,
        ),
        Transaction.of(
            "t-after-rejoin",
            [Operation.write(2, "b", 21), Operation.write(3, "c", 30)],
            submit_time=60.0,
        ),
    ]


class TestClusterLifecycleTelemetry:
    def test_crash_rejoin_and_shutdown_are_reported(self):
        metrics = MetricsRegistry()
        sink = MemorySink()
        events = EventBus([sink])

        async def drive():
            service = AsyncClusterService(
                config(commit_protocol="INBAC", commit_f=1, seed=5),
                metrics=metrics, events=events,
            )
            await service.start()
            early, late = spaced_transfers()
            assert await service.submit(early, timeout_units=60.0) is not None
            service.crash_partition(2)
            recovery = service.recover_partition(2)
            assert await service.submit(late, timeout_units=60.0) is not None
            report = await service.shutdown()
            return report, recovery

        report, recovery = asyncio.run(drive())
        assert report.committed == 2

        counters = metrics.snapshot().counters
        assert counters["cluster.crashes"] == 1
        assert counters["cluster.rejoins"] == 1
        replay = metrics.snapshot().histogram_summary("cluster.wal_replay_seconds")
        assert replay["count"] == 1.0
        assert replay["mean"] >= 0.0

        names = sink.names()
        assert names[0] == "cluster.crash"
        assert "cluster.rejoin" in names
        assert names[-1] == "cluster.shutdown"
        rejoin = next(e for e in sink.events if e.name == "cluster.rejoin")
        assert rejoin.fields["pid"] == 2
        assert rejoin.fields["replayed_transactions"] == recovery.replayed_transactions
        assert rejoin.fields["wal_replay_seconds"] >= 0.0
        shutdown = next(e for e in sink.events if e.name == "cluster.shutdown")
        assert shutdown.fields["transactions"] == 2
        assert shutdown.fields["crashes"] == 1

    def test_a_planned_crash_and_rejoin_are_reported_alike(self):
        # the plan's crash and rejoin are the kernel's own entries, at their
        # planned times exactly, under the names a crash by hand reports
        metrics = MetricsRegistry()
        sink = MemorySink()
        report = run_cluster_async(
            config(
                commit_protocol="INBAC", commit_f=1, seed=5,
                fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
            ),
            spaced_transfers(), metrics=metrics, events=EventBus([sink]),
        )
        assert report.committed == 2
        counters = metrics.snapshot().counters
        assert counters["cluster.crashes"] == counters["cluster.rejoins"] == 1
        crash = next(e for e in sink.events if e.name == "cluster.crash")
        rejoin = next(e for e in sink.events if e.name == "cluster.rejoin")
        assert crash.fields == {"pid": 2, "at_units": 20.0}
        assert rejoin.fields["downtime_units"] == 20.0
        [event] = report.recovery_events
        assert rejoin.fields["replayed_transactions"] == event.replayed_transactions

    def test_retries_reach_the_registry(self):
        metrics = MetricsRegistry()

        async def drive():
            service = AsyncClusterService(config(), metrics=metrics)
            await service.start()
            for txn in workload():
                await service.submit(txn, timeout_units=60.0)
            report = await service.shutdown()
            return report, sum(service.client.retry_counts.values())

        report, retries = asyncio.run(drive())
        assert report.committed == 4
        assert metrics.counter_value("cluster.retries") == retries

    def test_telemetry_is_pure_observation(self):
        plain = run_cluster_async(config(), workload())
        observed = run_cluster_async(
            config(), workload(),
            metrics=MetricsRegistry(), events=EventBus([MemorySink()]),
        )
        assert observed.committed == plain.committed
        assert observed.aborted == plain.aborted
        assert [o.txn_id for o in observed.outcomes] == [
            o.txn_id for o in plain.outcomes
        ]
        assert [o.decision for o in observed.outcomes] == [
            o.decision for o in plain.outcomes
        ]
