"""Telemetry from the asyncio runtime: link draws, timers, cluster lifecycle.

The runtime layers never import ``repro.obs``; a metrics registry reaches
them as a duck-typed constructor argument (``LinkDelay(metrics=...)``,
``AsyncClusterService(metrics=)``) and every hook is a no-op when it is
``None``.  These tests hand a real registry in and pin what each layer
counts; what happened (each crash, rejoin and outcome) is read off the
cluster's report.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.db.cluster import ClusterConfig, run_cluster
from repro.db.coordinator import RetryPolicy
from repro.db.transaction import Operation, Transaction
from repro.obs import MetricsRegistry
from repro.runtime import AsyncClusterService
from repro.runtime.runtime import AsyncRuntime
from repro.sim.faults import FaultPlan
from repro.sim.network import LinkDelay, LinkPolicy
from repro.workloads.transactions import bank_transfer_workload, uniform_workload

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


def run_service(config, transactions, *, metrics=None):
    """A batch run (``run_cluster(backend="asyncio")``) with a metrics registry."""

    async def drive():
        service = AsyncClusterService(config, metrics=metrics)
        await service.start(transactions)
        await service.wait_all_completed(config.max_time)
        return await service.shutdown()

    return asyncio.run(drive())


class TestTransportMetrics:
    def test_sends_and_link_delays_are_counted(self):
        metrics = MetricsRegistry()
        report = run_service(
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
        assert snapshot.histograms["transport.link_delay_units"] == {
            0.3: report.messages_total
        }

    def test_the_default_network_counts_sends_and_no_delays(self):
        metrics = MetricsRegistry()
        report = run_service(config(), workload(), metrics=metrics)
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
        run_service(config(), workload(), metrics=metrics)
        assert metrics.snapshot().counters.get("runtime.timer_set", 0) > 0


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

        async def drive():
            service = AsyncClusterService(
                config(commit_protocol="INBAC", commit_f=1, seed=5), metrics=metrics
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
        replay = metrics.snapshot().histograms["cluster.wal_replay_seconds"]
        assert sum(replay.values()) == 1
        assert min(replay) >= 0.0

        assert list(report.crashes) == [2]
        [event] = report.recovery_events
        assert event == recovery
        assert event.pid == 2
        assert len(report.outcomes) == 2

    def test_a_planned_crash_and_rejoin_are_reported_alike(self):
        # the plan's crash and rejoin are the kernel's own entries, at their
        # planned times exactly, under the names a crash by hand reports
        metrics = MetricsRegistry()
        report = run_service(
            config(
                commit_protocol="INBAC", commit_f=1, seed=5,
                fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
            ),
            spaced_transfers(), metrics=metrics,
        )
        assert report.committed == 2
        counters = metrics.snapshot().counters
        assert counters["cluster.crashes"] == counters["cluster.rejoins"] == 1
        assert report.crashes == {2: 20.0}
        [event] = report.recovery_events
        assert event.pid == 2
        assert event.rejoined_at - event.crashed_at == 20.0
        assert len(report.outcomes) == 2

    def test_retries_reach_the_registry(self):
        metrics = MetricsRegistry()

        async def drive():
            service = AsyncClusterService(config(), metrics=metrics)
            await service.start()
            for txn in workload():
                await service.submit(txn, timeout_units=60.0)
            return await service.shutdown()

        report = asyncio.run(drive())
        assert report.committed == 4
        assert metrics.snapshot().counters.get("cluster.retries", 0) == sum(
            report.retry_counts.values()
        )

    def test_the_retries_counter_sums_the_reports_retry_counts(self):
        metrics = MetricsRegistry()
        transfers = bank_transfer_workload(num_transfers=8, num_partitions=3, seed=5)
        report = run_service(
            config(
                commit_protocol="INBAC", commit_f=1, seed=5, max_time=400.0,
                fault_plan=FaultPlan.crash_recover(2, at=10.0, rejoin_at=25.0),
                retry_policy=RetryPolicy(max_attempts=4, timeout_units=15.0),
            ),
            transfers.transactions, metrics=metrics,
        )
        assert report.retry_counts
        assert metrics.snapshot().counters.get("cluster.retries", 0) == sum(
            report.retry_counts.values()
        )

    def test_an_in_doubt_rejoin_is_reported_and_resolved(self):
        # 2PC blocks a participant that crashes after voting: it rejoins with
        # the transaction in doubt and a termination query resolves it
        metrics = MetricsRegistry()
        report = run_service(
            config(seed=5, fault_plan=FaultPlan.crash_recover(2, at=1.0, rejoin_at=40.0)),
            spaced_transfers(), metrics=metrics,
        )
        [event] = report.recovery_events
        assert event.in_doubt_at_rejoin == ("t-early",)
        assert event.replayed_transactions == 0
        counters = metrics.snapshot().counters
        assert counters["cluster.in_doubt_at_rejoin"] == len(event.in_doubt_at_rejoin)
        assert counters["cluster.in_doubt_resolved"] == 1

    def test_each_rejoin_is_one_wal_replay_observation(self):
        metrics = MetricsRegistry()

        async def drive():
            service = AsyncClusterService(
                config(commit_protocol="INBAC", commit_f=1, seed=5), metrics=metrics
            )
            await service.start()
            early, late = spaced_transfers()
            assert await service.submit(early, timeout_units=60.0) is not None
            assert await service.wait_all_completed(60.0)
            for pid in (2, 3):
                service.crash_partition(pid)
                service.recover_partition(pid)
            assert await service.submit(late, timeout_units=60.0) is not None
            return await service.shutdown()

        report = asyncio.run(drive())
        assert sorted(report.crashes) == [2, 3]
        assert [event.pid for event in report.recovery_events] == [2, 3]
        # t-early wrote to partitions 1 and 2, so only P2's WAL holds it
        assert [event.replayed_transactions for event in report.recovery_events] == [1, 0]
        snapshot = metrics.snapshot()
        assert snapshot.counters["cluster.crashes"] == len(report.crashes)
        assert snapshot.counters["cluster.rejoins"] == len(report.recovery_events)
        replay = snapshot.histograms["cluster.wal_replay_seconds"]
        assert sum(replay.values()) == len(report.recovery_events)

    def test_the_lifecycle_is_reported_alike_without_a_registry(self):
        plan = FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0)
        observed = run_service(
            config(commit_protocol="INBAC", commit_f=1, seed=5, fault_plan=plan),
            spaced_transfers(), metrics=MetricsRegistry(),
        )
        plain = run_service(
            config(commit_protocol="INBAC", commit_f=1, seed=5, fault_plan=plan),
            spaced_transfers(),
        )
        assert plain.crashes == observed.crashes == {2: 20.0}
        assert plain.recovery_events == observed.recovery_events
        assert plain.end_time == observed.end_time >= 40.0
        assert [(o.txn_id, o.decision) for o in plain.outcomes] == [
            (o.txn_id, o.decision) for o in observed.outcomes
        ]
        assert plain.retry_counts == observed.retry_counts == {}

    def test_the_service_takes_a_config_a_unit_and_a_registry(self):
        parameters = inspect.signature(AsyncClusterService.__init__).parameters
        assert list(parameters) == ["self", "config", "unit", "metrics"]
        assert all(
            parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
            for name in ("unit", "metrics")
        )

    def test_telemetry_is_pure_observation(self):
        plain = run_cluster(config(), workload(), backend="asyncio")
        observed = run_service(config(), workload(), metrics=MetricsRegistry())
        assert observed.committed == plain.committed
        assert observed.aborted == plain.aborted
        assert [o.txn_id for o in observed.outcomes] == [
            o.txn_id for o in plain.outcomes
        ]
        assert [o.decision for o in observed.outcomes] == [
            o.decision for o in plain.outcomes
        ]


class TestWakeLateness:
    def drive(self, *, runtime_metrics, network_metrics):
        """A batch run; returns how often the wake-up handle fired."""
        turns = []

        async def drive():
            service = AsyncClusterService(
                config(delay_model=LinkDelay(metrics=network_metrics)),
                metrics=runtime_metrics,
            )
            runtime = service.runtime
            turn = runtime._turn

            def counted_turn():
                turns.append(1)
                turn()

            runtime._turn = counted_turn
            await service.start(workload())
            await service.wait_all_completed(300.0)
            return await service.shutdown()

        report = asyncio.run(drive())
        assert report.committed == 4
        return len(turns)

    def test_one_observation_per_turn_and_none_early(self):
        metrics = MetricsRegistry()
        turns = self.drive(runtime_metrics=metrics, network_metrics=None)
        digest = metrics.snapshot().histograms["runtime.wake_late_seconds"]
        assert turns > 0
        assert sum(digest.values()) == turns
        assert min(digest) >= -1e-6

    def test_nothing_is_observed_without_a_sink(self):
        # the network reports to its own sink; the runtime has none
        metrics = MetricsRegistry()
        turns = self.drive(runtime_metrics=None, network_metrics=metrics)
        assert turns > 0
        assert metrics.snapshot().counters.get("transport.sends", 0) > 0
        assert "runtime.wake_late_seconds" not in metrics.snapshot().histograms
