"""A finished commit instance retires, and nothing a run reports moves.

``AtomicCommitProcess.finished`` is False by default; 2PC is finished once
it has proposed and decided, and a partition drops a finished instance
after the event that finished it (``PartitionServer._retire_if_finished``).
The differential battery runs each cluster twice, as is and with
``TwoPhaseCommit.finished`` patched to False, which keeps every instance
as before retirement existed, and requires the two reports to be identical.
The structural tests bound what a settled 2PC service holds: no instance.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.db.cluster as cluster_module
from repro.db.cluster import Cluster, ClusterConfig
from repro.db.coordinator import RetryPolicy
from repro.db.partition import PartitionServer
from repro.db.wal import PREPARE
from repro.exp import GridSpec, run_trial
from repro.explore import explore
from repro.protocols.base import AtomicCommitProcess
from repro.protocols.registry import all_protocols
from repro.protocols.two_phase import TwoPhaseCommit
from repro.runtime import AsyncClusterService
from repro.sim.faults import FaultPlan
from repro.sim.runner import Scheduler
from repro.workloads.transactions import hotspot_workload, uniform_workload


def report_facts(report):
    """Everything a cluster report says about a run, as comparable data."""
    return {
        "outcomes": report.outcomes,
        "wal_records": report.wal_records,
        "messages_total": report.messages_total,
        "messages_by_module": report.messages_by_module,
        "messages_until_last_decision": report.messages_until_last_decision,
        "trace_fingerprint": report.trace_fingerprint,
        "schedule_decisions": report.schedule_decisions,
        "store_snapshots": report.store_snapshots,
        "invariant_violations": report.invariants.violations,
        "recovery_events": report.recovery_events,
        "pending_transactions": report.pending_transactions,
        "crashes": report.crashes,
        "end_time": report.end_time,
        "execution_class": report.execution_class,
    }


def run_twice(monkeypatch, run):
    """``run()`` as is, then with every 2PC instance kept; returns both
    legs' results.

    Every cluster report a leg renders (an exploration renders many) must
    equal the other leg's, and the kept leg's partitions must hold more
    instances than the retiring leg's when their kernels release them.
    """
    legs = []
    for keep_every_instance in (False, True):
        reports, held = [], []
        original_run, original_release = cluster_module.run_cluster, PartitionServer.release

        def capturing_run(*args, **kwargs):
            report = original_run(*args, **kwargs)
            reports.append(report_facts(report))
            return report

        def counting_release(server):
            held.append(sum(i is not None for i in server.instances.values()))
            original_release(server)

        with monkeypatch.context() as patch:
            patch.setattr(cluster_module, "run_cluster", capturing_run)
            patch.setattr(PartitionServer, "release", counting_release)
            if keep_every_instance:
                patch.setattr(TwoPhaseCommit, "finished", False)
            result = run()
        legs.append((reports, sum(held), result))
    (retired, retired_held, retired_result), (kept, kept_held, kept_result) = legs
    assert retired, "the run rendered no cluster report"
    assert retired == kept
    # the battery is not vacuous: retirement dropped instances in the run
    assert retired_held < kept_held
    return retired_result, kept_result


def run_on_the_simulator(config, transactions):
    # looked up at call time, so run_twice's capture sees the call
    return cluster_module.run_cluster(config, transactions)


class TestDifferentialBattery:
    @pytest.mark.parametrize(
        "workload",
        [
            uniform_workload(60, 4, participants_per_txn=3, inter_arrival=1.0, seed=4),
            hotspot_workload(60, 4, participants_per_txn=3, seed=4),
        ],
        ids=["uniform", "hotspot"],
    )
    def test_workload(self, monkeypatch, workload):
        config = ClusterConfig(num_partitions=4, commit_protocol="2PC", seed=4)
        run_twice(monkeypatch, lambda: run_on_the_simulator(config, workload.transactions))

    @pytest.mark.parametrize(
        "retry_policy",
        [None, RetryPolicy(max_attempts=3, timeout_units=15.0)],
        ids=["no-retry", "retry-3x15"],
    )
    def test_crash_recover(self, monkeypatch, retry_policy):
        # P2 is down from 20 to 40 while transactions keep arriving: commit
        # messages and termination queries meet retired transactions
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="2PC",
            seed=6,
            max_time=600.0,
            fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
            retry_policy=retry_policy,
        )
        workload = uniform_workload(30, 3, participants_per_txn=2, inter_arrival=2.0, seed=6)
        retired, _ = run_twice(
            monkeypatch, lambda: run_on_the_simulator(config, workload.transactions)
        )
        assert len(retired.recovery_events) == 1
        # with the policy, duplicate EXECs reach transactions P1 or P3 retired
        assert bool(retired.retry_counts) == (retry_policy is not None)

    def test_cluster_anomaly_exploration(self, monkeypatch):
        def explored():
            return explore(
                "2PC", n=3, f=1, budget=24,
                workload=("small", "uniform", {"transactions": 6}),
                preset="cluster-anomaly",
            )

        retired, kept = run_twice(monkeypatch, explored)
        assert retired.schedules_run == kept.schedules_run == 24
        assert retired.errors == kept.errors == []
        assert [v.fingerprint for v in retired.violations] == [
            v.fingerprint for v in kept.violations
        ]

    def test_propose_after_decide_schedule(self, monkeypatch):
        """A random walk that defers a participant's propose past the
        OUTCOME it is sent: the decided instance still sends its VOTE, so
        retiring on ``decided`` alone changes the trace fingerprint (the
        run ``tests/test_scheduler_bucket.py`` pins as
        ``cluster/random-walk``)."""
        late_proposals = []
        original_propose = TwoPhaseCommit.on_propose

        def observed_propose(instance, value):
            if instance.decided:
                late_proposals.append(instance.pid)
            original_propose(instance, value)

        monkeypatch.setattr(TwoPhaseCommit, "on_propose", observed_propose)
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(3, 1)],
            workloads=[("uniform3", "uniform", {"transactions": 4})],
            schedules=[("rw", "random-walk", {"defer_prob": 0.3})],
            seeds=[0],
            max_time=150.0,
        )
        (trial,) = grid.trials()
        retired, kept = run_twice(
            monkeypatch, lambda: run_trial(trial, trace_level="full")
        )
        assert late_proposals, "the schedule no longer proposes after deciding"
        assert retired.error is None
        assert retired.extra["trace_fingerprint"] == kept.extra["trace_fingerprint"]
        assert retired.decisions == kept.decisions

    def test_only_2pc_can_finish(self):
        # every other protocol keeps the default: its decided processes keep
        # answering peers, so a partition keeps its instances
        finishing = {
            name
            for name, info in all_protocols().items()
            if info.cls.finished is not AtomicCommitProcess.finished
        }
        assert finishing == {"2PC"}
        assert AtomicCommitProcess.finished is False


def multi_participant_prepares(server):
    return {
        record.txn_id
        for record in server.wal.records()
        if record.kind == PREPARE and len(record.participants) > 1
    }


class TestSettledServiceHoldsNoInstance:
    def settle_on_the_simulator(self, protocol):
        workload = uniform_workload(40, 4, participants_per_txn=2, inter_arrival=1.0, seed=8)
        config = ClusterConfig(num_partitions=4, commit_protocol=protocol, seed=8)
        cluster = Cluster(config, Scheduler, max_time=config.max_time)
        client = cluster.bind(workload.transactions)
        # no stop rule: the run ends when no event is left, every
        # participant has logged
        cluster.kernel.run()
        assert client.all_completed()
        partitions = [cluster.kernel.processes[pid] for pid in range(1, 5)]
        for server in partitions:
            assert server.wal.in_doubt() == []
        return cluster, partitions

    def test_2pc_on_the_simulator(self):
        cluster, partitions = self.settle_on_the_simulator("2PC")
        for server in partitions:
            assert multi_participant_prepares(server)
            assert server.instances == {}
        cluster.kernel.release()

    def test_inbac_keeps_every_instance(self):
        cluster, partitions = self.settle_on_the_simulator("INBAC")
        for server in partitions:
            assert set(server.instances) == multi_participant_prepares(server)
            assert all(i.decided for i in server.instances.values())
        cluster.kernel.release()

    @pytest.mark.runtime
    def test_2pc_on_the_asyncio_service(self):
        workload = uniform_workload(30, 3, participants_per_txn=2, inter_arrival=0.5, seed=9)

        async def settled():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start(workload.transactions)
            assert await service.wait_all_completed(300.0)
            partitions = [service.runtime.processes[pid] for pid in range(1, 4)]
            held = [dict(server.instances) for server in partitions]
            prepared = [multi_participant_prepares(server) for server in partitions]
            report = await service.shutdown()
            return held, prepared, report

        held, prepared, report = asyncio.run(settled())
        assert report.incomplete == 0
        assert report.invariants.holds
        assert all(prepared)
        assert held == [{}, {}, {}]
