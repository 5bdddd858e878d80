"""Integration tests of the simulated cluster (partitions + coordinator)."""

from __future__ import annotations

import pytest

from repro.db import ClusterConfig, run_cluster
from repro.db.transaction import Operation, Transaction
from repro.errors import ConfigurationError
from repro.protocols.base import COMMIT
from repro.sim.faults import FaultPlan
from repro.workloads import bank_transfer_workload, hotspot_workload, uniform_workload

PROTOCOLS = ["2PC", "INBAC", "PaxosCommit", "FasterPaxosCommit", "1NBAC", "3PC"]


def simple_transfer(txn_id="t1", submit_time=0.0):
    return Transaction.of(
        txn_id,
        [
            Operation.write(1, "a", 90),
            Operation.write(2, "b", 110),
            Operation.read(1, "a"),
        ],
        submit_time=submit_time,
    )


class TestClusterBasics:
    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_configuration_validation(self, backend):
        # one cluster, one rule: the same refusal text on both backends
        with pytest.raises(ConfigurationError, match="at least 2 partitions"):
            run_cluster(ClusterConfig(num_partitions=1), [simple_transfer()], backend)
        with pytest.raises(ConfigurationError, match="the workload is empty"):
            run_cluster(ClusterConfig(num_partitions=3), [], backend)

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_a_workload_that_repeats_a_transaction_id_is_refused(self, backend):
        # the second "t" used to vanish: one outcome, nothing pending, its
        # writes lost (and the asyncio run waited out its whole max_time)
        config = ClusterConfig(num_partitions=3, max_time=300.0)
        again = Transaction.of("t", [Operation.write(3, "c", 1)], submit_time=1.0)
        with pytest.raises(ConfigurationError, match="repeats transaction id 't'"):
            run_cluster(config, [simple_transfer("t"), again], backend)

    def test_a_transaction_id_with_a_slash_commits(self):
        # the propose timer "txn/a/b/__propose__" used to be routed to a
        # transaction "a" and dropped: "a/b" stayed in doubt, holding its locks
        config = ClusterConfig(num_partitions=2, commit_protocol="2PC", max_time=300.0)
        report = run_cluster(config, [simple_transfer("a/b")])
        assert report.committed == 1
        assert report.pending_transactions == []
        assert report.in_doubt_by_partition == {}
        assert report.store_snapshots[1]["a"] == 90
        assert report.store_snapshots[2]["b"] == 110

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_single_transaction_commits_with_every_protocol(self, protocol):
        config = ClusterConfig(num_partitions=3, commit_protocol=protocol, commit_f=1)
        report = run_cluster(config, [simple_transfer()])
        assert report.committed == 1
        assert report.aborted == 0
        assert report.incomplete == 0
        assert report.store_snapshots[1]["a"] == 90
        assert report.store_snapshots[2]["b"] == 110

    def test_single_partition_transaction_needs_no_commit_protocol(self):
        config = ClusterConfig(num_partitions=2, commit_protocol="INBAC")
        txn = Transaction.of("local", [Operation.write(1, "k", 5)])
        report = run_cluster(config, [txn])
        assert report.committed == 1
        assert report.messages_by_module.get("commit:main", 0) == 0

    def test_writes_not_applied_on_abort(self):
        # two transactions race for the same key on partition 1: one must abort
        config = ClusterConfig(num_partitions=2, commit_protocol="INBAC")
        t1 = Transaction.of(
            "t1",
            [Operation.write(1, "hot", "t1"), Operation.write(2, "x", 1)],
            submit_time=0.0,
        )
        t2 = Transaction.of(
            "t2",
            [Operation.write(1, "hot", "t2"), Operation.write(2, "y", 2)],
            submit_time=0.2,
        )
        report = run_cluster(config, [t1, t2])
        assert report.committed == 1
        assert report.aborted == 1
        committed_value = report.store_snapshots[1]["hot"]
        committed_txn = "t1" if committed_value == "t1" else "t2"
        aborted_txn = "t2" if committed_txn == "t1" else "t1"
        # the aborted transaction's writes are nowhere in the stores
        for snapshot in report.store_snapshots.values():
            assert aborted_txn not in snapshot.values()

    def test_partition_wal_and_locks_are_clean_after_the_run(self):
        config = ClusterConfig(num_partitions=3, commit_protocol="2PC")
        report = run_cluster(config, [simple_transfer()])
        assert report.in_doubt_by_partition == {}
        # all partitions report done; report end time is bounded
        assert report.end_time < 50


class TestClusterWorkloads:
    @pytest.mark.parametrize("protocol", ["2PC", "INBAC"])
    def test_bank_transfers_all_commit_without_contention(self, protocol):
        workload = bank_transfer_workload(num_transfers=8, num_partitions=4, seed=3)
        config = ClusterConfig(num_partitions=4, commit_protocol=protocol, seed=1)
        report = run_cluster(config, workload.transactions)
        assert report.committed + report.aborted == 8
        assert report.incomplete == 0
        # transfers are spaced out, so conflicts are rare: most must commit
        assert report.committed >= 7

    def test_hotspot_workload_produces_aborts(self):
        workload = hotspot_workload(
            num_transactions=20, num_partitions=4, inter_arrival=0.4, seed=5
        )
        config = ClusterConfig(num_partitions=4, commit_protocol="INBAC", seed=1)
        report = run_cluster(config, workload.transactions)
        assert report.aborted > 0
        assert report.committed > 0
        assert report.incomplete == 0

    def test_uniform_workload_message_accounting(self):
        workload = uniform_workload(
            num_transactions=6, num_partitions=4, participants_per_txn=3, seed=2
        )
        config = ClusterConfig(num_partitions=4, commit_protocol="2PC", seed=1)
        report = run_cluster(config, workload.transactions)
        assert report.messages_total > 0
        assert report.messages_per_transaction() > 0
        # EXEC / DONE traffic is tagged "main", commit traffic "commit:main"
        assert "main" in report.messages_by_module
        assert "commit:main" in report.messages_by_module

    def test_latency_reflects_protocol_round_structure(self):
        """1NBAC (1 commit delay) < 2PC/INBAC (2) < 3PC (3+) end-to-end."""
        workload = bank_transfer_workload(num_transfers=5, num_partitions=4, seed=7)
        latencies = {}
        for protocol in ["1NBAC", "2PC", "INBAC", "3PC"]:
            config = ClusterConfig(num_partitions=4, commit_protocol=protocol, seed=1)
            report = run_cluster(config, workload.transactions)
            assert report.incomplete == 0
            latencies[protocol] = report.mean_commit_latency()
        assert latencies["1NBAC"] < latencies["INBAC"]
        assert latencies["INBAC"] <= latencies["3PC"]
        assert latencies["2PC"] <= latencies["INBAC"]

    def test_inbac_keeps_committing_when_a_partition_crashes_mid_run(self):
        # crash a partition after the first transactions have completed: INBAC
        # transactions involving the crashed partition abort or complete via
        # consensus, but the coordinator is never left waiting forever on the
        # transactions whose participants are all alive
        workload = bank_transfer_workload(num_transfers=6, num_partitions=4, seed=11)
        config = ClusterConfig(
            num_partitions=4,
            commit_protocol="INBAC",
            commit_f=1,
            seed=1,
            fault_plan=FaultPlan.crash(2, at=12.0),
            max_time=4000.0,
        )
        report = run_cluster(config, workload.transactions)
        unaffected = [
            outcome
            for outcome in report.outcomes
            if 2 not in outcome.participants or (outcome.decide_time or 1e9) < 12.0
        ]
        assert all(o.completed for o in unaffected)
        assert report.committed >= len(unaffected) - 2


class TestReportAggregates:
    def test_summary_row_fields(self):
        config = ClusterConfig(num_partitions=3, commit_protocol="2PC")
        report = run_cluster(config, [simple_transfer()])
        row = report.summary_row()
        assert row["protocol"] == "2PC"
        assert row["txns"] == 1
        assert row["committed"] == 1
        assert row["mean_latency"] is not None
        assert row["p95_latency"] is not None

    def test_percentile_with_no_completed_transactions(self):
        from repro.db.cluster import ClusterReport

        empty = ClusterReport(
            protocol="x",
            num_partitions=2,
            outcomes=[],
            messages_total=0,
            messages_by_module={},
            end_time=0.0,
            store_snapshots={},
        )
        assert empty.mean_commit_latency() is None
        assert empty.p95_commit_latency() is None
        assert empty.messages_per_transaction() is None

    def test_p95_is_nearest_rank(self):
        from repro.db.cluster import ClusterReport
        from repro.db.coordinator import TransactionOutcome

        outcomes = [
            TransactionOutcome(f"t{k}", decision=COMMIT, decide_time=float(k))
            for k in range(12, 0, -1)
        ]
        report = ClusterReport(
            protocol="x",
            num_partitions=2,
            outcomes=outcomes,
            messages_total=0,
            messages_by_module={},
            end_time=12.0,
            store_snapshots={},
        )
        # the rank is ceil(0.95 * 12) = 12, as every percentile in the tree
        # (repro.sim.trace.digest_percentile); round() made it 11
        assert report.p95_commit_latency() == 12.0
