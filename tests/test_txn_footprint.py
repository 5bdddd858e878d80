"""A transaction is stored once, from the client's EXEC to the partition's log.

``ClientCoordinator._submit`` builds one participant tuple per transaction;
every EXEC carries it, and the outcome and the PREPARE record hold that same
object.  A partition prepares with the EXEC payload's writes dict itself, the
PREPARE record keeps it and the COMMIT record shares it; the embedded commit
environment reads the transaction off that record, and the partition keeps
only the commit instance beside it.  The identities are asserted with
``is``; what they save is held by a budget on the bytes a simulated run
retains per transaction, the same on any machine.  A 2PC instance retires
once it has proposed and decided, so a finished 2PC transaction leaves only
its log records, its store versions and its outcome.
"""

from __future__ import annotations

import copy
import gc
import pickle
import tracemalloc

from repro.db.cluster import Cluster, ClusterConfig
from repro.db.coordinator import RetryPolicy, TransactionOutcome
from repro.db.partition import EmbeddedCommitEnv
from repro.db.store import VersionRecord
from repro.db.transaction import Operation, Transaction
from repro.db.wal import COMMIT, PREPARE
from repro.sim.faults import FaultPlan
from repro.sim.runner import Scheduler
from repro.workloads.transactions import bank_transfer_workload, uniform_workload

#: traced bytes the whole run may retain per transaction of the budget run;
#: before one copy was kept it retained about 4 300, with a per-transaction
#: entry beside the log about 2 850, with every decided instance kept about
#: 2 700, now 1 763 (CPython 3.11.7): the budget is that plus about 5 %
BUDGET_BYTES_PER_TXN = 1850
BUDGET_TXNS = 400


def run_to_completion(config: ClusterConfig, transactions) -> Cluster:
    """Run a cluster on the simulator until every transaction has an outcome,
    keeping its kernel (``run_cluster`` releases it)."""
    cluster = Cluster(
        config, Scheduler, max_time=config.max_time, trace_level=config.trace_level
    )
    client = cluster.bind(transactions)
    kernel = cluster.kernel
    client.on_outcome = lambda _: client.all_completed() and kernel.stop()
    kernel.run()
    assert client.all_completed()
    return cluster


def exec_messages(cluster: Cluster):
    """``(partition, payload)`` of every EXEC of a full-trace run."""
    return [
        (m.dst, m.payload) for m in cluster.kernel.trace.messages if m.payload[0] == "EXEC"
    ]


class TestOneCopy:
    def test_records_outcome_and_instances_hold_the_exec_payload(self):
        workload = uniform_workload(40, 4, participants_per_txn=3, seed=3)
        retired = 0
        for protocol in ("2PC", "INBAC", "PaxosCommit"):
            cluster = run_to_completion(
                ClusterConfig(num_partitions=4, commit_protocol=protocol, seed=3),
                workload.transactions,
            )
            outcomes = cluster.client.outcomes
            partitions = cluster.kernel.processes
            execs = exec_messages(cluster)
            assert len(execs) == 3 * len(workload.transactions)
            for pid, (_, txn_id, _, participants, _, writes) in execs:
                outcome = outcomes[txn_id]
                assert participants is outcome.participants
                assert type(participants) is tuple
                server = partitions[pid]
                # the run stops at the last first DONE: a slower participant
                # may not have logged its outcome yet
                prepare, *decided = server.wal.records_for(txn_id)
                assert prepare.kind == PREPARE
                assert prepare.writes is writes
                assert prepare.participants is participants
                instance = server.instances.get(txn_id)
                if protocol == "2PC":
                    # a proposed and decided 2PC instance is gone; one still
                    # waiting for its OUTCOME is kept
                    assert (instance is None) == bool(decided)
                    if instance is None:
                        retired += 1
                        continue
                    assert instance.vote is not None and not instance.decided
                env = instance.env
                assert env.record is prepare
                assert env.participants is participants
                for record in decided:
                    if record.kind == COMMIT:
                        assert record.writes is writes
            cluster.kernel.release()
        assert retired > len(workload.transactions)

    def test_a_retried_exec_carries_the_first_tuple(self):
        # P2 is down when transactions are submitted into the outage: the
        # client resubmits them, every attempt with the outcome's tuple
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="INBAC",
            seed=5,
            max_time=400.0,
            fault_plan=FaultPlan.crash_recover(2, at=10.0, rejoin_at=25.0),
            retry_policy=RetryPolicy(max_attempts=4, timeout_units=15.0),
        )
        workload = bank_transfer_workload(num_transfers=8, num_partitions=3, seed=5)
        cluster = run_to_completion(config, workload.transactions)
        outcomes = cluster.client.outcomes
        retried = {txn for txn, o in outcomes.items() if len(o.submissions) > 1}
        assert retried
        for _, (_, txn_id, _, participants, _, _) in exec_messages(cluster):
            assert participants is outcomes[txn_id].participants
        cluster.kernel.release()


class TestSlots:
    def test_per_transaction_objects_have_no_instance_dict(self):
        workload = uniform_workload(8, 4, participants_per_txn=2, seed=1)
        config = ClusterConfig(num_partitions=4)
        cluster = Cluster(config, Scheduler, max_time=config.max_time)
        cluster.bind(workload.transactions)
        kernel = cluster.kernel
        partitions = [kernel.processes[pid] for pid in range(1, 5)]
        # stop at the first logged outcome: the first transaction's other
        # participant has voted and waits for it, its instance live
        for server in partitions:
            server.on_logged = lambda *_: kernel.stop()
        kernel.run()
        (logger,) = [server for server in partitions if server.store.keys()]
        (instance,) = [i for server in partitions for i in server.instances.values()]
        versions = logger.store.versions(logger.store.keys()[0])
        objects = {
            EmbeddedCommitEnv: instance.env,
            TransactionOutcome: next(iter(cluster.client.outcomes.values())),
            VersionRecord: versions[0],
            Transaction: workload.transactions[0],
            Operation: workload.transactions[0].operations[0],
        }
        for cls, obj in objects.items():
            assert type(obj) is cls
            assert not hasattr(obj, "__dict__"), cls.__name__
            assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")
        # the embedded env reads the transaction off its PREPARE record
        assert EmbeddedCommitEnv.__slots__ == ("host", "record")
        cluster.kernel.release()

    def test_a_report_survives_pickle_and_deepcopy(self):
        workload = uniform_workload(12, 4, participants_per_txn=2, seed=2)
        cluster = run_to_completion(ClusterConfig(num_partitions=4), workload.transactions)
        report = cluster.report()
        cluster.kernel.release()
        for clone in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert clone.outcomes == report.outcomes
            assert clone.wal_records == report.wal_records
            assert clone.committed == report.committed
            assert clone.mean_commit_latency() == report.mean_commit_latency()
            # the clone, too, holds each participant tuple once
            by_txn = {o.txn_id: o.participants for o in clone.outcomes}
            for records in clone.wal_records.values():
                for record in records:
                    if record.kind == PREPARE:
                        assert record.participants is by_txn[record.txn_id]
        for txn in workload.transactions:
            assert pickle.loads(pickle.dumps(txn)) == copy.deepcopy(txn) == txn


def test_retained_bytes_per_transaction_within_budget():
    """Traced bytes retained per transaction of a 400-transaction
    2-participant 2PC run on four partitions, counted around ``kernel.run()``
    (before ``report()``): every allocation of the run, the simulator
    kernel's included."""
    workload = uniform_workload(BUDGET_TXNS, 4, participants_per_txn=2, seed=0)
    config = ClusterConfig(num_partitions=4, commit_protocol="2PC", trace_level="counters")
    cluster = Cluster(config, Scheduler, max_time=config.max_time, trace_level="counters")
    client = cluster.bind(workload.transactions)
    kernel = cluster.kernel
    client.on_outcome = lambda _: client.all_completed() and kernel.stop()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert client.all_completed()
    assert retained / BUDGET_TXNS <= BUDGET_BYTES_PER_TXN, retained / BUDGET_TXNS
    kernel.release()
