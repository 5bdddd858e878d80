"""Unit tests for the cluster-invariant battery (repro.db.invariants)."""

from __future__ import annotations

from broken_protocols import SplitBrainCommit
from repro.db import ClusterConfig, run_cluster
from repro.db.invariants import (
    InvariantReport,
    check_atomicity,
    check_cluster,
    check_durability,
    check_lock_safety,
    _wal_outcomes,
)
from repro.db.locks import LockManager, LockMode, _KeyLock
from repro.db.store import VersionedStore
from repro.db.wal import ABORT, COMMIT, PREPARE, WriteAheadLog
from repro.explore import CrashPoint
from repro.workloads import bank_transfer_workload


def _atomicity(partitions):
    return check_atomicity(partitions, _outcomes(partitions))


def _lock_safety(partitions):
    return check_lock_safety(partitions, _outcomes(partitions))


def _outcomes(partitions):
    """What :func:`check_cluster` passes: one WAL pass per partition."""
    return {pid: _wal_outcomes(server) for pid, server in partitions.items()}


class FakePartition:
    """Just the three components the invariant checks read."""

    def __init__(self):
        self.wal = WriteAheadLog()
        self.store = VersionedStore()
        self.locks = LockManager()

    def commit(self, txn_id, writes):
        self.wal.append(PREPARE, txn_id, writes=writes)
        self.wal.append(COMMIT, txn_id, writes=writes)
        self.store.apply_many(writes, txn_id=txn_id)

    def abort(self, txn_id, writes):
        self.wal.append(PREPARE, txn_id, writes=writes)
        self.wal.append(ABORT, txn_id)


class TestAtomicity:
    def test_consistent_outcomes_pass(self):
        a, b = FakePartition(), FakePartition()
        a.commit("t1", {"x": 1})
        b.commit("t1", {"y": 2})
        a.abort("t2", {"x": 9})
        b.abort("t2", {"y": 9})
        assert _atomicity({1: a, 2: b}) == []

    def test_commit_abort_split_is_reported(self):
        a, b = FakePartition(), FakePartition()
        a.commit("t1", {"x": 1})
        b.abort("t1", {"y": 2})
        violations = _atomicity({1: a, 2: b})
        assert len(violations) == 1
        assert "'t1'" in violations[0]
        assert "committed on partitions [1]" in violations[0]
        assert "aborted on partitions [2]" in violations[0]

    def test_applied_without_commit_record_is_reported(self):
        a = FakePartition()
        a.abort("t1", {"x": 1})
        a.store.apply_many({"x": 1}, txn_id="t1")  # sneaky apply after abort
        violations = _atomicity({1: a})
        assert any("without a COMMIT record" in v for v in violations)

    def test_in_doubt_alongside_commit_is_not_a_violation(self):
        # a crashed participant that never decided is in doubt, not conflicting
        a, b = FakePartition(), FakePartition()
        a.commit("t1", {"x": 1})
        b.wal.append(PREPARE, "t1", writes={"y": 2})
        assert _atomicity({1: a, 2: b}) == []

    def test_violations_are_listed_in_a_fixed_order_and_wording(self):
        # pid lists sorted, splits after the store checks and sorted by id,
        # whatever order the partitions come in and whoever decided first
        a, b, c, d = (FakePartition() for _ in range(4))
        a.commit("t2", {"x": 1})
        b.abort("t2", {"y": 1})
        c.commit("t2", {"z": 1})
        d.abort("t2", {"w": 1})
        a.abort("t1", {"x": 2})
        b.commit("t1", {"y": 2})
        c.commit("t3", {"z": 3})
        d.commit("t3", {"w": 3})
        a.wal.append(PREPARE, "t4", writes={"x": 4})
        b.commit("t4", {"y": 4})
        c.abort("t4", {"z": 4})
        d.store.apply_many({"w": 9}, txn_id="t9")
        expected = [
            "atomicity: partition 4 applied writes of 't9' without a COMMIT "
            "record in its WAL",
            "atomicity: 't1' committed on partitions [2] but aborted on "
            "partitions [1]",
            "atomicity: 't2' committed on partitions [1, 3] but aborted on "
            "partitions [2, 4]",
            "atomicity: 't4' committed on partitions [2] but aborted on "
            "partitions [3]",
        ]
        assert _atomicity({3: c, 1: a, 4: d, 2: b}) == expected
        assert check_cluster({3: c, 1: a, 4: d, 2: b}).violations[:4] == expected


class TestDurability:
    def test_replay_matching_store_passes(self):
        a = FakePartition()
        a.commit("t1", {"x": 1})
        a.commit("t2", {"x": 2, "y": 3})
        a.abort("t3", {"x": 99})
        assert check_durability({1: a}) == []

    def test_unlogged_write_is_reported(self):
        a = FakePartition()
        a.commit("t1", {"x": 1})
        a.store.apply("y", 42, txn_id=None)  # store mutation the WAL never saw
        violations = check_durability({1: a})
        assert len(violations) == 1
        assert "partition 1" in violations[0] and "['y']" in violations[0]

    def test_lost_write_is_reported(self):
        a = FakePartition()
        a.wal.append(PREPARE, "t1", writes={"x": 1})
        a.wal.append(COMMIT, "t1", writes={"x": 1})  # committed but never applied
        violations = check_durability({1: a})
        assert violations and "'x'" in violations[0]


class TestLockSafety:
    def test_clean_table_passes(self):
        a = FakePartition()
        a.commit("t1", {"x": 1})
        a.locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)  # undecided holder: fine
        a.wal.append(PREPARE, "t2", writes={"x": 5})
        assert _lock_safety({1: a}) == []

    def test_locks_surviving_a_decision_are_reported(self):
        a = FakePartition()
        a.locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        a.commit("t1", {"x": 1})  # decided, but the lock was never released
        violations = _lock_safety({1: a})
        assert len(violations) == 1
        assert "after COMMIT" in violations[0] and "'x'" in violations[0]

    def test_two_exclusive_holders_are_reported(self):
        a = FakePartition()
        # corrupt the table directly: the public API cannot produce this state
        a.locks._locks["x"] = _KeyLock(
            mode=LockMode.EXCLUSIVE, holders={"t1", "t2"}
        )
        violations = _lock_safety({1: a})
        assert violations and "EXCLUSIVE with 2 holders" in violations[0]

    def test_mode_of_accessor(self):
        locks = LockManager()
        assert locks.mode_of("x") is None
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert locks.mode_of("x") == LockMode.SHARED
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert locks.mode_of("x") == LockMode.EXCLUSIVE
        locks.release_all("t1")
        assert locks.mode_of("x") is None


class TestInvariantReport:
    def test_broken_names_in_order(self):
        report = InvariantReport(
            atomicity=False, durability=True, lock_safety=False,
            violations=["atomicity: x", "lock-safety: y"],
        )
        assert not report.holds
        assert report.broken() == ("atomicity", "lock-safety")
        assert "atomicity: x" in report.describe()

    def test_clean_report(self):
        report = InvariantReport()
        assert report.holds and report.broken() == ()
        assert report.describe() == "all cluster invariants hold"


class TestClusterIntegration:
    def test_every_real_cluster_run_carries_a_clean_battery(self):
        workload = bank_transfer_workload(num_transfers=5, num_partitions=3, seed=4)
        for protocol in ("2PC", "INBAC", "PaxosCommit"):
            report = run_cluster(
                ClusterConfig(num_partitions=3, commit_protocol=protocol),
                workload.transactions,
            )
            assert report.invariants is not None
            assert report.invariants.holds, report.invariants.violations

    def test_crashed_partition_still_passes_the_battery(self):
        # a crash freezes the partition's WAL and store together, so replay
        # still reconstructs exactly its committed prefix
        from repro.sim.faults import FaultPlan

        workload = bank_transfer_workload(num_transfers=5, num_partitions=3, seed=4)
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol="INBAC",
                fault_plan=FaultPlan.crash(2, at=8.0),
                max_time=400.0,
            ),
            workload.transactions,
        )
        assert report.execution_class == "crash-failure"
        assert report.invariants.holds, report.invariants.violations

    def test_split_brain_fixture_breaks_atomicity_under_a_crash(self):
        # positive control: the broken coordinator commits on one partition
        # and aborts on another once a participant crash makes a vote go
        # missing — the battery must say so, naming the transaction.  The
        # transactions need >= 3 participants: with two, the buggy second
        # outcome only ever reaches the crashed process.
        from repro.workloads import uniform_workload

        workload = uniform_workload(
            4, num_partitions=3, participants_per_txn=3, seed=1
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol=SplitBrainCommit,
                controller=CrashPoint(pid=2, point=4),
                max_time=400.0,
            ),
            workload.transactions,
        )
        assert report.invariants is not None
        assert not report.invariants.atomicity
        assert "atomicity" in report.invariants.broken()
        assert any("committed on partitions" in v for v in report.invariants.violations)
        # the run records what the controller did, replayably
        assert report.schedule_decisions
        assert report.trace_fingerprint is not None

    def test_blocked_partitions_reported_in_doubt(self):
        # crash a participant early: 2PC instances whose embedded coordinator
        # died leave the surviving participants prepared-but-undecided, and
        # the report names those partitions and transactions
        from repro.workloads import uniform_workload

        workload = uniform_workload(
            4, num_partitions=3, participants_per_txn=3, seed=1
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol="2PC",
                controller=CrashPoint(pid=1, point=1),
                max_time=400.0,
            ),
            workload.transactions,
        )
        assert report.incomplete > 0
        assert report.in_doubt_by_partition
        for pid, txns in report.in_doubt_by_partition.items():
            assert 1 <= pid <= 3 and txns
        # blocked, but safe: the battery still holds
        assert report.invariants.holds, report.invariants.violations

    def test_pending_transactions_reported_when_client_is_crashed(self):
        workload = bank_transfer_workload(num_transfers=3, num_partitions=3, seed=1)
        report = run_cluster(
            ClusterConfig(
                num_partitions=3,
                commit_protocol="2PC",
                controller=CrashPoint(pid=4, point=0),  # pid 4 = the client
                max_time=200.0,
            ),
            workload.transactions,
        )
        # the client died before submitting anything: no outcome records exist
        # (so `incomplete` sees nothing), but pending_transactions still
        # reports the whole workload as unfinished
        assert report.incomplete == 0
        assert report.pending_transactions == [t.txn_id for t in workload.transactions]
        # safety is untouched by losing the client
        assert report.invariants.holds, report.invariants.violations
