"""Unit tests for the database substrate components (store, locks, WAL, ...)."""

from __future__ import annotations

import pytest

from repro.db.conflict import ConflictDetector
from repro.db.locks import LockManager, LockMode
from repro.db.store import VersionedStore
from repro.db.transaction import Operation, Transaction
from repro.db.wal import ABORT, COMMIT, PREPARE, WriteAheadLog, in_doubt_of
from repro.errors import ConfigurationError, StorageError


class TestVersionedStore:
    def test_put_and_get(self):
        store = VersionedStore()
        store.apply("x", 1)
        assert store.get("x") == 1

    def test_missing_key_raises(self):
        with pytest.raises(StorageError):
            VersionedStore().get("missing")

    def test_get_or_default(self):
        store = VersionedStore()
        store.apply("x", 1)
        assert store.get_or_default("missing") is None
        assert store.get_or_default("x") == 1

    def test_versions_are_monotone(self):
        store = VersionedStore()
        v1 = store.apply("x", 1)
        v2 = store.apply("x", 2)
        assert v2 > v1
        assert store.get("x") == 2

    def test_apply_many_is_one_version(self):
        store = VersionedStore()
        version = store.apply_many((("a", 1), ("b", 2)), txn_id="t1")
        assert [rec.version for rec in store.versions("a")] == [version]
        assert [rec.version for rec in store.versions("b")] == [version]
        assert store.snapshot() == {"a": 1, "b": 2}

    def test_history_records_txn_ids(self):
        store = VersionedStore()
        store.apply("x", 1, txn_id="t1")
        store.apply("x", 2, txn_id="t2")
        assert [rec.txn_id for rec in store.versions("x")] == ["t1", "t2"]

    def test_len_and_keys(self):
        store = VersionedStore()
        store.apply("b", 1)
        store.apply("a", 1)
        assert len(store) == 2
        assert store.keys() == ["a", "b"]


class TestLockManager:
    def test_exclusive_conflicts_with_exclusive(self):
        locks = LockManager()
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)

    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        assert locks.try_acquire("t1", "x", LockMode.SHARED)
        assert locks.try_acquire("t2", "x", LockMode.SHARED)
        assert locks.holders("x") == {"t1", "t2"}

    def test_shared_then_exclusive_conflicts(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert not locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)

    def test_reentrant_upgrade_by_same_transaction(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("t2", "x", LockMode.SHARED)

    def test_release_frees_the_key(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.release("t1", "x")
        assert locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)
        assert locks.holders("x") == {"t2"}

    def test_release_all(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.try_acquire("t1", "y", LockMode.SHARED)
        locks.release_all("t1")
        assert locks.keys_held_by("t1") == set()
        assert locks.locked_keys() == []

    def test_try_acquire_all_is_atomic(self):
        locks = LockManager()
        locks.try_acquire("t1", "y", LockMode.EXCLUSIVE)
        ok = locks.try_acquire_all(
            "t2", {"x": LockMode.EXCLUSIVE, "y": LockMode.EXCLUSIVE}
        )
        assert not ok
        # the partial acquisition of x must have been rolled back
        assert locks.locked_keys() == ["y"]

    def test_release_of_unknown_key_is_a_noop(self):
        LockManager().release("t1", "nothing")

    def test_failed_acquire_all_keeps_preheld_locks(self):
        # regression: rollback used to release every key it touched,
        # including keys the transaction already held before the call
        locks = LockManager()
        assert locks.try_acquire("t1", "a", LockMode.EXCLUSIVE)
        locks.try_acquire("t2", "b", LockMode.EXCLUSIVE)
        ok = locks.try_acquire_all("t1", {"a": LockMode.EXCLUSIVE, "b": LockMode.SHARED})
        assert not ok
        # t1 must still hold a, exclusively
        assert locks.holders("a") == {"t1"}
        assert locks.keys_held_by("t1") == {"a"}
        assert not locks.try_acquire("t2", "a", LockMode.SHARED)

    def test_failed_acquire_all_reverts_shared_to_exclusive_upgrade(self):
        # regression: a rolled-back SHARED -> EXCLUSIVE upgrade stayed
        # EXCLUSIVE, blocking readers that the failed call never entitled
        # the transaction to block
        locks = LockManager()
        assert locks.try_acquire("t1", "a", LockMode.SHARED)
        locks.try_acquire("t2", "z", LockMode.EXCLUSIVE)
        ok = locks.try_acquire_all("t1", {"a": LockMode.EXCLUSIVE, "z": LockMode.SHARED})
        assert not ok
        # a is still held by t1, but back in SHARED mode: other readers join
        assert locks.holders("a") == {"t1"}
        assert locks.try_acquire("t3", "a", LockMode.SHARED)

    def test_failed_acquire_all_releases_only_new_keys(self):
        locks = LockManager()
        locks.try_acquire("t1", "a", LockMode.SHARED)
        locks.try_acquire("t2", "z", LockMode.EXCLUSIVE)
        ok = locks.try_acquire_all(
            "t1",
            {"a": LockMode.SHARED, "c": LockMode.EXCLUSIVE, "z": LockMode.EXCLUSIVE},
        )
        assert not ok
        # the freshly-taken c was rolled back, the pre-held a was not
        assert "c" not in locks.locked_keys()
        assert locks.keys_held_by("t1") == {"a"}
        assert locks.holders("z") == {"t2"}

    def test_successful_acquire_all_keeps_upgrade(self):
        locks = LockManager()
        locks.try_acquire("t1", "a", LockMode.SHARED)
        assert locks.try_acquire_all("t1", {"a": LockMode.EXCLUSIVE, "b": LockMode.SHARED})
        # the upgrade sticks on success: readers are now locked out
        assert not locks.try_acquire("t2", "a", LockMode.SHARED)
        assert locks.keys_held_by("t1") == {"a", "b"}


class TestWriteAheadLog:
    def test_append_and_outcome(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        assert wal.outcome_of("t1") is None
        wal.append(COMMIT, "t1", writes={"x": 1})
        assert wal.outcome_of("t1") == COMMIT

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            WriteAheadLog().append("FLUSH", "t1")

    def test_in_doubt_transactions(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(PREPARE, "t2", writes={"y": 1})
        wal.append(ABORT, "t2")
        assert wal.in_doubt() == ["t1"]
        # the same scan over a copied record list, as a report holds it
        assert in_doubt_of(wal.records()) == ["t1"]
        wal.append(COMMIT, "t1")
        wal.tear_final_record()
        assert in_doubt_of(wal.records()) == wal.in_doubt() == ["t1"]

    def test_replay_rebuilds_only_committed_state(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(COMMIT, "t1", writes={"x": 1})
        wal.append(PREPARE, "t2", writes={"x": 99, "y": 2})
        wal.append(ABORT, "t2")
        wal.append(PREPARE, "t3", writes={"z": 3})
        store = wal.replay()
        assert store.snapshot() == {"x": 1}

    def test_replay_uses_prepare_writes_when_commit_is_bare(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 7})
        wal.append(COMMIT, "t1")
        assert wal.replay().snapshot() == {"x": 7}

    def test_lsn_monotone_and_len(self):
        wal = WriteAheadLog()
        r1 = wal.append(PREPARE, "t1")
        r2 = wal.append(ABORT, "t1")
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert len(wal) == 2
        assert [r.kind for r in wal.records_for("t1")] == [PREPARE, ABORT]

    # -- the edge cases the durability invariant leans on ----------------- #
    def test_replay_of_an_empty_log_is_an_empty_store(self):
        store = WriteAheadLog().replay()
        assert store.snapshot() == {}
        assert len(store) == 0
        assert WriteAheadLog().tear_final_record() is None

    def test_torn_final_commit_is_invisible_to_recovery(self):
        # a crash mid-append leaves a torn COMMIT tail: recovery must treat
        # the transaction as in doubt, not as committed
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(COMMIT, "t1", writes={"x": 1})
        wal.append(PREPARE, "t2", writes={"y": 2})
        torn = wal.tear_final_record()
        wal.append(COMMIT, "t2", writes={"y": 2})
        wal.tear_final_record()
        assert torn.torn
        assert wal.outcome_of("t1") == COMMIT
        assert wal.outcome_of("t2") is None
        assert wal.in_doubt() == []  # t2's PREPARE is torn too: never happened
        assert wal.replay().snapshot() == {"x": 1}

    def test_torn_prepare_leaves_an_intact_earlier_prepare_in_doubt(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(PREPARE, "t2", writes={"y": 2})
        wal.tear_final_record()
        assert wal.in_doubt() == ["t1"]

    def test_replay_twice_is_idempotent_at_the_snapshot_level(self):
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(COMMIT, "t1", writes={"x": 1})
        wal.append(PREPARE, "t2", writes={"x": 5, "y": 2})
        wal.append(COMMIT, "t2", writes={"x": 5, "y": 2})
        store = wal.replay()
        once = store.snapshot()
        again = wal.replay(store).snapshot()
        assert once == again == {"x": 5, "y": 2}
        # and a fresh replay agrees with the incremental one
        assert wal.replay().snapshot() == once

    def test_torn_abort_means_locks_stay_with_an_in_doubt_transaction(self):
        # cross-layer: outcome_of drives the lock-safety invariant, so a torn
        # ABORT must flip the transaction back to in-doubt
        wal = WriteAheadLog()
        wal.append(PREPARE, "t1", writes={"x": 1})
        wal.append(ABORT, "t1")
        assert wal.outcome_of("t1") == ABORT
        wal.tear_final_record()
        assert wal.outcome_of("t1") is None
        assert wal.in_doubt() == ["t1"]


class TestTransactions:
    def test_participants_and_sets(self):
        txn = Transaction.of(
            "t1",
            [
                Operation.read(2, "a"),
                Operation.write(1, "b", 10),
                Operation.write(2, "c", 20),
            ],
        )
        assert txn.participants() == [1, 2]
        assert txn.read_set(2) == ["a"]
        assert txn.write_set() == {"b": 10, "c": 20}
        assert txn.write_set(1) == {"b": 10}

    def test_single_partition_transaction(self):
        txn = Transaction.of("t1", [Operation.write(3, "k", 1)])
        assert txn.participants() == [3]

    def test_empty_transaction_rejected(self):
        with pytest.raises(ConfigurationError):
            Transaction.of("t1", [])

    def test_invalid_operations_rejected(self):
        with pytest.raises(ConfigurationError):
            Operation(kind="delete", partition=1, key="x")
        with pytest.raises(ConfigurationError):
            Operation(kind="write", partition=1, key="x")


class TestConflictDetector:
    def test_no_conflict_for_disjoint_footprints(self):
        detector = ConflictDetector()
        detector.begin("t1", reads={"a"}, writes={"b"})
        detector.begin("t2", reads={"c"}, writes={"d"})
        assert detector.vote("t1") == 1
        assert detector.vote("t2") == 1

    def test_write_write_conflict(self):
        detector = ConflictDetector()
        detector.begin("t1", reads=set(), writes={"x"})
        detector.begin("t2", reads=set(), writes={"x"})
        assert detector.conflicts_of("t1") == ["t2"]
        assert detector.vote("t1") == 0

    def test_read_write_conflict_both_directions(self):
        detector = ConflictDetector()
        detector.begin("t1", reads={"x"}, writes=set())
        detector.begin("t2", reads=set(), writes={"x"})
        assert detector.vote("t1") == 0
        assert detector.vote("t2") == 0

    def test_read_read_is_not_a_conflict(self):
        detector = ConflictDetector()
        detector.begin("t1", reads={"x"}, writes=set())
        detector.begin("t2", reads={"x"}, writes=set())
        assert detector.vote("t1") == 1

    def test_begin_again_replaces_the_footprint(self):
        detector = ConflictDetector()
        detector.begin("t1", reads=set(), writes={"x"})
        detector.begin("t2", reads=set(), writes={"x"})
        assert detector.vote("t2") == 0
        detector.begin("t1", reads=set(), writes={"y"})
        assert detector.vote("t2") == 1

    def test_unknown_transaction_has_no_conflicts(self):
        assert ConflictDetector().conflicts_of("ghost") == []
