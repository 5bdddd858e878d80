"""The WAL's per-transaction index against a linear-scan reference.

``WriteAheadLog`` answers ``outcome_of`` / ``prepare_record_of`` /
``records_for`` by walking a transaction's records back from its latest one
(each links to the one before through ``prev``) instead of scanning the
log; ``in_doubt`` is one pass.  The reference below is the scan the log used
to do, kept here as the oracle: every accessor must return the same thing for
every log a sequence of appends and torn tails can build — repeated PREPAREs,
an outcome logged before its PREPARE, torn COMMIT/ABORT/PREPARE tails and
tear-then-append included.

That the commit path never walks the whole log is counted, not timed, in
``tests/test_recovery.py`` (next to the partition stub it needs).
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.wal import ABORT, COMMIT, PREPARE, WalRecord, WriteAheadLog


# --------------------------------------------------------------------------- #
# the linear-scan reference model
# --------------------------------------------------------------------------- #
class ScanModel:
    """What each accessor means, by scanning a plain list of records."""

    def __init__(self, records):
        self.records = records
        self.intact = [r for r in records if not r.torn]

    def outcome_of(self, txn):
        kinds = [r.kind for r in self.intact if r.txn_id == txn and r.kind != PREPARE]
        return kinds[-1] if kinds else None

    def prepare_record_of(self, txn):
        prepares = [r for r in self.intact if r.txn_id == txn and r.kind == PREPARE]
        return prepares[-1] if prepares else None

    def records_for(self, txn):
        return [r for r in self.records if r.txn_id == txn]

    def in_doubt(self):
        return [
            r.txn_id
            for r in self.intact
            if r.kind == PREPARE and self.outcome_of(r.txn_id) is None
        ]

    def snapshot(self):
        """The committed state, folding each write set as a dict."""
        snapshot, prepared = {}, {}
        for r in self.intact:
            if r.kind == PREPARE:
                prepared[r.txn_id] = dict(r.writes)
            elif r.kind == COMMIT:
                snapshot.update(dict(r.writes) or prepared.get(r.txn_id, {}))
        return snapshot


TXNS = ["t1", "t2", "t3", "t4"]
#: small alphabets on purpose: collisions are the interesting logs
ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from([PREPARE, COMMIT, ABORT]),
            st.sampled_from(TXNS),
            st.dictionaries(st.sampled_from("xyz"), st.integers(0, 3), max_size=2),
        ),
        st.just(("TEAR",)),
    ),
    max_size=24,
)


def build(op_list):
    wal = WriteAheadLog()
    for op in op_list:
        if op[0] == "TEAR":
            wal.tear_final_record()
        else:
            kind, txn, writes = op
            if kind == ABORT:
                assert wal.append(kind, txn).writes == ()
            else:
                # a mapping is logged as its (key, value) pairs
                assert dict(wal.append(kind, txn, writes=writes).writes) == writes
    return wal


def assert_agrees(wal):
    model = ScanModel(wal.records())
    for txn in TXNS + ["never-logged"]:
        assert wal.outcome_of(txn) == model.outcome_of(txn)
        assert wal.prepare_record_of(txn) is model.prepare_record_of(txn)
        found, expected = wal.records_for(txn), model.records_for(txn)
        assert len(found) == len(expected)
        assert all(a is b for a, b in zip(found, expected))
    assert wal.in_doubt() == model.in_doubt()
    assert [r.lsn for r in wal.records()] == list(range(1, len(wal) + 1))
    assert wal.replay().snapshot() == model.snapshot()


class TestIndexAgreesWithScan:
    @given(ops)
    @settings(max_examples=300, deadline=None)
    def test_every_accessor_on_generated_logs(self, op_list):
        assert_agrees(build(op_list))

    def test_the_interesting_logs_by_hand(self):
        for op_list in (
            [],
            [("TEAR",)],
            # repeated PREPAREs: in doubt once per intact PREPARE record
            [(PREPARE, "t1", {"x": 1}), (PREPARE, "t1", {"x": 2})],
            # outcome logged before its PREPARE still decides the transaction
            [(ABORT, "t1", {}), (PREPARE, "t1", {"x": 1})],
            # torn COMMIT / ABORT / PREPARE tails
            [(PREPARE, "t1", {"x": 1}), (COMMIT, "t1", {"x": 1}), ("TEAR",)],
            [(PREPARE, "t1", {"x": 1}), (ABORT, "t1", {}), ("TEAR",)],
            [(PREPARE, "t1", {"x": 1}), (PREPARE, "t1", {"x": 2}), ("TEAR",)],
            # tear-then-append: the torn record ends up mid-log, and t1's
            # first *intact* record comes after t2's
            [(PREPARE, "t1", {"x": 1}), ("TEAR",), (PREPARE, "t2", {}), (COMMIT, "t1", {"y": 2})],
        ):
            assert_agrees(build(op_list))

    def test_a_flag_flipped_through_records_is_seen_by_the_index(self):
        """The index holds the log's own record objects, not copies."""
        wal = build([(PREPARE, "t1", {"x": 1}), (COMMIT, "t1", {"x": 1}), (PREPARE, "t2", {})])
        assert wal.outcome_of("t1") == COMMIT
        wal.records()[1].torn = True  # not the tail: tear_final_record can't do this
        assert wal.outcome_of("t1") is None
        assert wal.in_doubt() == ["t1", "t2"]
        assert_agrees(wal)
        wal.records()[1].torn = False
        assert wal.outcome_of("t1") == COMMIT
        assert_agrees(wal)


class TestSlottedRecords:
    def test_records_have_no_instance_dict(self):
        record = WriteAheadLog().append(PREPARE, "t1", writes={"x": 1})
        assert not hasattr(record, "__dict__")

    def test_records_and_logs_survive_pickle_and_deepcopy(self):
        wal = build([(PREPARE, "t1", {"x": 1}), (COMMIT, "t1", {"x": 1}), ("TEAR",)])
        for clone in (pickle.loads(pickle.dumps(wal)), copy.deepcopy(wal)):
            assert clone.records() == wal.records()
            assert clone.records()[-1].torn
            # the clone's index points at the clone's records, not the original's
            assert clone.records_for("t1")[0] is clone.records()[0]
            assert_agrees(clone)
        record = wal.records()[0]
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
        assert isinstance(record, WalRecord)
