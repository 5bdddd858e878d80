"""Write-ahead log for one partition.

The log records the lifecycle of every transaction the partition participates
in (``PREPARE`` with the buffered writes, the vote and the commit-round start,
then ``COMMIT`` or ``ABORT``).  The store is only mutated when a ``COMMIT``
record is appended, so replaying the log after a crash reconstructs exactly
the committed state — the replay tests in ``tests/test_db_components.py``
exercise this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.db.store import VersionedStore
from repro.errors import StorageError

PREPARE = "PREPARE"
COMMIT = "COMMIT"
ABORT = "ABORT"


@dataclass(slots=True)
class WalRecord:
    """One append-only log record.

    ``torn`` marks a record whose append was interrupted by a crash (a torn
    final write).  Torn records are kept in the log for inspection but are
    invisible to recovery: :meth:`WriteAheadLog.replay`,
    :meth:`~WriteAheadLog.outcome_of` and :meth:`~WriteAheadLog.in_doubt`
    all skip them, exactly as a checksum-failing tail record would be
    discarded by a real recovery pass.
    """

    lsn: int
    kind: str
    txn_id: str
    writes: Dict[str, object] = field(default_factory=dict)
    timestamp: float = 0.0
    torn: bool = False
    #: participant pids logged with PREPARE, so a recovering partition knows
    #: which peers to ask when a transaction is in doubt
    participants: Tuple[int, ...] = ()
    #: the vote derived at PREPARE (1 locks granted, 0 conflict)
    vote: Optional[int] = None
    #: the agreed commit-round start logged with PREPARE
    round_start: Optional[float] = None


def in_doubt_of(records: Iterable[WalRecord]) -> List[str]:
    """Transactions a log prepared without a recorded outcome.

    One entry per intact PREPARE record, in log order; torn records are
    skipped.  Used on a live log and on a report's copied records alike.
    """
    prepared: List[str] = []
    decided = set()
    for record in records:
        if record.torn:
            continue
        if record.kind == PREPARE:
            prepared.append(record.txn_id)
        else:
            decided.add(record.txn_id)
    return [txn for txn in prepared if txn not in decided]


class WriteAheadLog:
    """Append-only per-partition log.

    The record list is the log.  ``_by_txn`` indexes the *same* record
    objects by transaction id, in log order, so the per-transaction questions
    the commit path asks on every EXEC (``outcome_of``, ``prepare_record_of``)
    read that transaction's two or three records instead of the whole log.
    ``torn`` is consulted on the record at read time, so tearing a record
    needs no index maintenance.
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        self._by_txn: Dict[str, Tuple[WalRecord, ...]] = {}

    def append(
        self,
        kind: str,
        txn_id: str,
        writes: Optional[Dict[str, object]] = None,
        timestamp: float = 0.0,
        participants: Tuple[int, ...] = (),
        vote: Optional[int] = None,
        round_start: Optional[float] = None,
    ) -> WalRecord:
        """Append one record and return it.

        The record keeps the ``writes`` mapping it is given, not a copy: a
        partition logs its EXEC's write set at PREPARE and the same mapping
        again at COMMIT.  A logged mapping is never mutated, by the log or
        by its caller.
        """
        if kind not in (PREPARE, COMMIT, ABORT):
            raise StorageError(f"unknown WAL record kind {kind!r}")
        record = WalRecord(
            lsn=len(self._records) + 1,
            kind=kind,
            txn_id=txn_id,
            writes={} if writes is None else writes,
            timestamp=timestamp,
            participants=tuple(participants),
            vote=vote,
            round_start=round_start,
        )
        self._records.append(record)
        # a transaction has two or three records: a tuple, grown by copying
        self._by_txn[txn_id] = self._by_txn.get(txn_id, ()) + (record,)
        return record

    def tear_final_record(self) -> Optional[WalRecord]:
        """Mark the final record torn, simulating a crash mid-append.

        Recovery (``replay`` / ``outcome_of`` / ``in_doubt``) treats a torn
        record as if it had never been written; returns the torn record, or
        ``None`` on an empty log.
        """
        if not self._records:
            return None
        self._records[-1].torn = True
        return self._records[-1]

    def records(self) -> List[WalRecord]:
        return list(self._records)

    def records_for(self, txn_id: str) -> List[WalRecord]:
        return list(self._by_txn.get(txn_id, ()))

    def outcome_of(self, txn_id: str) -> Optional[str]:
        """COMMIT / ABORT if decided, None if only prepared (in doubt)."""
        for record in reversed(self._by_txn.get(txn_id, ())):
            if not record.torn and record.kind in (COMMIT, ABORT):
                return record.kind
        return None

    def prepare_record_of(self, txn_id: str) -> Optional[WalRecord]:
        """The latest intact PREPARE record of ``txn_id``, if any.

        Recovery reads the buffered writes and the participant set from here
        when re-installing locks and issuing termination queries.
        """
        for record in reversed(self._by_txn.get(txn_id, ())):
            if not record.torn and record.kind == PREPARE:
                return record
        return None

    def in_doubt(self) -> List[str]:
        """Transactions prepared on this partition without a recorded outcome
        (:func:`in_doubt_of` over this log)."""
        return in_doubt_of(self._records)

    def committed_writes(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """``(txn id, writes)`` of every intact COMMIT record, in log order.

        A COMMIT logged without writes takes its PREPARE's.  The one pass
        over the log that :meth:`replay` and the durability invariant
        (:func:`repro.db.invariants.check_durability`) both fold.
        """
        prepared: Dict[str, Dict[str, object]] = {}
        for record in self._records:
            if record.torn:
                continue
            if record.kind == PREPARE:
                prepared[record.txn_id] = record.writes
            elif record.kind == COMMIT:
                yield record.txn_id, record.writes or prepared.get(record.txn_id, {})

    def replay(self, store: Optional[VersionedStore] = None) -> VersionedStore:
        """Rebuild the committed store state from the log.

        Replaying an empty log returns an empty store; torn records are
        skipped; replaying the same log twice into the same store is
        idempotent at the snapshot level (committed values are re-applied,
        never changed).
        """
        store = store if store is not None else VersionedStore()
        for txn_id, writes in self.committed_writes():
            if writes:
                store.apply_many(writes, txn_id=txn_id)
        return store

    def __len__(self) -> int:
        return len(self._records)
