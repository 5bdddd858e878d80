"""Write-ahead log for one partition.

The log records the lifecycle of every transaction the partition participates
in (``PREPARE`` with the buffered writes, the vote and the commit-round start,
then ``COMMIT`` or ``ABORT``).  The store is only mutated when a ``COMMIT``
record is appended, so replaying the log after a crash reconstructs exactly
the committed state — the replay tests in ``tests/test_db_components.py``
exercise this.

A write set is logged as a tuple of ``(key, value)`` pairs: a ``PREPARE``
converts the mapping it is given once, its ``COMMIT`` holds that same tuple
and an ``ABORT`` holds ``()``.  A transaction's records are linked newest to
oldest through :attr:`WalRecord.prev` (ARIES' PrevLSN), so the log indexes
only each transaction's latest record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.db.store import VersionedStore
from repro.errors import StorageError

PREPARE = "PREPARE"
COMMIT = "COMMIT"
ABORT = "ABORT"

#: a logged write set: ``(key, value)`` pairs, in the order they were given
Writes = Tuple[Tuple[str, object], ...]


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
    #: the write set as ``(key, value)`` pairs; a partition's COMMIT holds
    #: its PREPARE's tuple, an ABORT ``()``
    writes: Writes = ()
    timestamp: float = 0.0
    torn: bool = False
    #: participant pids logged with PREPARE, so a recovering partition knows
    #: which peers to ask when a transaction is in doubt
    participants: Tuple[int, ...] = ()
    #: the vote derived at PREPARE (1 locks granted, 0 conflict)
    vote: Optional[int] = None
    #: the agreed commit-round start logged with PREPARE
    round_start: Optional[float] = None
    #: the same transaction's previous record (PrevLSN), None for its first;
    #: a link, not part of the record's value
    prev: Optional["WalRecord"] = field(default=None, compare=False, repr=False)

    def chain(self) -> Iterator["WalRecord"]:
        """This record and its transaction's earlier ones, newest first."""
        record: Optional[WalRecord] = self
        while record is not None:
            yield record
            record = record.prev


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

    The record list is the log.  ``_latest`` indexes each transaction's
    latest record, one of the log's own objects, and the records link back
    through ``prev``, so the per-transaction questions the commit path asks
    on every EXEC (``outcome_of``, ``prepare_record_of``) walk that
    transaction's two or three records instead of the whole log.  ``torn``
    is consulted on the record at read time, so tearing a record needs no
    index maintenance.
    """

    def __init__(self) -> None:
        self._records: List[WalRecord] = []
        self._latest: Dict[str, WalRecord] = {}

    def append(
        self,
        kind: str,
        txn_id: str,
        writes: Union[Mapping[str, object], Writes] = (),
        timestamp: float = 0.0,
        participants: Tuple[int, ...] = (),
        vote: Optional[int] = None,
        round_start: Optional[float] = None,
    ) -> WalRecord:
        """Append one record and return it.

        A mapping of writes is logged as a tuple of its items; a tuple of
        pairs is kept as given, not copied, so a partition's COMMIT holds
        its PREPARE's tuple.
        """
        if kind not in (PREPARE, COMMIT, ABORT):
            raise StorageError(f"unknown WAL record kind {kind!r}")
        latest = self._latest
        record = WalRecord(
            lsn=len(self._records) + 1,
            kind=kind,
            txn_id=txn_id,
            writes=writes if type(writes) is tuple else tuple(writes.items()),
            timestamp=timestamp,
            participants=tuple(participants),
            vote=vote,
            round_start=round_start,
            prev=latest.get(txn_id),
        )
        self._records.append(record)
        latest[txn_id] = record
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
        """Every record of ``txn_id``, torn ones included, in log order."""
        latest = self._latest.get(txn_id)
        records = [] if latest is None else list(latest.chain())
        records.reverse()
        return records

    def outcome_of(self, txn_id: str) -> Optional[str]:
        """COMMIT / ABORT if decided, None if only prepared (in doubt)."""
        record = self._latest.get(txn_id)
        while record is not None:
            if not record.torn and record.kind != PREPARE:
                return record.kind
            record = record.prev
        return None

    def prepare_record_of(self, txn_id: str) -> Optional[WalRecord]:
        """The latest intact PREPARE record of ``txn_id``, if any.

        Recovery reads the buffered writes and the participant set from here
        when re-installing locks and issuing termination queries.
        """
        record = self._latest.get(txn_id)
        while record is not None:
            if not record.torn and record.kind == PREPARE:
                return record
            record = record.prev
        return None

    def in_doubt(self) -> List[str]:
        """Transactions prepared on this partition without a recorded outcome
        (:func:`in_doubt_of` over this log)."""
        return in_doubt_of(self._records)

    def committed_writes(self) -> Iterator[Tuple[str, Writes]]:
        """``(txn id, writes)`` of every intact COMMIT record, in log order.

        A COMMIT logged without writes takes those of the latest intact
        PREPARE before it.  The one pass over the log that :meth:`replay`
        and the durability invariant
        (:func:`repro.db.invariants.check_durability`) both fold.
        """
        for record in self._records:
            if record.torn or record.kind != COMMIT:
                continue
            writes = record.writes
            if not writes:
                for earlier in record.chain():
                    if not earlier.torn and earlier.kind == PREPARE:
                        writes = earlier.writes
                        break
            yield record.txn_id, writes

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
