"""Versioned in-memory key-value storage for one partition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import StorageError


@dataclass(slots=True)
class VersionRecord:
    """One committed version of a key."""

    version: int
    value: object
    txn_id: Optional[str] = None


@dataclass
class VersionedStore:
    """A small multi-version key-value store.

    Every committed write appends a new version, tagged with its
    transaction; reads return the latest version.  A key written once holds
    its lone :class:`VersionRecord` itself and gets a list at its second
    version (most keys of a large key space are written once); every read
    goes through :meth:`versions`.
    """

    _data: Dict[str, Union[VersionRecord, List[VersionRecord]]] = field(
        default_factory=dict
    )
    _version_counter: int = 0

    # -- writes ----------------------------------------------------------- #
    def _append(self, key: str, record: VersionRecord) -> None:
        held = self._data.get(key)
        if held is None:
            self._data[key] = record
        elif type(held) is VersionRecord:
            self._data[key] = [held, record]
        else:
            held.append(record)

    def apply(self, key: str, value: object, txn_id: Optional[str] = None) -> int:
        """Commit a new version of ``key`` and return its version number."""
        self._version_counter += 1
        record = VersionRecord(version=self._version_counter, value=value, txn_id=txn_id)
        self._append(key, record)
        return record.version

    def apply_many(self, writes: Dict[str, object], txn_id: Optional[str] = None) -> int:
        """Commit a batch of writes atomically (single version for the batch)."""
        self._version_counter += 1
        version = self._version_counter
        for key, value in writes.items():
            self._append(key, VersionRecord(version=version, value=value, txn_id=txn_id))
        return version

    # -- reads ------------------------------------------------------------ #
    def versions(self, key: str) -> Sequence[VersionRecord]:
        """Every committed version of ``key``, oldest first; empty if none.

        A key with several versions returns the store's own list, not a
        copy: read it, never mutate it.
        """
        held = self._data.get(key)
        if held is None:
            return ()
        if type(held) is VersionRecord:
            return (held,)
        return held

    def get(self, key: str) -> object:
        """Return the latest value of ``key``."""
        versions = self.versions(key)
        if not versions:
            raise StorageError(f"key {key!r} does not exist")
        return versions[-1].value

    def get_or_default(self, key: str) -> object:
        """The latest value of ``key``, or None if it was never written."""
        try:
            return self.get(key)
        except StorageError:
            return None

    def keys(self) -> List[str]:
        return sorted(self._data)

    def snapshot(self) -> Dict[str, object]:
        """Latest value of every key (used by tests and examples)."""
        return {key: self.versions(key)[-1].value for key in self._data}

    def transactions_applied(self) -> List[str]:
        """Sorted distinct transaction ids with at least one committed version.

        The atomicity invariant (:mod:`repro.db.invariants`) cross-checks
        this against the WAL: a store must never contain versions of a
        transaction whose logged outcome is ABORT.
        """
        return sorted(
            {
                record.txn_id
                for key in self._data
                for record in self.versions(key)
                if record.txn_id is not None
            }
        )

    def __len__(self) -> int:
        return len(self._data)
