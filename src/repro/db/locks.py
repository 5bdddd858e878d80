"""No-wait lock manager.

Each partition guards its keys with shared/exclusive locks.  The policy is
*no-wait*: a conflicting request is rejected immediately, which in the commit
layer translates into a "no" vote for the requesting transaction — exactly the
behaviour the paper's introduction describes for Helios-style conflict
tracking ("each datacenter votes to abort every transaction that causes a
conflict").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Set


class LockMode(enum.Enum):
    """Lock modes: shared (reads) and exclusive (writes)."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _KeyLock:
    mode: LockMode = LockMode.SHARED
    holders: Set[str] = field(default_factory=set)


class LockManager:
    """Per-partition lock table with a no-wait conflict policy."""

    def __init__(self) -> None:
        self._locks: Dict[str, _KeyLock] = {}
        self._held_by_txn: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------ #
    # acquisition
    # ------------------------------------------------------------------ #
    def try_acquire(self, txn_id: str, key: str, mode: LockMode) -> bool:
        """Try to lock ``key`` for ``txn_id``; return False on conflict."""
        lock = self._locks.get(key)
        if lock is None or not lock.holders:
            self._locks[key] = _KeyLock(mode=mode, holders={txn_id})
            self._held_by_txn.setdefault(txn_id, set()).add(key)
            return True
        if lock.holders == {txn_id}:
            # lock upgrade / re-entrant acquisition by the same transaction
            if mode == LockMode.EXCLUSIVE:
                lock.mode = LockMode.EXCLUSIVE
            return True
        if mode == LockMode.SHARED and lock.mode == LockMode.SHARED:
            lock.holders.add(txn_id)
            self._held_by_txn.setdefault(txn_id, set()).add(key)
            return True
        return False

    def try_acquire_all(self, txn_id: str, keys_by_mode: Dict[str, LockMode]) -> bool:
        """Acquire a set of locks atomically; restore the table exactly on failure.

        Rollback must distinguish what this call *changed* from what the
        transaction already owned: only newly-taken keys are released, and a
        SHARED lock that this call upgraded to EXCLUSIVE is downgraded back.
        Keys the transaction held before the call stay held, in their
        original mode.
        """
        newly_acquired: List[str] = []
        upgraded: List[str] = []
        for key, mode in sorted(keys_by_mode.items()):
            lock = self._locks.get(key)
            pre_held = lock is not None and txn_id in lock.holders
            pre_mode = lock.mode if pre_held else None
            if not self.try_acquire(txn_id, key, mode):
                for taken in newly_acquired:
                    self.release(txn_id, taken)
                for up in upgraded:
                    self._locks[up].mode = LockMode.SHARED
                return False
            if not pre_held:
                newly_acquired.append(key)
            elif pre_mode == LockMode.SHARED and self._locks[key].mode == LockMode.EXCLUSIVE:
                upgraded.append(key)
        return True

    # ------------------------------------------------------------------ #
    # release and inspection
    # ------------------------------------------------------------------ #
    def release(self, txn_id: str, key: str) -> None:
        lock = self._locks.get(key)
        if lock is None:
            return
        lock.holders.discard(txn_id)
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.discard(key)
        if not lock.holders:
            del self._locks[key]

    def release_all(self, txn_id: str) -> None:
        for key in sorted(self._held_by_txn.get(txn_id, set())):
            self.release(txn_id, key)
        self._held_by_txn.pop(txn_id, None)

    def holders(self, key: str) -> Set[str]:
        lock = self._locks.get(key)
        return set(lock.holders) if lock else set()

    def mode_of(self, key: str) -> "LockMode | None":
        """The mode ``key`` is currently held in, or ``None`` when free.

        Exposed for the lock-safety invariant (:mod:`repro.db.invariants`):
        a key with more than one holder must be in SHARED mode.
        """
        lock = self._locks.get(key)
        return lock.mode if lock and lock.holders else None

    def keys_held_by(self, txn_id: str) -> Set[str]:
        return set(self._held_by_txn.get(txn_id, set()))

    def locked_keys(self) -> List[str]:
        return sorted(k for k, lock in self._locks.items() if lock.holders)
