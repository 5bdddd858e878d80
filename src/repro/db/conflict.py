"""Helios-style conflict detection across datacenters.

The paper's introduction uses Helios as the motivating system: each datacenter
tracks the read/write sets of in-flight transactions and votes to abort any
transaction involved in a serializability conflict it observes locally.  The
:class:`ConflictDetector` implements that local check: two in-flight
transactions conflict when one writes a key the other reads or writes.

This is deliberately simpler than a full serialization-graph test — it is the
per-datacenter vote generator that feeds the commit protocols, which is the
part the paper is about.

The cluster does not use it: a partition votes from its no-wait lock table
(:mod:`repro.db.locks`), which rejects a conflicting request when it is made.
It is kept in the package, exported as ``repro.db.ConflictDetector``, because
it is the vote rule of the paper's motivating system and the one a user
reproducing that scenario reaches for: ``examples/helios_conflict_commit.py``
feeds its votes to a commit round, and ``tests/test_db_components.py`` pins
the rule (write/write and read/write conflict, read/read does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


@dataclass
class _TxnFootprint:
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)


class ConflictDetector:
    """Tracks in-flight transaction footprints and reports conflicts."""

    def __init__(self) -> None:
        self._inflight: Dict[str, _TxnFootprint] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def begin(self, txn_id: str, reads: Set[str], writes: Set[str]) -> None:
        """Register an in-flight transaction's local footprint."""
        self._inflight[txn_id] = _TxnFootprint(reads=set(reads), writes=set(writes))

    # ------------------------------------------------------------------ #
    # the local vote
    # ------------------------------------------------------------------ #
    def conflicts_of(self, txn_id: str) -> List[str]:
        """Other in-flight transactions that conflict with ``txn_id``."""
        me = self._inflight.get(txn_id)
        if me is None:
            return []
        conflicting = []
        for other_id, other in self._inflight.items():
            if other_id == txn_id:
                continue
            if (
                me.writes & (other.reads | other.writes)
                or other.writes & me.reads
            ):
                conflicting.append(other_id)
        return sorted(conflicting)

    def vote(self, txn_id: str) -> int:
        """The Helios rule: vote 1 iff no local conflict involves the transaction."""
        return 0 if self.conflicts_of(txn_id) else 1
