"""Executable cross-layer invariants of the transaction cluster.

The protocol layer's properties (agreement / validity / termination, checked
by :mod:`repro.core.properties`) quantify over *decisions*; this module states
what those decisions must mean for *data* once a commit protocol is embedded
in the :mod:`repro.db` cluster.  Three invariants, each checked against the
live partition state at the end of a cluster run:

* **atomicity** — a distributed transaction has one outcome.  No partition's
  WAL may record ``COMMIT`` for a transaction another partition's WAL records
  ``ABORT`` for, and no store may hold versions of a transaction its own WAL
  did not commit (so an applied-but-aborted write is caught even if the WAL
  records happen to agree).
* **durability** — the WAL is the store.  Replaying a partition's log
  (:meth:`~repro.db.wal.WriteAheadLog.replay`, which skips torn tail records)
  must reconstruct exactly the partition's committed snapshot — including for
  a partition frozen mid-run by a crash, whose log replay is precisely the
  recovery a restarted server would perform.
* **lock safety** — the no-wait lock table stays coherent: a key with more
  than one holder is held SHARED, and a transaction with a decided outcome
  (``COMMIT`` *or* ``ABORT``) holds no locks — decided transactions release
  everything, aborts included.

How the battery is driven
-------------------------
:func:`repro.db.cluster.run_cluster` calls :func:`check_cluster` after every
run and attaches the :class:`InvariantReport` to the
:class:`~repro.db.cluster.ClusterReport`; the sweep engine maps the report
onto the trial's property flags (atomicity -> ``agreement``, durability and
lock safety -> ``validity``), which is what lets
:func:`repro.explore.explore` hunt transaction anomalies with the same
search/shrink machinery it uses for bare protocols::

    from repro.explore import explore
    report = explore(
        "2PC", n=4, f=1, budget=24,
        workload=("small", "uniform", {"transactions": 8}),  # or just "uniform"
        preset="cluster-anomaly",                            # crash-point enumeration
    )

The ``cluster-anomaly`` preset enumerates crash points over every partition
*and* the client coordinator (pid ``n + 1``): each explored schedule injects
one crash at one protocol phase boundary, every run is replayable from its
``(strategy, seed, decisions)`` triple, and a violating schedule is shrunk to
a 1-minimal counterexample.  Correct protocols pass the battery clean under
every admissible schedule; a protocol that loses atomicity under a crash
(see ``tests/broken_protocols.py``) is caught and minimised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Set, Tuple

from repro.db.locks import LockMode
from repro.db.wal import ABORT as WAL_ABORT
from repro.db.wal import COMMIT as WAL_COMMIT

#: the invariant names, in reporting order
INVARIANTS = ("atomicity", "durability", "lock-safety")


@dataclass
class InvariantReport:
    """Outcome of one cluster-invariant battery (plain data, picklable)."""

    atomicity: bool = True
    durability: bool = True
    lock_safety: bool = True
    #: human-readable ``"invariant: detail"`` strings, one per violation
    violations: List[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.atomicity and self.durability and self.lock_safety

    def broken(self) -> Tuple[str, ...]:
        """Names of the violated invariants, in reporting order."""
        flags = {
            "atomicity": self.atomicity,
            "durability": self.durability,
            "lock-safety": self.lock_safety,
        }
        return tuple(name for name in INVARIANTS if not flags[name])

    def describe(self) -> str:
        if self.holds:
            return "all cluster invariants hold"
        return "\n".join(self.violations)


def _decided(server: "object") -> Iterator[Tuple[str, str]]:
    """``(txn id, outcome)`` of each transaction the partition's log decided.

    The outcome is :meth:`~repro.db.wal.WriteAheadLog.outcome_of`'s (torn
    records skipped, the last intact decision wins), and the transactions
    come in the order of each one's first intact record.  Nothing is
    collected: a record is a transaction's first intact one when every
    record its ``prev`` chain reaches is torn.
    """
    wal = server.wal
    for record in wal.records():
        if record.torn:
            continue
        earlier = record.prev
        while earlier is not None and earlier.torn:
            earlier = earlier.prev
        if earlier is not None:
            continue
        outcome = wal.outcome_of(record.txn_id)
        if outcome is not None:
            yield record.txn_id, outcome


def check_atomicity(partitions: Dict[int, "object"]) -> List[str]:
    """Conflicting transaction outcomes across (or within) partitions.

    Two checks per transaction: no ``COMMIT``/``ABORT`` split across the
    participant WALs, and no store holding versions of a transaction its own
    WAL did not record as committed.
    """
    violations: List[str] = []
    # txn id -> the outcome its first deciding partition (in pid order) logged
    first: Dict[str, str] = {}
    split: Set[str] = set()
    for pid in sorted(partitions):
        server = partitions[pid]
        for txn_id in server.store.transactions_applied():
            if server.wal.outcome_of(txn_id) != WAL_COMMIT:
                violations.append(
                    f"atomicity: partition {pid} applied writes of {txn_id!r} "
                    f"without a COMMIT record in its WAL"
                )
        for txn_id, outcome in _decided(server):
            if first.setdefault(txn_id, outcome) != outcome:
                split.add(txn_id)
    # pid lists only for the transactions whose outcome is split
    for txn_id in sorted(split):
        by_outcome: Dict[str, List[int]] = {WAL_COMMIT: [], WAL_ABORT: []}
        for pid in sorted(partitions):
            outcome = partitions[pid].wal.outcome_of(txn_id)
            if outcome is not None:
                by_outcome[outcome].append(pid)
        violations.append(
            f"atomicity: {txn_id!r} committed on partitions "
            f"{by_outcome[WAL_COMMIT]} but aborted on partitions "
            f"{by_outcome[WAL_ABORT]}"
        )
    return violations


def check_durability(
    partitions: Dict[int, "object"], snapshots: Dict[int, Dict[str, object]]
) -> List[str]:
    """WAL replay must reconstruct exactly each partition's committed state.

    The replayed snapshot is the log's committed writes folded into one
    dict, latest last, as :meth:`~repro.db.wal.WriteAheadLog.replay` would
    apply them to a fresh store; ``snapshots`` holds each partition's live
    store snapshot (``store.snapshot()``, which a report keeps anyway).
    """
    violations: List[str] = []
    for pid in sorted(partitions):
        server = partitions[pid]
        replayed: Dict[str, object] = {}
        for _, writes in server.wal.committed_writes():
            replayed.update(writes)
        live = snapshots[pid]
        if replayed == live:
            continue
        differing = sorted(
            key
            for key in set(replayed) | set(live)
            if replayed.get(key, "<absent>") != live.get(key, "<absent>")
        )
        violations.append(
            f"durability: partition {pid} WAL replay diverges from the live "
            f"store on keys {differing}"
        )
    return violations


def check_lock_safety(partitions: Dict[int, "object"]) -> List[str]:
    """No two exclusive holders; decided transactions hold no locks."""
    violations: List[str] = []
    for pid in sorted(partitions):
        server = partitions[pid]
        for key in server.locks.locked_keys():
            holders = server.locks.holders(key)
            if len(holders) > 1 and server.locks.mode_of(key) == LockMode.EXCLUSIVE:
                violations.append(
                    f"lock-safety: partition {pid} key {key!r} is EXCLUSIVE "
                    f"with {len(holders)} holders {sorted(holders)}"
                )
        # an undecided transaction is in doubt: holding locks is the point
        for txn_id, outcome in _decided(server):
            held = server.locks.keys_held_by(txn_id)
            if held:
                violations.append(
                    f"lock-safety: partition {pid} still holds {sorted(held)} "
                    f"for {txn_id!r} after {outcome}"
                )
    return violations


def check_cluster(
    partitions: Dict[int, "object"], snapshots: Dict[int, Dict[str, object]]
) -> InvariantReport:
    """Run the full battery over the live partition servers of one run and
    their store snapshots."""
    atomicity = check_atomicity(partitions)
    durability = check_durability(partitions, snapshots)
    lock_safety = check_lock_safety(partitions)
    return InvariantReport(
        atomicity=not atomicity,
        durability=not durability,
        lock_safety=not lock_safety,
        violations=atomicity + durability + lock_safety,
    )
