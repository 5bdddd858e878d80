"""Distributed transactional key-value store substrate.

The paper motivates atomic commit through transactional systems (Sinfonia,
Percolator, Spanner, Helios, ...): a transaction touches several partitions
(datacenters / database nodes), each partition votes on whether its part of
the transaction executed correctly, and a distributed commit protocol decides
the outcome.  This package is that substrate:

* :mod:`repro.db.store` — per-partition versioned key-value storage;
* :mod:`repro.db.locks` — a no-wait lock manager (conflicts produce "no"
  votes, the Helios-style behaviour described in the introduction);
* :mod:`repro.db.wal` — a write-ahead log recording prepare/commit/abort;
* :mod:`repro.db.transaction` — transactions as sets of per-partition
  operations (the Sinfonia "minitransaction" shape);
* :mod:`repro.db.partition` — the partition server process: it prepares
  transactions, votes, and runs an *embedded* instance of any atomic-commit
  protocol from :mod:`repro.protocols` among the transaction's participants;
* :mod:`repro.db.coordinator` — the client/coordinator process driving a
  workload of transactions;
* :mod:`repro.db.cluster` — the cluster: partitions, client and WAL rejoin
  on the scheduler, run as fast as possible or paced by the asyncio runtime,
  reporting latency and message statistics per commit protocol;
* :mod:`repro.db.conflict` — a Helios-style cross-datacenter conflict
  detector used by the examples;
* :mod:`repro.db.invariants` — executable cross-layer invariants (transaction
  atomicity, WAL-replay durability, lock-table safety) checked on the final
  partition state of every cluster run.  Together with the cluster's
  schedule-controller hook (``ClusterConfig.controller``) this is what lets
  :func:`repro.explore.explore` hunt transaction anomalies: pass a
  ``workload=`` and ``preset="cluster-anomaly"`` to enumerate coordinator-
  and partition-crash points, replay any hit from ``(strategy, seed,
  decisions)`` and shrink it to a 1-minimal counterexample.
"""

from repro.db.cluster import (
    ClusterConfig,
    ClusterReport,
    RecoveryEvent,
    TransactionOutcome,
    run_cluster,
)
from repro.db.coordinator import RetryPolicy
from repro.db.conflict import ConflictDetector
from repro.db.invariants import (
    InvariantReport,
    check_atomicity,
    check_cluster,
    check_durability,
    check_lock_safety,
)
from repro.db.locks import LockManager, LockMode
from repro.db.store import VersionedStore
from repro.db.transaction import Operation, Transaction
from repro.db.wal import WalRecord, WriteAheadLog

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "ConflictDetector",
    "InvariantReport",
    "LockManager",
    "LockMode",
    "Operation",
    "RecoveryEvent",
    "RetryPolicy",
    "Transaction",
    "TransactionOutcome",
    "VersionedStore",
    "WalRecord",
    "WriteAheadLog",
    "check_atomicity",
    "check_cluster",
    "check_durability",
    "check_lock_safety",
    "run_cluster",
]
