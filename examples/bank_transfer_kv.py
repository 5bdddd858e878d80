#!/usr/bin/env python
"""Cross-partition bank transfers on the transactional key-value store.

Every transfer touches two partitions (debit on one, credit on the other), so
each one needs a distributed atomic commit.  The example runs the same
workload with 2PC, INBAC and PaxosCommit as the commit layer and compares
commit latency (in message-delay units) and message volume, then prints one
partition's write-ahead log to show the prepare/commit lifecycle.

Run with:  python examples/bank_transfer_kv.py
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.db import ClusterConfig, run_cluster
from repro.workloads import bank_transfer_workload

PARTITIONS = 4
TRANSFERS = 8


def main() -> None:
    workload = bank_transfer_workload(
        num_transfers=TRANSFERS, num_partitions=PARTITIONS, amount=25, seed=42
    )
    print(f"{TRANSFERS} cross-partition transfers over {PARTITIONS} partitions\n")

    rows = []
    reports = {}
    for protocol in ("2PC", "INBAC", "PaxosCommit"):
        config = ClusterConfig(
            num_partitions=PARTITIONS, commit_protocol=protocol, commit_f=1, seed=7
        )
        report = run_cluster(config, workload.transactions)
        reports[protocol] = report
        rows.append(report.summary_row())
    print(render_table(rows, title="Commit-protocol comparison"))
    print()

    inbac_report = reports["INBAC"]
    print("Committed account balances (INBAC run):")
    for pid, snapshot in sorted(inbac_report.store_snapshots.items()):
        if snapshot:
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(snapshot.items()))
            print(f"  partition {pid}: {pretty}")
    print()

    print(render_table(
        [
            {"lsn": r.lsn, "kind": r.kind, "txn": r.txn_id,
             "vote": "-" if r.vote is None else r.vote,
             "participants": str(r.participants)}
            for r in inbac_report.wal_records[1]
        ],
        title="Write-ahead log of partition 1 (INBAC run)",
    ))


if __name__ == "__main__":
    main()
