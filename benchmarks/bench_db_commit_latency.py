"""E7 — end-to-end commit latency and message volume in the key-value store.

This is the paper's motivating scenario (Section 1): a distributed database
where the commit protocol dominates transaction latency.  The benchmark runs
the same bank-transfer workload over the partitioned store once per commit
protocol and compares commit latency (in message-delay units) and message
volume, plus a contended (Helios-style) workload that produces aborts.

Both batteries run as one :func:`repro.exp.run_sweep` each — the cluster
transaction battery is a *workload axis* of the grid, so the per-protocol
cluster runs fan out across worker processes like any other sweep.
"""

from __future__ import annotations

from _helpers import attach_rows
from repro.analysis import cluster_summary_rows, render_table
from repro.exp import GridSpec, run_sweep
from repro.workloads import bank_transfer_workload, hotspot_workload

PROTOCOLS = ["1NBAC", "2PC", "INBAC", "FasterPaxosCommit", "PaxosCommit", "3PC"]
PARTITIONS = 6


def run_shootout(workload, label):
    grid = GridSpec(
        protocols=PROTOCOLS,
        systems=[(PARTITIONS, 1)],
        workloads=[(label, workload)],
        seeds=[7],
        max_time=2000.0,
    )
    return cluster_summary_rows(run_sweep(grid))


def test_db_commit_latency_bank_transfers(benchmark):
    workload = bank_transfer_workload(
        num_transfers=12, num_partitions=PARTITIONS, seed=13
    )
    rows = benchmark.pedantic(run_shootout, args=(workload, "bank"), rounds=1, iterations=1)
    by_protocol = {r["protocol"]: r for r in rows}
    # every protocol completes the workload
    assert all(r["incomplete"] == 0 for r in rows)
    # latency ordering follows the protocols' message-delay structure
    assert by_protocol["1NBAC"]["mean_latency"] <= by_protocol["2PC"]["mean_latency"]
    assert by_protocol["2PC"]["mean_latency"] <= by_protocol["INBAC"]["mean_latency"]
    assert by_protocol["INBAC"]["mean_latency"] <= by_protocol["PaxosCommit"]["mean_latency"]
    assert by_protocol["INBAC"]["mean_latency"] <= by_protocol["3PC"]["mean_latency"]
    # 2PC moves the fewest messages, 1NBAC the most (all-to-all votes)
    assert by_protocol["2PC"]["messages"] <= min(
        by_protocol[p]["messages"] for p in ("INBAC", "PaxosCommit", "FasterPaxosCommit")
    )
    attach_rows(benchmark, "db_bank_transfers", rows)
    print()
    print(render_table(rows, title=f"E7 — bank transfers over {PARTITIONS} partitions"))


def test_db_commit_latency_contended_workload(benchmark):
    workload = hotspot_workload(
        num_transactions=24,
        num_partitions=PARTITIONS,
        inter_arrival=0.5,
        hot_keys=1,
        participants_per_txn=3,
        seed=21,
    )
    rows = benchmark.pedantic(run_shootout, args=(workload, "hotspot"), rounds=1, iterations=1)
    assert all(r["incomplete"] == 0 for r in rows)
    # contention produces aborts under every protocol (the Helios-style
    # "vote no on conflict" behaviour), and the commit/abort split is
    # identical across protocols because votes only depend on lock conflicts
    aborts = {r["protocol"]: r["aborted"] for r in rows}
    assert all(a > 0 for a in aborts.values())
    attach_rows(benchmark, "db_contended", rows)
    print()
    print(render_table(rows, title="E7 — contended (hotspot) workload"))
