"""How late the asyncio runtime's wake-ups land, on a lightly loaded service.

Runs a short service shaped like the ledger's ``rt_light`` workload — 4
partitions, 2PC, 4 closed-loop clients that think a seeded 0-2 ms before each
submit — with a ``MetricsRegistry``, and prints the p50 / p90 / p99 of
``runtime.wake_late_seconds``: how long after its wall-clock deadline each
wake-up of the runtime ran the kernel.  Beside it, the p50 / p90 of
``cluster.outcome_late_seconds``: how long after the kernel recorded an
outcome its client resumed (printed, not gated).

Exits 1 if any wake-up ran before its deadline, or if the p90 is half a
selector grain (0.5 ms) or more: a wake-up armed for its deadline lands on
the selector's next millisecond instead.

    PYTHONPATH=src python scripts/wake_lateness.py
"""

from __future__ import annotations

import asyncio
import random
import sys

from repro.db.cluster import ClusterConfig
from repro.obs import MetricsRegistry
from repro.runtime import AsyncClusterService
from repro.workloads.transactions import uniform_workload

TXNS = 200
CLIENTS = 4
PARTITIONS = 4
UNIT_S = 0.01
THINK_S = 0.002
#: p90 lateness at or above this fails the run: half a selector grain
P90_BOUND_S = 0.5e-3


async def drive(txns: int, metrics: MetricsRegistry) -> int:
    service = AsyncClusterService(
        ClusterConfig(num_partitions=PARTITIONS, commit_protocol="2PC", seed=2017),
        unit=UNIT_S,
        metrics=metrics,
    )
    workload = uniform_workload(
        txns, PARTITIONS, keys_per_partition=100000, participants_per_txn=2, seed=2017
    ).transactions
    await service.start()

    async def client(index: int) -> int:
        think = random.Random(index)
        done = 0
        for txn in workload[index::CLIENTS]:
            await asyncio.sleep(think.random() * THINK_S)
            done += await service.submit(txn) is not None
        return done

    done = sum(await asyncio.gather(*(client(i) for i in range(CLIENTS))))
    await service.shutdown()
    return txns - done


def main() -> int:
    metrics = MetricsRegistry()
    failed = asyncio.run(drive(TXNS, metrics))
    late = metrics.histogram("runtime.wake_late_seconds")
    p50, p90, p99 = (1000.0 * late.percentile(q) for q in (50, 90, 99))
    earliest = 1000.0 * min(late.counts)
    print(
        f"{late.total} wake-ups: lateness p50 {p50:.3f} ms, p90 {p90:.3f} ms, "
        f"p99 {p99:.3f} ms, earliest {earliest:+.3f} ms"
    )
    reached = metrics.histogram("cluster.outcome_late_seconds")
    o50, o90 = (1000.0 * reached.percentile(q) for q in (50, 90))
    print(
        f"{reached.total} outcomes: reached their client p50 {o50:.3f} ms, "
        f"p90 {o90:.3f} ms after the kernel recorded them"
    )
    problems = []
    if failed:
        problems.append(f"{failed} transactions without an outcome")
    if earliest < -1e-3:
        problems.append("a wake-up ran before its deadline")
    if p90 >= 1000.0 * P90_BOUND_S:
        problems.append(f"p90 lateness is not below {1000.0 * P90_BOUND_S} ms")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
