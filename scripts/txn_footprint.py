"""What a live service keeps per committed transaction, module by module.

Runs a service shaped like the ledger's ``rt_loaded`` workload — 4
partitions, 2PC, 8 closed-loop clients that think a seeded 0-2 ms before
each submit — warms it up, then traces the measured transactions with
``tracemalloc``.  Prints the bytes still held once they completed, per
committed transaction, split by the module that allocated them (the
innermost frame inside ``repro``: a dataclass ``__init__`` or a builtin
counts to its caller), beside the growth of the process' peak resident set
over the same transactions (less ``tracemalloc``'s own bookkeeping).

Prints only; exits 1 if a transaction got no outcome.

    PYTHONPATH=src python scripts/txn_footprint.py
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
import sys
import tracemalloc
from typing import Dict, List

import repro
from repro.db.cluster import ClusterConfig
from repro.protocols.base import COMMIT
from repro.runtime import AsyncClusterService
from repro.workloads.transactions import uniform_workload

PARTITIONS = 4
CLIENTS = 8
UNIT_S = 0.01
THINK_S = 0.002
WARM_TXNS = 100
#: measured transactions, after the warm-up ones
TXNS = 1000
SEED = 2017
TRACE_FRAMES = 16
#: the rows printed first, in this order; any other module follows
STORE_MODULES = (
    "db.wal",
    "db.partition",
    "db.store",
    "db.coordinator",
    "db.transaction",
    "protocols",
    "env",
)
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def module_of(traceback) -> str:
    """``db.<module>`` or the ``repro`` sub-package of the innermost frame
    inside ``repro``; ``other`` (the standard library) when none is."""
    for frame in reversed(traceback):
        if frame.filename.startswith(REPRO_DIR):
            package, _, module = frame.filename[len(REPRO_DIR):].partition(os.sep)
            if package == "db":
                return f"db.{module.removesuffix('.py')}"
            return package.removesuffix(".py")
    return "other"


def peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


async def drive() -> int:
    service = AsyncClusterService(
        ClusterConfig(num_partitions=PARTITIONS, commit_protocol="2PC", seed=SEED),
        unit=UNIT_S,
    )
    workload = uniform_workload(
        WARM_TXNS + TXNS,
        PARTITIONS,
        keys_per_partition=100000,
        participants_per_txn=2,
        seed=SEED,
    ).transactions
    await service.start()

    async def clients(batch, outcomes: List) -> None:
        async def client(index: int) -> None:
            think = random.Random(SEED * 1000 + index)
            for txn in batch[index::CLIENTS]:
                await asyncio.sleep(think.random() * THINK_S)
                outcomes.append(await service.submit(txn))

        await asyncio.gather(*(client(i) for i in range(CLIENTS)))

    warm: List = []
    await clients(workload[:WARM_TXNS], warm)
    gc.collect()
    rss_before = peak_rss_bytes()
    tracemalloc.start(TRACE_FRAMES)
    before = tracemalloc.take_snapshot()
    measured: List = []
    await clients(workload[WARM_TXNS:], measured)
    await service.wait_all_completed(2000.0)
    gc.collect()
    # read before the snapshot, whose copy of every trace is not the service's
    rss_growth = peak_rss_bytes() - rss_before - tracemalloc.get_tracemalloc_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    await service.shutdown()

    done = [o for o in warm + measured if o is not None]
    committed = sum(1 for o in measured if o is not None and o.decision == COMMIT)
    by_module: Dict[str, int] = {}
    for stat in after.compare_to(before, "traceback"):
        module = module_of(stat.traceback)
        by_module[module] = by_module.get(module, 0) + stat.size_diff
    rows = list(STORE_MODULES) + sorted(set(by_module) - set(STORE_MODULES))
    per_txn = max(1, committed)
    print(f"{committed} of {TXNS} measured transactions committed")
    print(f"{'module':16s} {'bytes/txn':>10s}")
    for module in rows:
        print(f"{module:16s} {by_module.get(module, 0) / per_txn:10.0f}")
    print(f"{'traced total':16s} {sum(by_module.values()) / per_txn:10.0f}")
    print(
        f"{'peak RSS growth':16s} {rss_growth / per_txn:10.0f}"
        f"   ({rss_growth / 2**20:.1f} MB, tracemalloc's own memory taken off)"
    )
    return len(warm) + len(measured) - len(done)


def main() -> int:
    missing = asyncio.run(drive())
    if missing:
        print(f"FAIL: {missing} transactions without an outcome", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
