"""What a live service keeps per committed transaction, module by module.

Runs a service shaped like the ledger's ``rt_loaded`` workload — 4
partitions, 2PC, 8 closed-loop clients that think a seeded 0-2 ms before
each submit — warms it up, then traces the measured transactions with
``tracemalloc``.  Prints the bytes still held once they completed, per
committed transaction, split by the module that allocated them (the
innermost frame inside ``repro``: a dataclass ``__init__`` or a builtin
counts to its caller).  Each column is read after the first
``CHECKPOINTS[0]`` and after all ``CHECKPOINTS[-1]`` measured transactions:
a figure that rises from the first to the second grows with run length.

The growth of the peak resident set is read in an untraced run of the same
shape, in a child process started with ``--rss`` before the traced run (a
traced process' peak holds its traces and snapshots, and a process inherits
its parent's peak across exec): per committed transaction at each
checkpoint, then what ``service.shutdown()`` (the report and its invariant
battery) adds to it, as ``rt_loaded`` sees it.

Prints only; exits 1 if a transaction got no outcome.

    PYTHONPATH=src python scripts/txn_footprint.py
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from typing import Callable, Dict, List, Tuple

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
#: measured transactions after the warm-up ones, counted from its end: the
#: footprint is read at each
CHECKPOINTS = (1000, 4000)
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
RSS_FLAG = "--rss"


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


async def clients(service, batch, outcomes: List) -> None:
    """Run ``batch`` through ``CLIENTS`` closed-loop clients, then wait until
    every participant has logged every outcome."""

    async def client(index: int) -> None:
        think = random.Random(SEED * 1000 + index)
        for txn in batch[index::CLIENTS]:
            await asyncio.sleep(think.random() * THINK_S)
            outcomes.append(await service.submit(txn))

    await asyncio.gather(*(client(i) for i in range(CLIENTS)))
    await service.wait_all_completed(2000.0)


async def checkpoints(service, measure: Callable[[int], None]) -> List:
    """Warm ``service`` up, then run the measured transactions, calling
    ``measure`` with the committed count at each checkpoint; returns every
    outcome, None for a transaction without one."""
    txns = uniform_workload(
        WARM_TXNS + CHECKPOINTS[-1],
        PARTITIONS,
        keys_per_partition=100000,
        participants_per_txn=2,
        seed=SEED,
    ).transactions
    await service.start()
    warm: List = []
    await clients(service, txns[:WARM_TXNS], warm)
    gc.collect()
    measure(0)
    measured: List = []
    done = 0
    for checkpoint in CHECKPOINTS:
        await clients(service, txns[WARM_TXNS + done : WARM_TXNS + checkpoint], measured)
        done = checkpoint
        gc.collect()
        measure(sum(1 for o in measured if o is not None and o.decision == COMMIT))
    return warm + measured


def new_service() -> AsyncClusterService:
    return AsyncClusterService(
        ClusterConfig(num_partitions=PARTITIONS, commit_protocol="2PC", seed=SEED),
        unit=UNIT_S,
    )


async def traced() -> int:
    """Print the per-module table; returns the transactions without an
    outcome."""
    service = new_service()
    columns: List[Tuple[int, Dict[str, int]]] = []
    snapshots = []

    def measure(committed: int) -> None:
        if not snapshots:
            tracemalloc.start(TRACE_FRAMES)
            snapshots.append(tracemalloc.take_snapshot())
            return
        by_module: Dict[str, int] = {}
        for stat in tracemalloc.take_snapshot().compare_to(snapshots[0], "traceback"):
            module = module_of(stat.traceback)
            by_module[module] = by_module.get(module, 0) + stat.size_diff
        columns.append((max(1, committed), by_module))

    outcomes = await checkpoints(service, measure)
    # what shutdown allocates above its entry, while it runs
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    await service.shutdown()
    shutdown_peak = tracemalloc.get_traced_memory()[1] - entry
    tracemalloc.stop()

    print(f"{'module':16s}" + "".join(f" {f'bytes/txn @{n}':>16s}" for n in CHECKPOINTS))
    modules = set().union(*(by_module for _, by_module in columns))
    for module in list(STORE_MODULES) + sorted(modules - set(STORE_MODULES)):
        print(
            f"{module:16s}"
            + "".join(f" {by_module.get(module, 0) / n:16.0f}" for n, by_module in columns)
        )
    print(
        f"{'traced total':16s}"
        + "".join(f" {sum(by_module.values()) / n:16.0f}" for n, by_module in columns)
    )
    print(f"{'committed':16s}" + "".join(f" {n:16d}" for n, _ in columns))
    print(f"shutdown: {shutdown_peak / 2**20:.2f} MB traced at its peak above its entry")
    return sum(1 for o in outcomes if o is None)


async def untraced_rss() -> int:
    """Print the peak-RSS growth per committed transaction at each
    checkpoint, then across ``shutdown()``; returns the transactions
    without an outcome."""
    service = new_service()
    readings: List[Tuple[int, int]] = []
    outcomes = await checkpoints(
        service, lambda committed: readings.append((committed, peak_rss_bytes()))
    )
    before = peak_rss_bytes()
    await service.shutdown()
    shutdown_growth = peak_rss_bytes() - before
    base = readings[0][1]
    print(
        f"{'peak RSS growth':16s}"
        + "".join(f" {(rss - base) / max(1, n):16.0f}" for n, rss in readings[1:])
        + "   (untraced run)"
    )
    print(f"shutdown: peak RSS grew {shutdown_growth / 2**20:.2f} MB (untraced run)")
    return sum(1 for o in outcomes if o is None)


def main() -> int:
    if sys.argv[1:] == [RSS_FLAG]:
        return 1 if asyncio.run(untraced_rss()) else 0
    # the untraced run first: a process inherits its parent's peak across
    # exec, and this one's will hold the traces
    child = subprocess.run(
        [sys.executable, __file__, RSS_FLAG], capture_output=True, text=True
    )
    lost = asyncio.run(traced())
    print(child.stdout, end="", file=sys.stdout)
    print(child.stderr, end="", file=sys.stderr)
    if lost:
        print(f"FAIL: {lost} transactions without an outcome", file=sys.stderr)
        return 1
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
