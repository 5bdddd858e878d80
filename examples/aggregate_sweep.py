#!/usr/bin/env python
"""Streaming (aggregate-only) sweeps: big grids in bounded memory.

The paper's tables average over many executions per cell; pushing that to
production scale means sweeps of 10^5-10^6 trials, which do not fit in memory
as per-trial records.  ``run_sweep(..., mode="aggregate")`` folds every trial
into per-coordinate accumulators (counts, commit rates, message means, exact
p50/p99 latency digests) the moment it finishes, and the resulting table is
byte-identical to what the in-memory mode aggregates from the full trial
list — which this script demonstrates by running the same small grid both
ways and comparing fingerprints, then scaling the seed axis up in streaming
mode only.

Aggregate mode is also the fast path: it runs at the scheduler's
``counters`` trace level (no per-message records allocated), and in
parallel runs each worker ships its contiguous trial chunk as one partial
accumulator bundle instead of one result per trial (the engine does this for
any sink that can merge, the full mode's trial list included) — without
changing a single output byte, which the fingerprint comparison below
exercises.

Run with:  python examples/aggregate_sweep.py [--seeds N] [--workers W]
"""

from __future__ import annotations

import argparse
import tracemalloc

from repro.analysis import render_table
from repro.exp import GridSpec, run_sweep


def grid(seeds: int) -> GridSpec:
    return GridSpec(
        protocols=["INBAC", "2PC", "PaxosCommit"],
        systems=[(5, 2)],
        delays=[("uniform", "uniform", {"lo": 0.3, "hi": 1.0})],
        seeds=range(seeds),
        max_time=400,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=400,
                        help="seed-axis replications per grid cell (default: 400)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: one per CPU)")
    args = parser.parse_args()

    # 1. byte-identical: the same small grid, in-memory vs streaming
    check = 40
    full = run_sweep(grid(check), workers=args.workers)
    streamed = run_sweep(grid(check), workers=args.workers, mode="aggregate")
    assert streamed.aggregate_rows() == full.aggregate_rows()
    assert streamed.aggregate_fingerprint() == full.aggregate_fingerprint()
    print(f"aggregate mode reproduces the in-memory tables byte-for-byte "
          f"({check} seeds/cell, fingerprint {full.aggregate_fingerprint()[:16]}...)")
    print()

    # 2. scale the seed axis, streaming only
    tracemalloc.start()
    agg = run_sweep(grid(args.seeds), workers=args.workers, mode="aggregate")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert agg.error_count == 0, agg.sample_errors
    print(render_table(
        agg.aggregate_rows(),
        columns=["protocol", "n", "f", "trials", "commit_rate",
                 "mean_delays", "p50_latency", "p99_latency", "mean_messages"],
        title=f"Latency/message distributions over {len(agg)} streamed trials",
    ))
    print()
    print(f"{len(agg)} trials folded into {agg.cell_count} cell accumulators; "
          f"peak traced memory {peak / 1e6:.1f} MB "
          f"(trace level: {agg.meta['trace_level']}, fold: {agg.meta['fold']})")


if __name__ == "__main__":
    main()
