"""Sweep-throughput benchmark: the simulation core's two trace levels.

Measures trials/sec for aggregate-mode sweeps at n in {20, 100, 200} at each
trace level:

* ``full`` — ``trace_level="full"``: one record per message.
* ``counters`` — the aggregate-mode default: running tallies only.

Both levels must produce the *same* ``SweepAggregate`` fingerprint —
a cheaper configuration buys speed, never different bytes — and the measured
rates are written to ``BENCH_sweep_throughput.json`` (``--out`` /
``REPRO_BENCH_OUT`` override the path; ``--quick`` runs the small smoke
configuration).

Two more columns used to be measured here, ``legacy t/s`` (an emulation of
the pre-fast-path core) and ``counters+heap t/s`` (the scheduler forced onto
its binary-heap queue).  Both ran code that no longer exists; their last
measured values are frozen in the JSON's ``"history"`` block, which
:func:`write_baseline` carries over verbatim.  Perf claims are judged by the
root ``bench/`` ledger, not by this file.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Dict, List, Optional

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import GridSpec, run_sweep

#: (n, f, trials) per measured point — f = n/5 throughout, the resilience
#: ratio the large-scale grids sweep; INBAC's 2fn-message nice executions
#: then give each point a message volume that grows quadratically with n
FULL_CONFIGS = ((20, 4, 150), (100, 20, 16), (200, 40, 4))
QUICK_CONFIGS = ((20, 4, 40), (100, 20, 4))

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_sweep_throughput.json")


def grid(n: int, f: int, trials: int) -> GridSpec:
    return GridSpec(
        protocols=["INBAC"], systems=[(n, f)], seeds=range(trials), max_time=1000
    )


def _measure_once(n, f, trials, workers, trace_level):
    """One timed aggregate sweep; returns (trials/sec, fingerprint)."""
    start = time.perf_counter()
    agg = run_sweep(
        grid(n, f, trials), workers=workers, mode="aggregate", trace_level=trace_level
    )
    elapsed = time.perf_counter() - start
    assert agg.error_count == 0, agg.sample_errors
    return trials / elapsed, agg.aggregate_fingerprint()


def measure(n, f, trials, workers, trace_level, repeats=2):
    """Best-of-``repeats`` throughput (and the fingerprint, identical each run)."""
    best, fingerprint = 0.0, None
    for _ in range(repeats):
        rate, fingerprint = _measure_once(n, f, trials, workers, trace_level)
        best = max(best, rate)
    return best, fingerprint


#: the measured trace levels, each a column label
VARIANTS = ("full", "counters")


def run_battery(configs, workers: Optional[int] = 1, repeats: int = 2) -> List[Dict]:
    """Measure every variant at every (n, f, trials) point.

    Asserts, per point, that both variants produce byte-identical
    ``SweepAggregate`` fingerprints — the determinism half of the benchmark.
    """
    rows: List[Dict] = []
    for n, f, trials in configs:
        fingerprints: Dict[str, str] = {}
        rates: Dict[str, float] = {}
        for level in VARIANTS:
            rates[level], fingerprints[level] = measure(
                n, f, trials, workers, level, repeats=repeats
            )
        distinct = set(fingerprints.values())
        assert len(distinct) == 1, (
            f"fingerprints diverged across core configurations at n={n}: {fingerprints}"
        )
        rows.append(
            {
                "n": n,
                "f": f,
                "trials": trials,
                **{f"{label} t/s": round(rate, 1) for label, rate in rates.items()},
                "fingerprint": next(iter(distinct))[:16],
            }
        )
    return rows


def frozen_history() -> Optional[Dict]:
    """The ``"history"`` block of the committed baseline (None when absent)."""
    try:
        with open(DEFAULT_OUT) as handle:
            return json.load(handle).get("history")
    except FileNotFoundError:
        return None


def write_baseline(rows: List[Dict], out_path: str, workers, quick: bool) -> None:
    baseline = {
        "benchmark": "sweep_throughput",
        "quick": quick,
        "workers": workers,
        "configs": rows,
    }
    history = frozen_history()
    if history is not None:
        baseline["history"] = history
    with open(out_path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


TITLE = "Sweep throughput by trace level (trials/sec)"


def test_sweep_throughput(benchmark):
    rows = benchmark.pedantic(
        lambda: run_battery(FULL_CONFIGS, workers=1), rounds=1, iterations=1
    )
    out_path = os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT)
    write_baseline(rows, out_path, workers=1, quick=False)
    attach_rows(benchmark, "sweep_throughput", rows)
    print()
    print(render_table(rows, title=TITLE))
    print(f"baseline written to {out_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration")
    parser.add_argument("--out", default=os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT),
                        help="where to write the JSON baseline")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per sweep (default: 1, serial)")
    args = parser.parse_args()

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    rows = run_battery(configs, workers=args.workers, repeats=1 if args.quick else 2)
    write_baseline(rows, args.out, workers=args.workers, quick=args.quick)
    print(render_table(rows, title=TITLE))
    print(f"baseline written to {args.out}")


if __name__ == "__main__":
    main()
