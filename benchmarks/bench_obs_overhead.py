"""Observability overhead benchmark: watching must be (almost) free.

Measures aggregate-mode sweep throughput at n in {20, 100} across three
observation levels:

* ``off`` — ``run_sweep`` with no progress callback, the baseline every
  other variant is compared against.  This is the exact code path an
  unobserved sweep takes (the engine never imports ``repro.obs`` when
  ``progress is None``).
* ``metrics`` — a :class:`~repro.obs.MetricsProgressReporter`: counters and
  gauges only, the cheapest consumer.  The acceptance bar lives here:
  metrics-on throughput must stay within ``MAX_METRICS_OVERHEAD`` of off.
* ``events+jsonl`` — a :class:`~repro.obs.JsonlProgressReporter`: every
  progress event serialised to a JSON line, the full event-tracing variant.
  Reported, not gated — file I/O cost is allowed to show.

Every variant must produce the *same* ``SweepAggregate`` fingerprint: the
observability contract is that obs-on and obs-off runs are byte-identical,
and this benchmark re-checks it on every measured point before trusting any
rate.  Results go to ``BENCH_obs_overhead.json`` (``--out`` /
``REPRO_BENCH_OUT`` override; ``--quick`` runs the small configuration).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from typing import Dict, List, Optional

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import GridSpec, run_sweep
from repro.obs import JsonlProgressReporter, MetricsProgressReporter

#: (n, f, trials) per measured point — same n/5 resilience ratio the
#: throughput benchmark sweeps, sized so a full battery stays under a minute
FULL_CONFIGS = ((20, 4, 150), (100, 20, 16))
QUICK_CONFIGS = ((20, 4, 40),)

#: the acceptance bar: metrics-on throughput within 5% of obs-off at n=HEADLINE_N
HEADLINE_N = 100
MAX_METRICS_OVERHEAD = 0.05

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "BENCH_obs_overhead.json")

VARIANT_LABELS = ("off", "metrics", "events+jsonl")


def grid(n: int, f: int, trials: int) -> GridSpec:
    return GridSpec(
        protocols=["INBAC"], systems=[(n, f)], seeds=range(trials), max_time=1000
    )


def _make_progress(label: str, scratch_dir: str, sequence: int):
    """A fresh progress consumer per run (reporters hold open state)."""
    if label == "off":
        return None
    if label == "metrics":
        return MetricsProgressReporter()
    if label == "events+jsonl":
        path = os.path.join(scratch_dir, f"progress-{sequence:04d}.jsonl")
        return JsonlProgressReporter(path)
    raise ValueError(f"unknown variant {label!r}")


def _measure_once(n, f, trials, workers, label, scratch_dir, sequence):
    """One timed aggregate sweep under one observation level."""
    progress = _make_progress(label, scratch_dir, sequence)
    start = time.perf_counter()
    agg = run_sweep(
        grid(n, f, trials),
        workers=workers,
        mode="aggregate",
        trace_level="counters",
        progress=progress,
    )
    elapsed = time.perf_counter() - start
    assert agg.error_count == 0, agg.sample_errors
    return trials / elapsed, agg.aggregate_fingerprint()


def measure(n, f, trials, workers, label, scratch_dir, repeats=3):
    """Best-of-``repeats`` throughput (fingerprint identical across runs)."""
    best, fingerprint = 0.0, None
    for sequence in range(repeats):
        rate, fingerprint = _measure_once(
            n, f, trials, workers, label, scratch_dir, sequence
        )
        best = max(best, rate)
    return best, fingerprint


def run_battery(configs, workers: Optional[int] = 1, repeats: int = 3) -> List[Dict]:
    """Measure every observation level at every (n, f, trials) point.

    Asserts, per point, that all three variants produce byte-identical
    ``SweepAggregate`` fingerprints — observation must never change bytes.
    """
    rows: List[Dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as scratch_dir:
        for n, f, trials in configs:
            rates: Dict[str, float] = {}
            fingerprints: Dict[str, str] = {}
            for label in VARIANT_LABELS:
                rates[label], fingerprints[label] = measure(
                    n, f, trials, workers, label, scratch_dir, repeats=repeats
                )
            distinct = set(fingerprints.values())
            assert len(distinct) == 1, (
                f"fingerprints diverged across observation levels at n={n}: "
                f"{fingerprints}"
            )
            rows.append(
                {
                    "n": n,
                    "f": f,
                    "trials": trials,
                    **{f"{label} t/s": round(rate, 1) for label, rate in rates.items()},
                    "metrics overhead %": round(
                        100.0 * (1.0 - rates["metrics"] / rates["off"]), 2
                    ),
                    "events overhead %": round(
                        100.0 * (1.0 - rates["events+jsonl"] / rates["off"]), 2
                    ),
                    "fingerprint": next(iter(distinct))[:16],
                }
            )
    return rows


def write_baseline(rows: List[Dict], out_path: str, workers, quick: bool) -> Dict:
    headline = next((r for r in rows if r["n"] == HEADLINE_N), rows[-1])
    baseline = {
        "benchmark": "obs_overhead",
        "quick": quick,
        "workers": workers,
        "headline": {
            "n": headline["n"],
            "metrics_overhead_pct": headline["metrics overhead %"],
            "max_allowed_pct": 100.0 * MAX_METRICS_OVERHEAD,
        },
        "configs": rows,
    }
    with open(out_path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def test_obs_overhead(benchmark):
    rows = benchmark.pedantic(
        lambda: run_battery(FULL_CONFIGS, workers=1), rounds=1, iterations=1
    )
    out_path = os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT)
    baseline = write_baseline(rows, out_path, workers=1, quick=False)
    attach_rows(benchmark, "obs_overhead", rows)
    print()
    print(render_table(rows, title="Observability overhead (trials/sec by observation level)"))
    print(f"baseline written to {out_path}")
    headline = baseline["headline"]
    assert headline["metrics_overhead_pct"] <= headline["max_allowed_pct"], baseline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke configuration (fingerprint checks only, "
                             "no overhead assertion)")
    parser.add_argument("--out", default=os.environ.get("REPRO_BENCH_OUT", DEFAULT_OUT),
                        help="where to write the JSON baseline")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per sweep (default: 1, serial)")
    args = parser.parse_args()

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    rows = run_battery(configs, workers=args.workers, repeats=2 if args.quick else 3)
    baseline = write_baseline(rows, args.out, workers=args.workers, quick=args.quick)
    print(render_table(rows, title="Observability overhead (trials/sec by observation level)"))
    print(f"baseline written to {args.out}")
    if not args.quick:
        headline = baseline["headline"]
        assert headline["metrics_overhead_pct"] <= headline["max_allowed_pct"], (
            f"metrics-on observation above the "
            f"{headline['max_allowed_pct']:.0f}% overhead bar: {headline}"
        )


if __name__ == "__main__":
    main()
