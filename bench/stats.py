"""Small-sample statistics, the reference second, the benchmark contract and provenance."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


#: The sandbox's speed moves by a third and stays there for minutes, so raw
#: times of CPU-bound work cannot be compared between two runs (README,
#: "Reference seconds").  A *reference second* is the time 1 / REFERENCE_LOOP_S
#: turns of reference_loop() take: a run samples the loop next to its work and
#: divides its CPU-bound durations by how much slower than REFERENCE_LOOP_S
#: the loop ran.  The constant only fixes the unit's size (the loop's time on
#: the sizing machine at its usual speed); it cancels out of any comparison.
REFERENCE_ITERATIONS = 20_000
REFERENCE_LOOP_S = 0.00065


def reference_loop() -> float:
    """Run the fixed reference loop once; the seconds it took."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def slowdown(samples: Sequence[float]) -> float:
    """How many times slower than the reference the machine ran, from the
    ``reference_loop()`` times sampled during a run."""
    return statistics.median(samples) / REFERENCE_LOOP_S


def load_contract() -> Dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarise(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, sample count and the raw repetitions of one metric."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "raw": values,
    }


def spread(summary: Dict[str, object]) -> float:
    """Interquartile range as a share of the median (0 for a zero median)."""
    median = summary["median"]
    return abs(summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of an ascending sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def tail_percentile(sorted_values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest of p99/p95/p90/p75 with at least ten
    samples beyond it; the median when the sample supports none of them."""
    n = len(sorted_values)
    for q in (99, 95, 90, 75):
        if n - math.ceil(n * q / 100) >= 10:
            return float(q), percentile(sorted_values, q)
    return 50.0, percentile(sorted_values, 50)


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(**run_settings: object) -> Dict[str, object]:
    """Where and how a result set was taken."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": numpy_version,
        **run_settings,
    }
