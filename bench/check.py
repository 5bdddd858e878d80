"""Compare two result sets of bench/run.py against the benchmark's bounds.

    python3 bench/check.py A.json B.json

``A`` is the reference (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  One row per (workload, end-to-end metric):

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``worse``      — it is, by more than the bound and more than either spread;
* ``unresolved`` — the run-to-run spread (interquartile range over median) of
  either side is wider than the bound, so the metric can be called neither
  unchanged nor regressed: lengthen the run or widen the bound.

The bound of a pairing is the one ``bench/bounds.json`` holds for that
(workload, metric), and ``BENCHMARK.json``'s bound of the metric — which has to
clear the noisiest workload — where it holds none.  ``failed_share`` has the
absolute bound 0.  On the simulated-clock workloads
(those that report fingerprints) ``msgs_per_op`` and every fingerprint must be
identical when both sets used the same seed and run length.  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from stats import BENCH_DIR, load_contract, spread


def load_bounds() -> Dict[str, Dict[str, float]]:
    """``bench/bounds.json``: workload -> metric -> bound of that pairing."""
    with open(os.path.join(BENCH_DIR, "bounds.json")) as handle:
        return json.load(handle)["bounds"]


def _fingerprints(row: Dict[str, Any]) -> List[Any]:
    return [run.get("fingerprints") or {} for run in row.get("runs", [])]


def _verdict(
    metric: Dict[str, Any], bound: float, a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[str, str]:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    widest = max(spread(a), spread(b))
    note = f"{100 * worse_by:+.2f} % worse, spread {100 * widest:.2f} %, bound {100 * bound:.4g} %"
    if worse_by > max(bound, widest):
        return "worse", note
    if widest > bound:
        return "unresolved", note
    return "ok", note


def compare(
    a: Dict[str, Any],
    b: Dict[str, Any],
    contract: Dict[str, Any],
    bounds: Dict[str, Dict[str, float]],
) -> List[Tuple[str, str, str, str]]:
    """``(workload, metric, verdict, note)`` rows for every pairing."""
    same_inputs = all(
        a["provenance"].get(key) == b["provenance"].get(key) for key in ("seed", "seconds")
    )
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        row_a, row_b = a["workloads"].get(workload), b["workloads"].get(workload)
        if row_a is None or row_b is None:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            got_a, got_b = row_a["metrics"].get(name), row_b["metrics"].get(name)
            if got_a is None or got_b is None:
                rows.append((workload, name, "worse", "metric missing from a result set"))
                continue
            bound = bounds.get(workload, {}).get(name, metric["bound"])
            verdict, note = _verdict(metric, bound, got_a, got_b)
            exact = name == "msgs_per_op" and same_inputs and any(_fingerprints(row_a))
            if exact and got_a["raw"] != got_b["raw"]:
                verdict, note = "worse", "count differs on the simulated clock"
            rows.append((workload, name, verdict, note))
        failed = row_b["metrics"]["failed_share"]["median"]
        status = row_b.get("status", "ok")
        rows.append(
            (workload, "failed_share",
             "ok" if failed == 0 and status == "ok" else "worse",
             f"{failed:.6g} of the operations failed, status {status}")
        )
        if same_inputs and any(_fingerprints(row_a)):
            every = _fingerprints(row_a) + _fingerprints(row_b)
            same = all(fingerprints == every[0] for fingerprints in every)
            rows.append(
                (workload, "fingerprints", "ok" if same else "worse",
                 "identical" if same else "outputs differ for the same inputs")
            )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    rows = compare(a, b, load_contract(), load_bounds())
    for workload, metric, verdict, note in rows:
        print(f"{workload:16s} {metric:18s} {verdict:10s} {note}")
    counts = {v: sum(1 for r in rows if r[2] == v) for v in ("ok", "unresolved", "worse")}
    print(f"{counts['ok']} ok, {counts['unresolved']} unresolved, {counts['worse']} worse")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
