#!/usr/bin/env python
"""Fold every ``benchmarks/BENCH_*.json`` baseline into one trajectory report.

Each benchmark writes its own JSON baseline with its own schema — sweep
throughput keeps ``configs`` + a frozen ``history`` block, the runtime and
recovery benchmarks keep ``rows`` + a sim-unit calibration — so this report
is deliberately generic: for every baseline file it extracts the benchmark
name, the quick flag, the measured-point count, any top-level scalar
headline metrics, and every fingerprint it can find (top-level or per-row),
then renders one summary table plus a per-benchmark detail table.

Output is deterministic (sorted files, sorted keys, no timestamps) so the
markdown and JSON artifacts diff cleanly across commits — the point is a
*trajectory*: re-run the benchmarks, re-run this script, and the diff shows
how the numbers moved.

Stdlib-only on purpose: the smoke suite runs it without PYTHONPATH games.

Usage::

    python scripts/bench_report.py                      # markdown to stdout
    python scripts/bench_report.py --out report.md --json report.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

DEFAULT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")

#: keys that hold the per-point measurement rows, in lookup order
ROW_KEYS = ("rows", "configs")


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float, str, bool)) or value is None


def _fingerprints(payload: Dict) -> List[str]:
    """Every fingerprint-ish value in the baseline, deduped, sorted."""
    found = set()
    for key, value in payload.items():
        if "fingerprint" in key and isinstance(value, str):
            found.add(value)
    for row_key in ROW_KEYS:
        for row in payload.get(row_key, ()):
            if isinstance(row, dict):
                for key, value in row.items():
                    if "fingerprint" in key and isinstance(value, str):
                        found.add(value)
    return sorted(found)


def _headline(payload: Dict) -> Dict[str, object]:
    """Top-level scalar metrics plus a flattened ``headline`` dict if present."""
    metrics: Dict[str, object] = {}
    for key, value in sorted(payload.items()):
        if key in ("benchmark", "quick") or key in ROW_KEYS:
            continue
        if _is_scalar(value):
            metrics[key] = value
        elif key == "headline" and isinstance(value, dict):
            for sub_key, sub_value in sorted(value.items()):
                if _is_scalar(sub_value):
                    metrics[f"headline.{sub_key}"] = sub_value
    return metrics


def summarise_file(path: str) -> Dict[str, object]:
    """One baseline file -> one generic summary record."""
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: baseline is not a JSON object")
    rows: List[Dict] = []
    row_key: Optional[str] = None
    for candidate in ROW_KEYS:
        if isinstance(payload.get(candidate), list):
            rows = [r for r in payload[candidate] if isinstance(r, dict)]
            row_key = candidate
            break
    return {
        "file": os.path.basename(path),
        "benchmark": payload.get("benchmark", os.path.basename(path)),
        "quick": bool(payload.get("quick", False)),
        "points": len(rows),
        "row_key": row_key,
        "headline": _headline(payload),
        "fingerprints": _fingerprints(payload),
        "rows": rows,
    }


def collect(directory: str) -> List[Dict[str, object]]:
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    return [summarise_file(path) for path in paths]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _markdown_table(rows: List[Dict], columns: List[str]) -> List[str]:
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |")
    return lines


def render_markdown(summaries: List[Dict[str, object]]) -> str:
    lines: List[str] = ["# Benchmark trajectory report", ""]
    if not summaries:
        lines.append("No `BENCH_*.json` baselines found.")
        return "\n".join(lines) + "\n"

    overview = []
    for s in summaries:
        headline = s["headline"]
        headline_text = "; ".join(f"{k}={_fmt(v)}" for k, v in headline.items()) or "-"
        overview.append({
            "benchmark": s["benchmark"],
            "file": s["file"],
            "points": s["points"],
            "quick": s["quick"],
            "headline": headline_text,
        })
    lines.extend(_markdown_table(overview, ["benchmark", "file", "points", "quick", "headline"]))
    lines.append("")

    for s in summaries:
        lines.append(f"## {s['benchmark']}")
        lines.append("")
        if s["fingerprints"]:
            lines.append("fingerprints: " + ", ".join(f"`{fp[:16]}`" for fp in s["fingerprints"]))
            lines.append("")
        rows = s["rows"]
        if rows:
            columns: List[str] = []
            for row in rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            lines.extend(_markdown_table(rows, sorted(columns)))
        else:
            lines.append("(no measured rows)")
        lines.append("")
    return "\n".join(lines)


def build_report(directory: str) -> Tuple[str, Dict[str, object]]:
    summaries = collect(directory)
    markdown = render_markdown(summaries)
    payload = {
        "report": "bench_trajectory",
        "benchmarks": [
            {k: v for k, v in s.items() if k != "rows"} for s in summaries
        ],
        "total_points": sum(s["points"] for s in summaries),
    }
    return markdown, payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=DEFAULT_DIR,
                        help="directory holding BENCH_*.json baselines")
    parser.add_argument("--out", default=None,
                        help="write the markdown report here (default: stdout)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the machine-readable summary here")
    args = parser.parse_args(argv)

    markdown, payload = build_report(args.dir)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(markdown)
    else:
        sys.stdout.write(markdown)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if not payload["benchmarks"]:
        print("bench_report: no baselines found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
