"""Command-line interface: ``python -m tools.lint [paths...]``.

Exit status is 0 when every rule passes (suppressed findings with a
justified allowlist pragma do not fail the run) and 1 otherwise, so the
smoke script can gate on it directly.  ``--format=json`` emits a stable
machine-readable report for diffing rule counts across revisions;
``--sanitize`` additionally runs the runtime sanitizer sweep and the
cross-``PYTHONHASHSEED`` harness.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from tools.lint.ast_checks import LIVE_TREES, lint_paths
from tools.lint.rules import default_rules


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="determinism, spawn-safety and dead-code static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(LIVE_TREES),
        help=f"files or directories to lint (default: {' '.join(LIVE_TREES)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is stable for automation diffs)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="also run the runtime sanitizer sweep and the "
        "cross-PYTHONHASHSEED fingerprint diff",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the active rule set and exit",
    )
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  [{','.join(rule.kinds)}]  {rule.description}")
        return 0

    started = time.perf_counter()
    report = lint_paths([Path(p) for p in args.paths], rules=rules)
    elapsed = time.perf_counter() - started

    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
        print(f"lint wall time: {elapsed:.2f}s")
    status = 0 if report.ok else 1

    if args.sanitize:
        from tools.lint.hashseed import run_hashseed_check, run_sanitized_sweep

        sanitized = run_sanitized_sweep()
        print(
            "sanitizer sweep: ok "
            f"({sanitized['observations']['record_send']} payloads, "
            f"{sanitized['observations']['fingerprint']} fingerprints, "
            f"{sanitized['observations']['row']} rows checked)"
        )
        check = run_hashseed_check()
        if check["ok"]:
            seeds = ", ".join(sorted(check["fingerprints"]))
            print(f"hash-seed check: fingerprints identical (PYTHONHASHSEED {seeds})")
        else:
            for line in check["diverging"]:
                print(f"hash-seed check FAILED: {line}", file=sys.stderr)
            status = 1

    return status
