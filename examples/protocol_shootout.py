#!/usr/bin/env python
"""Regenerate the paper's headline tables from the command line.

Prints Table 5 (the protocol comparison), Table 2/3 (delay- and
message-optimal protocols) and a robustness summary for a chosen ``(n, f)``.

The robustness summary is one :func:`repro.exp.run_sweep` over every
registered protocol x two fault plans — fanned out across worker processes
(``--workers``), with results identical to a serial run.

Run with:  python examples/protocol_shootout.py [n] [f] [--workers W]
"""

from __future__ import annotations

import argparse

from repro.analysis import (
    build_table2,
    build_table3,
    build_table5,
    properties_by_fault_rows,
    render_table,
)
from repro.exp import GridSpec, run_sweep
from repro.protocols.registry import all_protocols
from repro.sim.faults import FaultPlan


def robustness_summary(n: int, f: int, workers: int | None = None):
    grid = GridSpec(
        protocols=sorted(all_protocols()),
        systems=[(n, f)],
        faults=[
            ("crash of P1 at 0", FaultPlan.crash(1, at=0.0)),
            ("late messages from P1", FaultPlan.delay_messages(src=1, delay=40.0)),
        ],
        max_time=400,
    )
    sweep = run_sweep(grid, workers=workers)
    return properties_by_fault_rows(sweep)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("n", nargs="?", type=int, default=6)
    parser.add_argument("f", nargs="?", type=int, default=2)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the robustness sweep (default: one per CPU)")
    args = parser.parse_args()
    n, f = args.n, args.f

    print(render_table(build_table5(n, f), title=f"Table 5 — protocol comparison (n={n}, f={f})"))
    print()
    print(render_table(build_table2(n, f), title=f"Table 2 — delay-optimal protocols (n={n}, f={f})"))
    print()
    print(render_table(build_table3(n, f), title=f"Table 3 — message-optimal protocols (n={n}, f={f})"))
    print()
    print(render_table(
        robustness_summary(n, f, workers=args.workers),
        title="Properties that survive a crash / a network failure (A/V/T)",
    ))


if __name__ == "__main__":
    main()
