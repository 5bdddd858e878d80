"""E1 — Table 1: tight lower bounds for all 27 atomic-commit problems.

Regenerates the full table of delay/message lower bounds and, for every cell
that has a matching protocol (Tables 2 and 3), verifies by measurement that
the protocol meets the bound in nice executions.  The measurements are one
serial :func:`repro.exp.run_sweep` of every registered protocol, which
:func:`repro.analysis.build_table1` runs itself.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import build_table1, render_table

PARAMS = [(5, 2), (8, 3)]


@pytest.mark.parametrize("n,f", PARAMS)
def test_table1_lower_bounds(benchmark, n, f):
    rows = benchmark.pedantic(build_table1, args=(n, f), rounds=2, iterations=1)
    assert len(rows) == 27
    measured_messages = [r for r in rows if "meets_message_bound" in r]
    measured_delays = [r for r in rows if "meets_delay_bound" in r]
    assert measured_messages and all(r["meets_message_bound"] == "yes" for r in measured_messages)
    assert measured_delays and all(r["meets_delay_bound"] == "yes" for r in measured_delays)
    attach_rows(benchmark, f"table1_n{n}_f{f}", rows)
    print()
    print(render_table(
        rows,
        columns=["CF", "NF", "delay_bound", "message_bound", "message_bound_value",
                 "matching_protocol", "measured_messages"],
        title=f"Table 1 — lower bounds and matching protocols (n={n}, f={f})",
    ))
