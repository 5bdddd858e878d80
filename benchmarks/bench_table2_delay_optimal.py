"""E2 — Table 2: delay-optimal protocols meet their cells' delay bounds.

The four protocols are read off one serial :func:`repro.exp.run_sweep` of
every registered protocol, which :func:`repro.analysis.build_table2` runs
itself.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import build_table2, render_table

PARAMS = [(3, 1), (5, 2), (8, 3), (16, 5)]


@pytest.mark.parametrize("n,f", PARAMS)
def test_table2_delay_optimal_protocols(benchmark, n, f):
    rows = benchmark.pedantic(build_table2, args=(n, f), rounds=3, iterations=1)
    assert len(rows) == 4
    assert all(r["optimal"] == "yes" for r in rows)
    # the headline entries: 0NBAC / 1NBAC / avNBAC decide after 1 delay,
    # INBAC (indulgent atomic commit) after 2
    by_protocol = {r["protocol"]: r for r in rows}
    assert by_protocol["INBAC"]["measured_delays"] == 2
    assert by_protocol["1NBAC"]["measured_delays"] == 1
    assert by_protocol["0NBAC"]["measured_delays"] == 1
    assert by_protocol["avNBAC-delay"]["measured_delays"] == 1
    attach_rows(benchmark, f"table2_n{n}_f{f}", rows)
    print()
    print(render_table(rows, title=f"Table 2 — delay-optimal protocols (n={n}, f={f})"))
