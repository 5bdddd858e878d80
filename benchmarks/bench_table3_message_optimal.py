"""E3 — Table 3: message-optimal protocols meet their cells' message bounds.

The six protocols are read off one serial :func:`repro.exp.run_sweep` of
every registered protocol, which :func:`repro.analysis.build_table3` runs
itself.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import build_table3, render_table

PARAMS = [(3, 1), (5, 2), (8, 3), (12, 6)]


@pytest.mark.parametrize("n,f", PARAMS)
def test_table3_message_optimal_protocols(benchmark, n, f):
    rows = benchmark.pedantic(build_table3, args=(n, f), rounds=3, iterations=1)
    assert len(rows) == 6
    assert all(r["optimal"] == "yes" for r in rows)
    by_protocol = {r["protocol"]: r for r in rows}
    assert by_protocol["0NBAC"]["measured_messages"] == 0
    assert by_protocol["(n-1+f)NBAC"]["measured_messages"] == n - 1 + f
    assert by_protocol["(2n-2)NBAC"]["measured_messages"] == 2 * n - 2
    assert by_protocol["(2n-2+f)NBAC"]["measured_messages"] == 2 * n - 2 + f
    assert by_protocol["avNBAC"]["measured_messages"] == 2 * n - 2
    assert by_protocol["aNBAC"]["measured_messages"] == n - 1 + f
    attach_rows(benchmark, f"table3_n{n}_f{f}", rows)
    print()
    print(render_table(rows, title=f"Table 3 — message-optimal protocols (n={n}, f={f})"))
