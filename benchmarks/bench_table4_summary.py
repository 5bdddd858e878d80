"""E4 — Table 4: indulgent atomic commit vs synchronous NBAC complexity.

The four measured protocols are read off one serial
:func:`repro.exp.run_sweep` of every registered protocol, which
:func:`repro.analysis.build_table4` runs itself.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import build_table4, render_table

PARAMS = [(5, 2), (8, 3), (10, 4)]


@pytest.mark.parametrize("n,f", PARAMS)
def test_table4_summary(benchmark, n, f):
    rows = benchmark.pedantic(build_table4, args=(n, f), rounds=3, iterations=1)
    indulgent, sync, prior = rows
    # indulgent atomic commit: 2 delays, 2n-2+f messages (tight, Theorem 2)
    assert indulgent["bound_delays"] == 2
    assert indulgent["measured_delays"] == 2
    assert indulgent["bound_messages"] == 2 * n - 2 + f
    assert indulgent["measured_messages"] == 2 * n - 2 + f
    # synchronous NBAC: 1 delay, n-1+f messages (closing the open question)
    assert sync["bound_delays"] == 1
    assert sync["measured_delays"] == 1
    assert sync["bound_messages"] == n - 1 + f
    assert sync["measured_messages"] == n - 1 + f
    # prior work only knew 2n-2 for f = n-1
    assert prior["bound_messages"] == 2 * n - 2
    attach_rows(benchmark, f"table4_n{n}_f{f}", rows)
    print()
    print(render_table(rows, title=f"Table 4 — indulgent atomic commit vs sync NBAC (n={n}, f={f})"))
