"""E5 — Table 5: INBAC vs (n-1+f)NBAC vs 1NBAC vs 2PC vs PaxosCommit vs
Faster PaxosCommit, measured in nice executions.

The six protocols are read off one serial :func:`repro.exp.run_sweep` of
every registered protocol, which :func:`repro.analysis.build_table5` runs
itself.  The message counts must match the paper's
formulas exactly; the delay counts match for every protocol except the chain
protocol, whose accounting convention differs by one unit (documented in
repro.analysis.formulas).  The comparative *shape* the paper highlights is
asserted explicitly:

* INBAC and 2PC have the same number of message delays;
* for f = 1, INBAC uses exactly 2 messages more than 2PC;
* for f >= 2, PaxosCommit beats INBAC on messages, INBAC beats it on delays;
* Faster PaxosCommit matches INBAC's delays but needs more messages.
"""

from __future__ import annotations

import pytest

from _helpers import attach_rows
from repro.analysis import build_table5, render_table

PARAMS = [(4, 1), (6, 2), (9, 2), (12, 3)]


@pytest.mark.parametrize("n,f", PARAMS)
def test_table5_protocol_shootout(benchmark, n, f):
    rows = benchmark.pedantic(build_table5, args=(n, f), rounds=3, iterations=1)
    assert len(rows) == 6
    by_protocol = {r["protocol"]: r for r in rows}

    # message counts reproduce the paper's column entries exactly
    mismatches = [r for r in rows if r["measured_messages"] != r["paper_messages"]]
    assert not mismatches, mismatches

    inbac = by_protocol["INBAC"]
    two_pc = by_protocol["2PC"]
    paxos = by_protocol["PaxosCommit"]
    faster = by_protocol["FasterPaxosCommit"]

    assert inbac["measured_delays"] == two_pc["measured_delays"] == 2
    if f == 1:
        assert inbac["measured_messages"] - two_pc["measured_messages"] == 2
    if f >= 2 and n >= 3:
        assert paxos["measured_messages"] < inbac["measured_messages"]
        assert inbac["measured_delays"] < paxos["measured_delays"]
    assert faster["measured_delays"] == inbac["measured_delays"]
    assert faster["measured_messages"] >= inbac["measured_messages"]
    # the consensus module is silent in every nice execution
    assert all(r["consensus_messages"] == 0 for r in rows)

    attach_rows(benchmark, f"table5_n{n}_f{f}", rows)
    print()
    print(render_table(rows, title=f"Table 5 — protocol comparison (n={n}, f={f})"))
