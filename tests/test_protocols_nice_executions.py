"""Nice-execution complexity of every protocol against its expected formula.

These tests are the executable core of the reproduction: for every registered
protocol and a grid of ``(n, f)`` values they assert that the measured number
of message delays and messages in a nice execution equals the closed-form
value (Tables 2, 3 and 5 of the paper), that every process commits, and that
the underlying consensus module is never used on the nice path.
"""

from __future__ import annotations

import pytest

from repro.core.lattice import PropertyPair
from repro.core.metrics import nice_execution_complexity
from repro.core.properties import is_nice_execution
from repro.core.table1 import cell_bound
from repro.exp import GridSpec, run_sweep
from repro.protocols.registry import (
    TABLE2_DELAY_OPTIMAL,
    TABLE3_MESSAGE_OPTIMAL,
    all_protocols,
    get_protocol,
)
from repro.sim.runner import run_nice_execution

GRID = [(3, 1), (4, 1), (5, 2), (6, 3), (8, 3), (7, 6)]


def _cases():
    for name in all_protocols():
        for n, f in GRID:
            yield name, n, f


@pytest.mark.parametrize("name,n,f", list(_cases()))
def test_nice_execution_matches_expected_complexity(name, n, f):
    info = get_protocol(name)
    result = run_nice_execution(info.cls, n=n, f=f)
    trace = result.trace
    stats = nice_execution_complexity(trace)

    assert is_nice_execution(trace), "the run must be a nice execution"
    # every process decides commit
    assert len(trace.decisions) == n
    assert set(result.decisions().values()) == {1}
    # complexity matches the closed form
    assert stats.message_delays == info.expected_delays(n, f), (
        f"{name}: measured {stats.message_delays} delays, "
        f"expected {info.expected_delays(n, f)}"
    )
    assert stats.messages == info.expected_messages(n, f), (
        f"{name}: measured {stats.messages} messages, "
        f"expected {info.expected_messages(n, f)}"
    )
    # the consensus module must never be involved in nice executions
    assert stats.consensus_messages == 0


@pytest.fixture(scope="module")
def small_system_sweep():
    """Every registered protocol's nice execution at every 2 <= n <= 10."""
    systems = [(n, f) for n in range(2, 11) for f in range(1, n)]
    sweep = run_sweep(GridSpec(systems=systems), workers=1)
    assert not sweep.errors(), sweep.errors()[:1]
    return sweep


@pytest.mark.parametrize(
    "name", sorted(name for name, info in all_protocols().items() if info.cell is not None)
)
def test_paper_protocols_meet_their_cell_bounds(name, small_system_sweep):
    """No protocol beats the Table 1 bound of its cell, and the protocols of
    Tables 2 and 3 meet their table's bound exactly, at every small system."""
    bound = cell_bound(get_protocol(name).cell)
    delay_cells = [k for k, p in TABLE2_DELAY_OPTIMAL.items() if p == name]
    message_cells = [k for k, p in TABLE3_MESSAGE_OPTIMAL.items() if p == name]
    trials = [t for t in small_system_sweep.trials if t.protocol == name]
    assert len(trials) == 45
    for trial in trials:
        n, f = trial.n, trial.f
        delays, messages = trial.last_decision, trial.messages_until_last_decision
        assert delays >= bound.delays, (n, f)
        assert messages >= bound.messages_for(n, f), (n, f)
        for cell in delay_cells:
            assert delays == cell_bound(PropertyPair.of(*cell)).delays, (n, f)
        for cell in message_cells:
            assert messages == cell_bound(PropertyPair.of(*cell)).messages_for(n, f), (n, f)


@pytest.mark.parametrize("n,f", [(4, 1), (6, 2)])
def test_inbac_two_delay_message_optimality(n, f):
    """Theorem 5/6: INBAC uses exactly 2fn messages, optimal given 2 delays."""
    result = run_nice_execution(get_protocol("INBAC").cls, n=n, f=f)
    stats = nice_execution_complexity(result.trace)
    assert stats.message_delays == 2
    assert stats.messages == 2 * f * n


def test_inbac_vs_2pc_comparison_from_the_introduction():
    """Section 1.3: with f = 1, INBAC uses 2n messages vs 2PC's 2n - 2,
    with the same number of message delays."""
    n, f = 7, 1
    inbac = nice_execution_complexity(run_nice_execution(get_protocol("INBAC").cls, n, f).trace)
    two_pc = nice_execution_complexity(run_nice_execution(get_protocol("2PC").cls, n, f).trace)
    assert inbac.message_delays == two_pc.message_delays == 2
    assert inbac.messages == 2 * n
    assert two_pc.messages == 2 * n - 2
    assert inbac.messages - two_pc.messages == 2


def test_paxoscommit_vs_inbac_tradeoff():
    """Section 6.2: for f >= 2, n >= 3, PaxosCommit wins on messages while
    INBAC wins on message delays."""
    n, f = 8, 3
    inbac = nice_execution_complexity(run_nice_execution(get_protocol("INBAC").cls, n, f).trace)
    paxos = nice_execution_complexity(
        run_nice_execution(get_protocol("PaxosCommit").cls, n, f).trace
    )
    assert paxos.messages < inbac.messages
    assert inbac.message_delays < paxos.message_delays


def test_one_delay_protocols_pay_n_squared_messages():
    """Section 3.2: a 1-delay protocol with validity under crashes needs at
    least n(n-1) messages — 1NBAC and delay-optimal avNBAC sit exactly there."""
    n, f = 6, 2
    for name in ("1NBAC", "avNBAC-delay"):
        stats = nice_execution_complexity(run_nice_execution(get_protocol(name).cls, n, f).trace)
        assert stats.message_delays == 1
        assert stats.messages == n * (n - 1)


def test_zero_nbac_sends_nothing_at_all():
    result = run_nice_execution(get_protocol("0NBAC").cls, n=6, f=2)
    assert result.trace.message_count() == 0
    assert result.trace.messages == [] or all(not m.counted for m in result.trace.messages)


def test_registry_consistency():
    registry = all_protocols()
    assert len(registry) == 13
    for name, info in registry.items():
        assert info.name == name
        assert info.cls.protocol_name  # every protocol declares a display name
    with pytest.raises(Exception):
        get_protocol("definitely-not-a-protocol")
