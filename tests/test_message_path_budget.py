"""The per-message path, guarded by a count instead of a timer.

A nice INBAC execution at n=200, f=40 exchanges exactly ``2fn`` = 16 000
messages.  What the simulator spends on each is counted here as Python-level
function calls (``sys.setprofile`` ``call`` events) — a number that repeats
exactly and needs no wall clock: 13.2 per message before broadcasts became
one kernel operation and acknowledgements were read once, 4.7 after, 3.6
once the fast decision was computed once per set of acknowledgements rather
than once per process.  The budget leaves room for refactoring, not for a
call per message coming back.
"""

from __future__ import annotations

import sys

from repro.protocols import inbac
from repro.protocols.inbac import BRANCH_FAST_DECIDE, INBAC
from repro.sim.runner import Simulation

N, F = 200, 40
CALLS_PER_MESSAGE_BUDGET = 4.5


def nice_execution():
    sim = Simulation(n=N, f=F, process_class=INBAC, trace_level="counters", max_time=1000)
    return sim.run([1] * N)


def test_calls_per_message_in_a_nice_execution():
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = nice_execution()
    finally:
        sys.setprofile(previous)
    messages = result.trace.message_count()
    assert messages == 2 * F * N
    assert calls / messages <= CALLS_PER_MESSAGE_BUDGET, (
        f"{calls} Python calls for {messages} messages "
        f"({calls / messages:.2f} per message)"
    )
    # the nice path decides from the acknowledgements as they travelled: no
    # process folded them into collection0, because nothing read it
    outsiders = [result.process(pid) for pid in range(F + 1, N + 1)]
    assert all(p.branch_history == [BRANCH_FAST_DECIDE] for p in outsiders)
    assert all(p._union_at_timeout is not None for p in outsiders)
    # ... and reading it still gives Appendix A's collection0
    last = outsiders[-1]
    assert last.collection0 == {(pid, 1) for pid in range(1, N + 1)}
    assert last._union_at_timeout is None


def test_each_acknowledgement_set_is_analysed_once(monkeypatch):
    """The outsiders share one verdict over P1..Pf's acks, the backups one
    over P1..Pf+1's: f + (f + 1) collection analyses, not one set per process."""
    runs = 0
    analyse = inbac._ack_analysis

    def counted(*args):
        nonlocal runs
        runs += 1
        return analyse(*args)

    monkeypatch.setattr(inbac, "_ack_analysis", counted)
    result = nice_execution()
    assert result.decisions() == {pid: 1 for pid in range(1, N + 1)}
    assert 0 < runs <= 2 * (F + 1)


def test_ack_memo_holds_one_execution_not_a_thousand():
    for _ in range(3):
        nice_execution()
    memo = inbac._ACK_MEMO
    assert memo.pairs == sum(len(entry[0]) for entry in memo.entries.values())
    assert 0 < memo.pairs <= N * N
    # what is kept is usable: every entry still answers for its own object
    for key, entry in memo.entries.items():
        assert key == id(entry[0])
    verdicts = inbac._VERDICTS
    assert 0 < len(verdicts) <= inbac._VERDICT_CAP
    for (n, f, full_ids, partial_ids), (full, partial, _) in verdicts.items():
        assert (n, f) == (N, F)
        assert full_ids == tuple(map(id, full))
        assert partial_ids == tuple(map(id, partial))
