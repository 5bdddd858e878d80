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

import gc
import os
import sys
import tracemalloc

import repro
from repro.protocols import inbac
from repro.protocols.inbac import BRANCH_FAST_DECIDE, INBAC
from repro.sim.runner import Simulation

N, F = 200, 40
CALLS_PER_MESSAGE_BUDGET = 4.5


def nice_execution(n=N, f=F):
    sim = Simulation(n=n, f=f, process_class=INBAC, trace_level="counters", max_time=1000)
    return sim.run([1] * n)


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
    over P1..Pf+1's: f + (f + 1) collection reads, not one set per process."""
    runs = 0
    first_votes = inbac._first_votes

    def counted(collection):
        nonlocal runs
        runs += 1
        return first_votes(collection)

    monkeypatch.setattr(inbac, "_first_votes", counted)
    result = nice_execution()
    assert result.decisions() == {pid: 1 for pid in range(1, N + 1)}
    assert 0 < runs <= 2 * (F + 1)


def retained_bytes(package_files: str) -> int:
    """Bytes still allocated from ``package_files`` after a full collection."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, package_files)]
    )
    return sum(trace.size for trace in snapshot.traces)


def test_a_finished_run_leaves_nothing_behind():
    """What the package still holds after a run is what the next one reuses
    (per-size caches, the verdict memo's few entries), not a share of every
    run so far: the readings level off after the second run."""
    package_files = os.path.join(os.path.dirname(repro.__file__), "*")
    tracemalloc.start()
    try:
        readings = []
        for _ in range(12):
            # a full collection empties the free lists, so every run starts
            # from the same ones: an object reused off a free list keeps the
            # traceback of its first allocation, wherever that was
            gc.collect()
            nice_execution(40, 4)
            readings.append(retained_bytes(package_files))
    finally:
        tracemalloc.stop()
    second = readings[1]
    assert all(reading <= 1.1 * second for reading in readings[2:]), readings
    # what the verdict memo keeps is usable: every key names its own objects
    verdicts = inbac._VERDICTS
    assert 0 < len(verdicts) <= inbac._VERDICT_CAP
    for (n, f, full_ids, partial_ids), (full, partial, _) in verdicts.items():
        assert (n, f) == (40, 4)
        assert full_ids == tuple(map(id, full))
        assert partial_ids == tuple(map(id, partial))
