"""Fingerprint regression tests for the INBAC payload canonicalisation fix.

INBAC's help protocol used to ship ``collection0``/``collection1`` as bare
``frozenset`` values inside ``HELPED`` and phase-0 ``C`` acks, and folded
``backed_up``/``collections`` sets in hash order when merging vote
collections.  A set's repr order is implementation-defined (and
``PYTHONHASHSEED``-dependent for str elements), and ``Trace._canonical``
serialises payloads via ``repr`` — so full-level fingerprints of help-path
executions could differ across processes.  The payloads are now
``tuple(sorted(...))`` and the folds iterate ``sorted(...)``; these tests pin
the resulting bytes.
"""

from __future__ import annotations

from repro.sanitizer import _find_unordered
from repro.protocols import INBAC
from repro.sim import FaultPlan, Simulation

N, F = 5, 2

#: both backups crash at 0 — outsiders get no ack, ask for HELP, and the
#: survivors answer with their (previously frozenset-valued) collections
HELP_PATH_PLAN = {1: 0.0, 2: 0.0}

#: byte-pinned fingerprint of the help-path execution below; identical under
#: every PYTHONHASHSEED because no payload repr depends on hash order anymore
GOLDEN_HELP_PATH = "f88e795f8c2f58ae014f0a4fd23bded783f46ae86f2b152b469a79e023debe30"


def run_help_path():
    sim = Simulation(
        n=N,
        f=F,
        process_class=INBAC,
        fault_plan=FaultPlan.crashes_at(HELP_PATH_PLAN),
        seed=3,
    )
    return sim.run(votes=[1] * N)


class TestHelpPathPayloads:
    def test_help_path_is_exercised(self):
        trace = run_help_path().trace
        kinds = {m.payload[0] for m in trace.messages if isinstance(m.payload, tuple)}
        assert {"HELP", "HELPED", "C"} <= kinds

    def test_no_unordered_value_in_any_payload(self):
        trace = run_help_path().trace
        for message in trace.messages:
            assert _find_unordered(message.payload) is None, message.payload

    def test_collection_payloads_are_sorted_tuples(self):
        trace = run_help_path().trace
        collections = [
            m.payload[1]
            for m in trace.messages
            if isinstance(m.payload, tuple) and m.payload[0] in ("HELPED", "C")
        ]
        assert collections
        for collection in collections:
            assert isinstance(collection, tuple)
            assert list(collection) == sorted(collection)

    def test_fingerprint_is_byte_pinned(self):
        assert run_help_path().trace.fingerprint() == GOLDEN_HELP_PATH

    def test_fingerprint_stable_across_runs(self):
        assert (
            run_help_path().trace.fingerprint()
            == run_help_path().trace.fingerprint()
        )
