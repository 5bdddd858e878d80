"""One verdict per trial: every fold and view reads ``TrialResult.broken()``.

An errored trial demonstrated no property, so it counts against
``solved_rate``, ``properties``, the robustness labels and an explored
cell's ``violations`` in both sweep modes.  ``SweepAggregate`` keeps the
first violating explored schedules, and a pooled sweep keeps the same ones
as a serial sweep.
"""

from __future__ import annotations

import pytest

from repro.analysis import properties_by_fault_rows
from repro.exp import GridSpec, TrialResult, run_sweep
from repro.protocols.registry import all_protocols
from repro.protocols.two_phase import TwoPhaseCommit
from repro.sim.faults import FaultPlan


class Broken(TwoPhaseCommit):
    """Raises on its first step, so every trial of it errors."""

    protocol_name = "Broken"

    def on_propose(self, value):
        raise RuntimeError("broken on purpose")


def trial(**fields):
    base = dict(
        index=0, protocol="P", n=3, f=1, delay_label="U=1",
        fault_label="failure-free", votes_label="all-yes",
        base_seed=0, derived_seed=0,
    )
    return TrialResult(**{**base, **fields})


class TestBroken:
    def test_a_clean_trial_broke_nothing(self):
        assert trial().broken() == ()

    def test_false_flags_in_a_v_t_order(self):
        t = trial(termination=False, agreement=False)
        assert t.broken() == ("agreement", "termination")

    def test_an_errored_trial_demonstrated_nothing(self):
        t = trial(error="Traceback ...")
        assert t.broken() == ("agreement", "validity", "termination")


class TestErroredTrials:
    @pytest.mark.parametrize("mode", ["full", "aggregate"])
    def test_an_errored_protocol_does_not_solve_nbac(self, mode):
        sweep = run_sweep(
            GridSpec(protocols=[("Broken", Broken)], systems=[(3, 1)], seeds=range(3)),
            workers=1,
            mode=mode,
        )
        errors = sweep.errors() if mode == "full" else sweep.sample_errors
        assert len(errors) == 3
        [row] = sweep.aggregate_rows()
        assert row["trials"] == 3
        assert row["solved_rate"] == 0.0
        assert row["properties"] == ""
        assert sweep.robustness_rows() == [{"protocol": "Broken", "failure-free": ""}]

    def test_errored_explored_trials_are_violations_but_never_samples(self):
        sweep = run_sweep(
            GridSpec(
                protocols=[("Broken", Broken)], systems=[(3, 1)], seeds=range(3),
                schedules=[("rw", "random-walk", {})],
            ),
            workers=1,
            mode="aggregate",
        )
        [row] = sweep.aggregate_rows()
        assert row["violations"] == 3
        assert sweep.error_count == 3
        assert sweep.sample_violations == []


def explored_grid():
    return GridSpec(
        protocols=["INBAC", "2PC", "3PC"],
        systems=[(5, 2), (4, 1)],
        schedules=[("rw", "random-walk", {"crash_prob": 0.1, "defer_prob": 0.3})],
        seeds=range(40),
    )


class TestSampleViolations:
    def test_pooled_sweep_keeps_the_serial_samples(self):
        serial = run_sweep(explored_grid(), workers=1, mode="aggregate")
        pooled = run_sweep(explored_grid(), workers=2, mode="aggregate")
        assert pooled.meta["fold"] == "chunk"
        assert pooled.sample_violations == serial.sample_violations
        # the samples come from more than one worker-folded chunk, and the
        # later chunk held more violations than the cap left room for
        chunks = {s["index"] // pooled.meta["chunk_size"] for s in pooled.sample_violations}
        assert len(chunks) > 1
        assert pooled.aggregate_fingerprint() == serial.aggregate_fingerprint()

    def test_samples_are_the_first_violating_trials_in_index_order(self):
        streamed = run_sweep(explored_grid(), workers=1, mode="aggregate")
        full = run_sweep(explored_grid(), workers=1, trace_level="counters")
        violating = [t for t in full if t.error is None and t.broken()]
        assert len(violating) > streamed.MAX_SAMPLE_VIOLATIONS
        assert streamed.sample_violations == [
            {
                "index": t.index,
                "key": t.key(),
                "base_seed": t.base_seed,
                "properties": t.broken(),
                "schedule_trace": t.extra["schedule_trace"],
                "trace_fingerprint": t.extra["trace_fingerprint"],
            }
            for t in violating[: streamed.MAX_SAMPLE_VIOLATIONS]
        ]


class TestPropertiesByFault:
    def test_a_streamed_sweep_gives_the_full_rows(self):
        grid = lambda: GridSpec(
            protocols=sorted(all_protocols()),
            systems=[(5, 2)],
            faults=[
                ("crash of P1 at 0", FaultPlan.crash(1, at=0.0)),
                ("late messages from P1", FaultPlan.delay_messages(src=1, delay=40.0)),
            ],
            max_time=400,
        )
        full = properties_by_fault_rows(run_sweep(grid(), workers=1))
        streamed = properties_by_fault_rows(run_sweep(grid(), workers=1, mode="aggregate"))
        assert streamed == full
        by_protocol = {row["protocol"]: row for row in full}
        # 2PC blocks when its coordinator crashes
        assert "T" not in by_protocol["2PC"]["crash of P1 at 0"]
