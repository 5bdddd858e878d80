"""Tests for the exploration driver: search, cell-aware checking, shrinking."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exp import GridSpec, run_sweep
from repro.explore import ScheduleTrace, explore, replay_trial
from repro.protocols.registry import all_protocols


class TestTwoPhaseCommitCounterexample:
    def test_random_walk_finds_and_shrinks_coordinator_crash(self):
        report = explore("2PC", n=5, f=2, budget=60, strategy="random-walk", seed=3)
        assert report.found
        assert not report.errors
        violations = report.violations_of("termination")
        assert violations
        first = violations[0]
        assert first.execution_class == "crash-failure"
        assert first.shrunk is not None
        # the minimal counterexample is tiny: the coordinator crash alone
        # blocks 2PC, so shrinking must land well under 5 decisions
        assert len(first.shrunk) <= 5
        kinds = {kind for _, kind, _ in first.shrunk.decisions}
        assert "crash" in kinds
        assert any(arg == 1 for _, kind, arg in first.shrunk.decisions if kind == "crash")
        assert first.shrunk_fingerprint is not None

    def test_crash_point_enumeration_finds_it_with_one_decision(self):
        report = explore("2PC", n=5, f=2, budget=20, strategy="crash-point")
        violations = report.violations_of("termination")
        assert violations
        assert all(len(v.schedule) == 1 for v in violations)
        assert all(kind == "crash" for v in violations
                   for _, kind, _ in v.schedule.decisions)

    def test_explicit_crash_point_runs_exactly_one_schedule(self):
        # crash-point is seed-insensitive: repeating one point across the
        # whole budget would re-run identical executions
        report = explore(
            "2PC", n=5, f=2, budget=200, strategy="crash-point",
            params={"pid": 1, "point": 5},
        )
        assert report.schedules_run == 1
        assert report.violations_of("termination")

    def test_property_filter_restricts_the_hunt(self):
        report = explore(
            "2PC", n=5, f=2, budget=40, strategy="random-walk", seed=3,
            properties=("agreement",),
        )
        # 2PC never loses agreement, so an agreement-only hunt stays empty
        assert not report.found

    def test_summary_row_shape(self):
        report = explore("2PC", n=5, f=2, budget=30, strategy="random-walk", seed=3)
        row = report.summary_row()
        assert row["protocol"] == "2PC"
        assert row["violations"] == report.violation_count
        assert row["violated"] == "termination"
        assert row["min_counterexample"] <= 5


class TestIndulgentProtocolsSurvive:
    @pytest.mark.parametrize("name", ["INBAC", "PaxosCommit", "(2n-2+f)NBAC"])
    def test_no_violations_within_resilience_bound(self, name):
        report = explore(name, n=5, f=2, budget=50, strategy="random-walk", seed=11)
        assert not report.errors
        assert report.violation_count == 0, [v.describe() for v in report.violations]


class TestExplorationBattery:
    """Every registered protocol, checked against its own problem cell."""

    def test_cell_aware_battery_over_the_whole_registry(self):
        for name, info in sorted(all_protocols().items()):
            report = explore(
                name, n=5, f=2, budget=30, strategy="random-walk", seed=5,
                cell=info.cell,
            )
            assert not report.errors, (name, report.errors[:1])
            if info.cell is None:
                # 2PC (the only cell-less protocol) is blocking by design:
                # exploration must expose the termination violation
                assert report.violations_of("termination"), name
            else:
                # a protocol must deliver whatever its cell requires for the
                # execution class each explored schedule produced
                assert report.violation_count == 0, (
                    name, [v.describe() for v in report.violations[:2]]
                )

    def test_delay_reorder_battery_stays_admissible(self):
        for name in ("INBAC", "1NBAC", "avNBAC"):
            info = all_protocols()[name]
            report = explore(
                name, n=5, f=2, budget=25, strategy="delay-reorder",
                params={"k": 3}, seed=2, cell=info.cell,
            )
            assert not report.errors
            assert report.violation_count == 0, name


class TestReplayDeterminism:
    def test_replay_matches_serial_and_pool_execution(self):
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(5, 2)],
            schedules=[("rw", "random-walk", {"crash_prob": 0.1})],
            seeds=range(12),
        )
        serial = run_sweep(grid, workers=1)
        pooled = run_sweep(grid, workers=3)
        fp_serial = [t.extra["trace_fingerprint"] for t in serial]
        fp_pooled = [t.extra["trace_fingerprint"] for t in pooled]
        assert fp_serial == fp_pooled
        for trial, result in zip(grid.trials(), serial):
            stored = ScheduleTrace.from_jsonable(result.extra["schedule_trace"])
            replayed = replay_trial(trial, stored)
            assert replayed.error is None
            assert (
                replayed.extra["trace_fingerprint"]
                == result.extra["trace_fingerprint"]
            )

    def test_explore_is_deterministic_across_worker_counts(self):
        kwargs = dict(budget=30, strategy="random-walk", seed=9)
        serial = explore("2PC", n=5, f=2, workers=1, shrink=False, **kwargs)
        pooled = explore("2PC", n=5, f=2, workers=3, shrink=False, **kwargs)
        assert [v.fingerprint for v in serial.violations] == [
            v.fingerprint for v in pooled.violations
        ]
        assert [v.schedule for v in serial.violations] == [
            v.schedule for v in pooled.violations
        ]


class TestViolationFoldReducer:
    def test_streaming_violation_counts_match_full_mode(self):
        grid = lambda: GridSpec(
            protocols=["2PC", "INBAC"],
            systems=[(5, 2)],
            schedules=[("rw", "random-walk", {"crash_prob": 0.1})],
            seeds=range(25),
        )
        streamed = run_sweep(grid(), workers=1, mode="aggregate")
        full = run_sweep(grid(), workers=1)
        expected = sum(1 for t in full if t.broken())
        rows = {r["protocol"]: r for r in streamed.aggregate_rows()}
        assert rows["INBAC"]["violations"] + rows["2PC"]["violations"] == expected
        assert rows["INBAC"]["violations"] == 0
        assert rows["2PC"]["violations"] > 0
        # retained samples are the first violating trials, and they replay:
        # they carry the full schedule trace
        samples = streamed.sample_violations
        assert [s["index"] for s in samples] == [t.index for t in full if t.broken()][:10]
        assert all(s["properties"] == ("termination",) for s in samples)
        trials = grid().trials()
        for sample in samples[:2]:
            schedule = ScheduleTrace.from_jsonable(sample["schedule_trace"])
            replayed = replay_trial(trials[sample["index"]], schedule)
            assert replayed.broken() == sample["properties"]


class TestDriverValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            explore("2PC", n=5, f=2, budget=0)

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError):
            explore("2PC", n=5, f=2, budget=5, properties=("liveness",))

    def test_unknown_strategy_rejected(self):
        # at construction, like an unknown delay model: not one error per trial
        with pytest.raises(ConfigurationError, match="unknown schedule strategy"):
            explore("2PC", n=5, f=2, budget=3, strategy="no-such")
