"""Tests for the schedules axis and the mixed-vote (seeded) patterns."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    GridSpec,
    ScheduleSpec,
    mixed_votes,
    run_sweep,
    run_trial,
)
from repro.exp.spec import coerce_axis, make_cases


class TestScheduleAxis:
    def test_axis_expansion_and_labels(self):
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(5, 2)],
            schedules=[None, "random-walk", ("cp", "crash-point", {"point": 2})],
            seeds=[0, 1],
        )
        trials = grid.trials()
        assert grid.size == len(trials) == 6
        labels = [t.schedule_label for t in trials]
        assert labels == ["-", "-", "random-walk", "random-walk", "cp", "cp"]
        spec = trials[4].schedule
        assert isinstance(spec, ScheduleSpec)
        assert spec.name == "crash-point"
        assert dict(spec.params) == {"point": 2}

    def test_derived_seed_is_independent_of_the_schedule(self):
        # the schedule perturbs event order of an otherwise-fixed execution:
        # same cell + seed must mean same derived seed across strategies,
        # which is also what lets a stored schedule replay against its trial
        grid = GridSpec(
            protocols=["2PC"], systems=[(5, 2)],
            schedules=[None, "random-walk"], seeds=[7],
        )
        plain, explored = grid.trials()
        assert plain.derived_seed == explored.derived_seed

    def test_schedule_cells_aggregate_separately_with_violation_counts(self):
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(5, 2)],
            schedules=["timestamp-order", ("rw", "random-walk", {"crash_prob": 0.1})],
            seeds=range(15),
        )
        rows = run_sweep(grid, workers=1, mode="aggregate").aggregate_rows()
        assert len(rows) == 2
        by_schedule = {r["schedule"]: r for r in rows}
        assert by_schedule["timestamp-order"]["violations"] == 0
        assert by_schedule["rw"]["violations"] > 0
        assert "T" not in by_schedule["rw"]["properties"]

    def test_mixed_axis_rows_are_column_homogeneous(self):
        # schedules=[None, strategy]: the unexplored cell's row must carry
        # placeholder schedule columns so table renderers keep the columns
        rows = run_sweep(
            GridSpec(
                protocols=["2PC"], systems=[(5, 2)],
                schedules=[None, ("rw", "random-walk", {"crash_prob": 0.1})],
                seeds=range(8),
            ),
            workers=1, mode="aggregate",
        ).aggregate_rows()
        assert [set(r) for r in rows][0] == set(rows[1])
        by_schedule = {r["schedule"]: r for r in rows}
        assert by_schedule["-"]["violations"] == 0
        assert by_schedule["rw"]["violations"] > 0

    def test_unscheduled_rows_have_no_schedule_column(self):
        rows = run_sweep(
            GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=[0]), workers=1
        ).aggregate_rows()
        assert "schedule" not in rows[0]
        assert "violations" not in rows[0]

    def test_schedule_trials_carry_replayable_extras(self):
        trial = make_cases(
            [{"protocol": "2PC", "n": 5, "f": 2,
              "schedule": ("rw", "random-walk", {"crash_prob": 0.2})}]
        )[0]
        result = run_trial(trial)
        assert result.error is None
        assert result.schedule_label == "rw"
        assert "schedule_trace" in result.extra
        assert "trace_fingerprint" in result.extra
        assert result.extra["schedule_trace"]["strategy"] == "random-walk"

    def test_duplicate_schedule_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(protocols=["2PC"], schedules=["random-walk", "random-walk"])

    def test_workload_and_schedule_axes_compose(self):
        # schedules x workloads is a supported grid (PR 5): a cluster trial
        # carrying a ScheduleSpec runs under the schedule controller
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(3, 1)],
            workloads=["bank-transfer"],
            schedules=[None, "random-walk"],
            seeds=[0, 1],
        )
        trials = grid.trials()
        assert grid.size == len(trials) == 4
        assert {t.schedule_label for t in trials} == {"-", "random-walk"}
        assert all(t.workload is not None for t in trials)

    def test_workload_times_multi_votes_error_names_both_fields(self):
        # regression for the improved rejection message: the error must name
        # both offending axes (with their labels) and the supported
        # alternative, not just assert incompatibility
        with pytest.raises(ConfigurationError) as err:
            GridSpec(
                protocols=["2PC"],
                systems=[(3, 1)],
                workloads=[("bank", "bank-transfer", {})],
                votes=["all-yes", "all-no"],
            )
        message = str(err.value)
        assert "workloads=['bank']" in message
        assert "votes=['all-yes', 'all-no']" in message
        assert "separate, workload-free grid" in message

    def test_coerce_schedule_shorthands(self):
        assert coerce_axis("schedules", None) is None
        spec = coerce_axis("schedules", "delay-reorder")
        assert (spec.label, spec.name) == ("delay-reorder", "delay-reorder")
        spec = coerce_axis("schedules", ("lbl", "crash-point"))
        assert (spec.label, spec.name, spec.params) == ("lbl", "crash-point", ())
        with pytest.raises(ConfigurationError):
            coerce_axis("schedules", ("a", "b", {}, "extra"))
        with pytest.raises(ConfigurationError):
            coerce_axis("schedules", 42)


class TestMixedVotes:
    def test_votes_are_a_pure_function_of_the_trial(self):
        grid = GridSpec(
            protocols=["2PC"], systems=[(6, 2)],
            votes=[mixed_votes(0.1)], seeds=range(12),
        )
        once = run_sweep(grid, workers=1)
        again = run_sweep(grid, workers=2)
        assert once.fingerprint() == again.fingerprint()
        # different seeds draw genuinely different vote mixes: at p=0.1 some
        # of these twelve trials commit (all drew yes) and some abort
        outcomes = {t.all_committed for t in once}
        assert outcomes == {True, False}

    def test_mixed_votes_build_from_derived_seed(self):
        spec = mixed_votes(0.3)
        assert (spec.label, spec.name) == ("mixed(0.3)", "mixed")
        assert spec.build(8, 42) == spec.build(8, 42)
        assert spec.build(8, 42) != spec.build(8, 43) or spec.build(
            8, 1
        ) != spec.build(8, 2)

    def test_named_string_patterns(self):
        one_no = coerce_axis("votes", "one-no:3")
        assert one_no.build(5, 0) == [1, 1, 0, 1, 1]
        mixed = coerce_axis("votes", "mixed:0.25")
        assert mixed == coerce_axis("votes", ("mixed:0.25", "mixed", {"no_probability": 0.25}))
        votes = mixed.build(10, 5)
        assert set(votes) <= {0, 1} and len(votes) == 10
        with pytest.raises(ConfigurationError):
            coerce_axis("votes", "one-no:zero")
        with pytest.raises(ConfigurationError):
            coerce_axis("votes", "mixed:1.5")
        with pytest.raises(ConfigurationError):
            coerce_axis("votes", "unknown-pattern")

    def test_vote_spec_checks_its_name_and_parameters_when_constructed(self):
        from repro.exp import VoteSpec

        assert VoteSpec("p3", "one-no", (("pid", 3),)).build(4, 0) == [1, 1, 0, 1]
        with pytest.raises(ConfigurationError, match="votes"):
            VoteSpec("x", "no-such-pattern")
        with pytest.raises(ConfigurationError, match="pid"):
            VoteSpec("x", "one-no")

    def test_mixed_votes_commit_rate_tracks_probability(self):
        # with P(no)=0 every trial commits; with P(no)=0.8 almost none do
        def rate(p):
            agg = run_sweep(
                GridSpec(
                    protocols=["2PC"], systems=[(5, 2)],
                    votes=[mixed_votes(p)], seeds=range(20),
                ),
                workers=1, mode="aggregate",
            )
            return agg.aggregate_rows()[0]["commit_rate"]

        assert rate(0.0) == 1.0
        assert rate(0.8) < 0.3
