"""Adversarial exploration over the transaction cluster (PR 5 tentpole).

Covers the `schedules x workloads` grid end-to-end: schedule controllers
threaded through the db stack, the cluster-invariant battery mapped onto the
property flags, the ``cluster-anomaly`` preset, counterexample shrinking, and
the determinism guarantees (no-op controllers perturb nothing; fingerprints
are identical across trace levels, fold paths and worker counts).
"""

from __future__ import annotations

import pytest

from broken_protocols import SplitBrainCommit
from repro.errors import ConfigurationError
from repro.exp import GridSpec, run_sweep, run_trial
from repro.exp.spec import make_cases
from repro.explore import (
    EXPLORATION_PRESETS,
    ScheduleTrace,
    explore,
    replay_trial,
)

#: a small contended workload: 4 transactions, 3 participants each, so the
#: split-brain bug has a non-crashed participant to mis-commit on
UNIFORM = ("uniform3", "uniform", {"transactions": 4})


def cluster_grid(schedules, seeds=(0,), protocol="2PC", max_time=150.0):
    return GridSpec(
        protocols=[protocol],
        systems=[(3, 1)],
        workloads=[UNIFORM],
        schedules=schedules,
        seeds=list(seeds),
        max_time=max_time,
    )


class TestScheduleWorkloadGrid:
    def test_controlled_cluster_trial_records_replayable_extras(self):
        trial = cluster_grid([("rw", "random-walk", {"defer_prob": 0.3})]).trials()[0]
        result = run_trial(trial, trace_level="full")
        assert result.error is None
        assert result.workload_label == "uniform3"
        assert result.schedule_label == "rw"
        assert result.extra["schedule_trace"]["strategy"] == "random-walk"
        assert result.extra["trace_fingerprint"]

    def test_noop_controller_changes_no_measurement(self):
        # a timestamp-order controller must be invisible: every measured
        # field of the cluster trial is identical to the uncontrolled run
        plain = run_trial(cluster_grid([None]).trials()[0], trace_level="full")
        controlled = run_trial(
            cluster_grid([("ts", "timestamp-order", {})]).trials()[0],
            trace_level="full",
        )
        assert controlled.error is None and plain.error is None
        assert controlled.extra["schedule_trace"]["decisions"] == []
        for attr in (
            "decisions", "decision_latencies", "first_decision", "last_decision",
            "messages_total", "messages_main", "messages_until_last_decision",
            "agreement", "validity", "termination", "execution_class",
        ):
            assert getattr(controlled, attr) == getattr(plain, attr), attr

    def test_noop_controller_aggregates_match_modulo_schedule_columns(self):
        def strip(rows):
            return [
                {k: v for k, v in row.items() if k not in ("schedule", "violations")}
                for row in rows
            ]

        plain = run_sweep(cluster_grid([None], seeds=range(3)), workers=1,
                          mode="aggregate")
        noop = run_sweep(
            cluster_grid([("ts", "timestamp-order", {})], seeds=range(3)),
            workers=1, mode="aggregate",
        )
        assert strip(plain.aggregate_rows()) == strip(noop.aggregate_rows())

    def test_fingerprints_identical_across_levels_folds_and_workers(self):
        grid = lambda: cluster_grid(
            [None, ("rw", "random-walk", {"defer_prob": 0.2, "crash_prob": 0.1})],
            seeds=range(4),
        )
        reference = run_sweep(grid(), workers=1, mode="aggregate", trace_level="full")
        for trace_level in ("full", "counters"):
            for mode in ("full", "aggregate"):
                for workers in (1, 2):
                    variant = run_sweep(
                        grid(), workers=workers, mode=mode, trace_level=trace_level
                    )
                    assert (
                        variant.aggregate_fingerprint()
                        == reference.aggregate_fingerprint()
                    ), (trace_level, mode, workers)

    def test_parallel_full_mode_reproduces_serial(self):
        serial = run_sweep(cluster_grid(["random-walk"], seeds=range(4)), workers=1)
        parallel = run_sweep(cluster_grid(["random-walk"], seeds=range(4)), workers=2)
        assert serial.fingerprint() == parallel.fingerprint()

    def test_derived_seed_is_schedule_invariant_for_cluster_trials(self):
        plain, controlled = cluster_grid([None, "random-walk"]).trials()
        assert plain.derived_seed == controlled.derived_seed
        assert plain.workload_label == controlled.workload_label

    def test_make_cases_accepts_workload_plus_schedule(self):
        trial = make_cases(
            [{
                "protocol": "2PC", "n": 3, "f": 1, "workload": UNIFORM,
                "schedule": ("cp", "crash-point", {"pid": 1, "point": 0}),
                "max_time": 150.0,
            }]
        )[0]
        result = run_trial(trial, trace_level="full")
        assert result.error is None
        assert result.execution_class == "crash-failure"


class TestClusterAnomalyHunt:
    def test_split_brain_is_found_and_shrunk_to_one_decision(self):
        report = explore(
            ("SplitBrain2PC", SplitBrainCommit), n=3, f=1, budget=24,
            workload=UNIFORM, preset="cluster-anomaly", max_time=150.0,
        )
        assert not report.errors, report.errors[:1]
        assert report.strategy == "cluster-anomaly"
        assert report.meta["preset"] == "cluster-anomaly"
        violations = report.violations_of("agreement")
        assert violations, "the atomicity violation was not found"
        hit = violations[0]
        # the invariant detail names the split transaction
        assert any("committed on partitions" in d for d in hit.details)
        # 1-minimal: a single crash decision suffices
        assert hit.shrunk is not None and len(hit.shrunk) == 1
        assert hit.shrunk.decisions[0][1] == "crash"

    def test_shrunk_cluster_counterexample_replays_byte_identically(self):
        report = explore(
            ("SplitBrain2PC", SplitBrainCommit), n=3, f=1, budget=24,
            workload=UNIFORM, preset="cluster-anomaly", max_time=150.0,
        )
        hit = report.violations_of("agreement")[0]
        grid = cluster_grid(
            [("cp", "crash-point", {})], seeds=[hit.base_seed],
            protocol=("SplitBrain2PC", SplitBrainCommit),
        )
        stored = ScheduleTrace.from_json(hit.shrunk.to_json())
        replays = [replay_trial(grid.trials()[0], stored) for _ in range(2)]
        assert {r.extra["trace_fingerprint"] for r in replays} == {
            hit.shrunk_fingerprint
        }
        assert all(not r.agreement for r in replays)

    @pytest.mark.parametrize("protocol", ["2PC", "INBAC", "PaxosCommit"])
    def test_real_protocols_pass_the_battery_clean(self, protocol):
        report = explore(
            protocol, n=3, f=1, budget=16,
            workload=UNIFORM, preset="cluster-anomaly", max_time=150.0,
        )
        assert not report.errors, report.errors[:1]
        assert report.violation_count == 0, [v.describe() for v in report.violations]

    def test_random_walk_over_cluster_is_clean_for_inbac(self):
        report = explore(
            "INBAC", n=3, f=1, budget=10, strategy="random-walk",
            workload=("bank", "bank-transfer", {"transactions": 4}),
            max_time=150.0,
        )
        assert not report.errors, report.errors[:1]
        assert report.violation_count == 0

    def test_termination_hunt_finds_blocking_2pc_in_the_cluster(self):
        # opting into termination: crashing the embedded 2PC coordinator (or
        # the client) leaves transactions unfinished, and the schedule shrinks
        # to a single crash decision
        report = explore(
            "2PC", n=3, f=1, budget=16,
            workload=UNIFORM, preset="cluster-anomaly",
            properties=("termination",), max_time=150.0,
        )
        assert not report.errors, report.errors[:1]
        violations = report.violations_of("termination")
        assert violations
        assert len(violations[0].shrunk) == 1

    def test_invariant_alias_property_names(self):
        report = explore(
            ("SplitBrain2PC", SplitBrainCommit), n=3, f=1, budget=24,
            workload=UNIFORM, preset="cluster-anomaly",
            properties=("atomicity",), max_time=150.0,
        )
        assert report.violation_count > 0

    def test_preset_validation(self):
        assert "cluster-anomaly" in EXPLORATION_PRESETS
        with pytest.raises(ConfigurationError) as err:
            explore("2PC", n=3, f=1, budget=4, preset="cluster-anomaly")
        assert "workload=" in str(err.value)
        with pytest.raises(ConfigurationError) as err:
            explore("2PC", n=3, f=1, budget=4, workload=UNIFORM, preset="nope")
        assert "cluster-anomaly" in str(err.value)
        # a preset replaces the strategy: combining the two must be loud
        with pytest.raises(ConfigurationError) as err:
            explore(
                "2PC", n=3, f=1, budget=4, workload=UNIFORM,
                preset="cluster-anomaly", strategy="delay-reorder",
            )
        assert "cannot be combined" in str(err.value)

    def test_malformed_workload_params_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            GridSpec(
                protocols=["2PC"], systems=[(3, 1)],
                workloads=[("w", "uniform", 4)],  # params must be a dict
            )
        assert "params_dict" in str(err.value)

    def test_violation_reducer_streams_cluster_schedule_cells(self):
        # huge cluster budgets can stream through a SweepAggregate: the
        # 8-coordinate explored-cluster keys (workload + schedule) fold into
        # per-cell rows, and the broken fixture's cells carry the counts
        streamed = run_sweep(
            cluster_grid(
                [None, ("cp2", "crash-point", {"pid": 2, "point": 4})],
                seeds=range(2),
                protocol=("SplitBrain2PC", SplitBrainCommit),
            ),
            workers=1,
            mode="aggregate",
        )
        assert streamed.error_count == 0
        rows = {row["schedule"]: row for row in streamed.aggregate_rows()}
        assert rows["-"]["workload"] == "uniform3"
        assert rows["-"]["violations"] == 0
        assert rows["cp2"]["violations"] == 2
        samples = streamed.sample_violations
        assert len(samples) == 2
        # atomicity lives in the A slot
        assert all("agreement" in s["properties"] for s in samples)
        assert "schedule_trace" in samples[0]

    def test_preset_covers_every_process_point_major(self):
        from repro.explore.driver import _crash_points

        extra_pids, gaps, label = EXPLORATION_PRESETS["cluster-anomaly"]
        specs, seeds = _crash_points(8, label, range(1, 3 + 1 + extra_pids), gaps)
        assert seeds == [0]
        assert len(specs) == 8
        # the first n+1 specs hit every partition and the client at point 0
        first_round = [dict(s.params) for s in specs[:4]]
        assert [p["pid"] for p in first_round] == [1, 2, 3, 4]
        assert all(p["point"] == 0 for p in first_round)
        labels = [s.label for s in specs]
        assert len(set(labels)) == len(labels)
