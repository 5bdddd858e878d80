"""Tests for the streaming aggregate-only sweep mode (:mod:`repro.exp`).

The contract pillars:

* **streaming == in-memory** — ``mode="aggregate"`` produces byte-identical
  aggregate tables (rows, fingerprints, robustness summaries) to the
  ``mode="full"`` path on the same grid and seeds;
* **parallel == serial** in aggregate mode, exactly as in full mode;
* **bounded memory** — the streaming path never retains trial results (each
  one is garbage-collected before the next fold) and a ~50k-trial sweep runs
  through per-cell accumulators only;
* **cluster workload axis** — :mod:`repro.db` transaction batteries run as
  grid trials and aggregate like any other coordinate.
"""

from __future__ import annotations

import weakref

import pytest

from repro.db import ClusterConfig, run_cluster
from repro.errors import ConfigurationError
from repro.exp import (
    GridSpec,
    SweepAggregate,
    SweepResult,
    register_workload,
    run_sweep,
)
from repro.sim.faults import FaultPlan
from repro.workloads import bank_transfer_workload


#: what the "test-probe" workload builder was called with, in call order
PROBE_CALLS = []


def probe_workload(n, seed, transfers):
    PROBE_CALLS.append((n, seed, transfers))
    return bank_transfer_workload(
        num_transfers=transfers, num_partitions=n, seed=13
    ).transactions


# at import time, as a registration must be
register_workload("test-probe", probe_workload)


def stochastic_grid(seeds=(0, 1, 2)):
    """A grid whose aggregates depend on real latency distributions."""
    return GridSpec(
        protocols=["INBAC", "2PC", "PaxosCommit"],
        systems=[(4, 1), (5, 2)],
        delays=[None, ("uniform", "uniform", {"lo": 0.2, "hi": 1.0})],
        faults=[None, ("crash P1", FaultPlan.crash(1, at=0.0))],
        seeds=list(seeds),
    )


# --------------------------------------------------------------------------- #
# streaming == in-memory
# --------------------------------------------------------------------------- #
class TestStreamingEquivalence:
    def test_aggregate_rows_byte_identical_to_full_mode(self):
        full = run_sweep(stochastic_grid(), workers=1)
        agg = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        assert isinstance(agg, SweepAggregate)
        assert agg.aggregate_rows() == full.aggregate_rows()
        assert agg.aggregate_fingerprint() == full.aggregate_fingerprint()

    def test_robustness_rows_identical_to_full_mode(self):
        full = run_sweep(stochastic_grid(), workers=1)
        agg = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        assert agg.robustness_rows() == full.robustness_rows()

    def test_counts_and_cells(self):
        grid = stochastic_grid()
        agg = run_sweep(grid, workers=1, mode="aggregate")
        assert len(agg) == grid.size
        # one accumulator per (protocol, system, delay, fault) cell; the
        # seed axis is folded into the cells rather than multiplying them
        assert agg.cell_count == grid.size // len(grid.seeds)
        assert agg.error_count == 0 and agg.sample_errors == []

    def test_error_trials_are_counted_and_sampled(self):
        grid = GridSpec(
            protocols=["INBAC"],
            systems=[(5, 2)],
            votes=[("truncated", [1, 1])],  # wrong arity: every trial fails
            seeds=[0, 1, 2],
        )
        agg = run_sweep(grid, workers=1, mode="aggregate")
        full = run_sweep(grid, workers=1)
        assert agg.error_count == 3
        assert agg.sample_errors and "ConfigurationError" in agg.sample_errors[0]
        # failed trials aggregate exactly as the in-memory path aggregates them
        assert agg.aggregate_rows() == full.aggregate_rows()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(stochastic_grid(), workers=1, mode="streaming")

    def test_parallel_aggregate_reproduces_serial_exactly(self):
        serial = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        parallel = run_sweep(stochastic_grid(), workers=3, mode="aggregate")
        assert serial.meta["mode"] == "serial"
        if parallel.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert parallel.aggregate_rows() == serial.aggregate_rows()
        assert parallel.aggregate_fingerprint() == serial.aggregate_fingerprint()
        assert parallel.robustness_rows() == serial.robustness_rows()

    def test_meta_records_streaming_mode(self):
        agg = run_sweep(stochastic_grid(seeds=(0,)), workers=1, mode="aggregate")
        assert agg.meta["sweep_mode"] == "aggregate"
        assert agg.meta["trials"] == stochastic_grid(seeds=(0,)).size
        full = run_sweep(stochastic_grid(seeds=(0,)), workers=1)
        assert full.meta["sweep_mode"] == "full"

    def test_sweep_result_is_a_fold(self):
        full = run_sweep(stochastic_grid(seeds=(0,)), workers=1)
        assert SweepResult().trials == []
        # partials folded per slice and merged in slice order rebuild the list
        pieced = SweepResult()
        for start in range(0, len(full), 5):
            part = SweepResult()
            for trial in full.trials[start:start + 5]:
                part.fold(trial)
            pieced.merge(part)
        assert [t.index for t in pieced] == list(range(len(full)))
        assert pieced.fingerprint() == full.fingerprint()

    def test_sweep_result_views_read_a_sweep_aggregate(self):
        full = run_sweep(stochastic_grid(seeds=(0,)), workers=1)
        agg = SweepAggregate()
        for trial in full:
            agg.fold(trial)
        assert full.aggregate_rows() == agg.aggregate_rows()
        assert full.robustness_rows() == agg.robustness_rows()
        assert full.aggregate_fingerprint() == agg.aggregate_fingerprint()
        assert not hasattr(full, "groups")


# --------------------------------------------------------------------------- #
# bounded memory
# --------------------------------------------------------------------------- #
class _RetentionProbe:
    """Reducer that proves each TrialResult is dropped before the next fold."""

    def __init__(self):
        self.folded = 0
        self.previous_ref = None
        self.leaked = 0

    def fold(self, trial):
        if self.previous_ref is not None and self.previous_ref() is not None:
            self.leaked += 1
        self.previous_ref = weakref.ref(trial)
        self.folded += 1


class TestBoundedMemory:
    def test_streaming_does_not_retain_trial_results(self):
        # CPython refcounting frees each result as soon as the engine drops
        # it; if the serial streaming path kept a hidden list, every previous
        # weakref would still be alive at the next fold
        probe = _RetentionProbe()
        grid = GridSpec(protocols=["INBAC", "2PC"], systems=[(5, 2)], seeds=range(10))
        returned = run_sweep(grid, workers=1, reducer=probe)
        assert returned is probe
        assert probe.folded == grid.size
        assert probe.leaked == 0

    def test_custom_reducer_gets_meta(self):
        probe = _RetentionProbe()
        probe.meta = {}
        run_sweep(GridSpec(protocols=["2PC"], systems=[(4, 1)]), workers=1, reducer=probe)
        assert probe.meta["sweep_mode"] == "aggregate"

    def test_50k_trial_sweep_in_bounded_memory(self):
        # the acceptance-scale smoke: >= 50k trials, no per-trial storage —
        # the aggregate holds one accumulator for the single grid cell, and
        # the latency digest stays tiny because FixedDelay quantises latencies
        grid = GridSpec(protocols=["0NBAC"], systems=[(2, 1)], seeds=range(50_000))
        agg = run_sweep(grid, mode="aggregate")
        assert len(agg) == 50_000
        assert agg.error_count == 0
        assert agg.cell_count == 1
        assert not hasattr(agg, "trials")
        (row,) = agg.aggregate_rows()
        assert row["trials"] == 50_000
        assert row["commit_rate"] == 1.0
        assert row["properties"] == "AVT"
        # exact-digest percentiles over 50k latencies from O(1) distinct values
        cell = next(iter(agg._cells.values()))
        assert len(cell.latency_counts) <= 4


# --------------------------------------------------------------------------- #
# cluster workload axis
# --------------------------------------------------------------------------- #
class TestClusterWorkloadAxis:
    def workload(self):
        return bank_transfer_workload(num_transfers=6, num_partitions=4, seed=13)

    def cluster_grid(self, **overrides):
        params = dict(
            protocols=["2PC", "INBAC"],
            systems=[(4, 1)],
            workloads=[("bank", self.workload())],
            seeds=[7],
            max_time=2000.0,
        )
        params.update(overrides)
        return GridSpec(**params)

    def test_cluster_trials_match_direct_run_cluster(self):
        sweep = run_sweep(self.cluster_grid(), workers=1)
        assert not sweep.errors(), [t.error for t in sweep.errors()]
        for trial in sweep.trials:
            config = ClusterConfig(
                num_partitions=4,
                commit_protocol=trial.protocol,
                commit_f=1,
                seed=trial.derived_seed,
            )
            report = run_cluster(config, self.workload().transactions)
            assert trial.extra["committed"] == report.committed
            assert trial.extra["mean_latency"] == report.mean_commit_latency()
            assert trial.messages_total == report.messages_total
            assert trial.termination and trial.extra["incomplete"] == 0

    def test_cluster_trial_shape(self):
        sweep = run_sweep(self.cluster_grid(protocols=["INBAC"]), workers=1)
        (trial,) = sweep.trials
        assert trial.workload_label == "bank"
        assert trial.execution_class == "failure-free"
        # one decision entry per transaction, all commits
        assert len(trial.decisions) == 6
        assert trial.all_committed
        assert trial.decision_latencies == sorted(trial.decision_latencies)
        assert trial.last_decision == trial.decision_latencies[-1]

    def test_cluster_aggregate_mode_matches_full(self):
        full = run_sweep(self.cluster_grid(), workers=1)
        agg = run_sweep(self.cluster_grid(), workers=1, mode="aggregate")
        assert agg.aggregate_rows() == full.aggregate_rows()
        assert agg.aggregate_fingerprint() == full.aggregate_fingerprint()
        # the workload is a first-class coordinate of the aggregate rows
        assert {row["workload"] for row in agg.aggregate_rows()} == {"bank"}

    def test_workload_axis_multiplies_grid_size(self):
        two = self.cluster_grid(
            workloads=[("bank", self.workload()), ("bank-2", self.workload())]
        )
        assert two.size == 2 * self.cluster_grid().size
        labels = {t.workload_label for t in two.trials()}
        assert labels == {"bank", "bank-2"}
        # different workload labels derive different trial seeds
        seeds = {t.workload_label: t.derived_seed for t in two.trials() if t.protocol.label == "2PC"}
        assert seeds["bank"] != seeds["bank-2"]

    def test_registered_workload_builder_receives_n_seed_and_params(self):
        del PROBE_CALLS[:]
        sweep = run_sweep(
            self.cluster_grid(
                protocols=["2PC"],
                workloads=[("probe", "test-probe", {"transfers": 6})],
            ),
            workers=1,
        )
        assert not sweep.errors()
        assert PROBE_CALLS == [(4, sweep.trials[0].derived_seed, 6)]

    def test_bad_workload_axis_value_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(protocols=["2PC"], workloads=[42])

    def test_workload_with_multi_valued_votes_axis_rejected(self):
        # votes come from lock conflicts in cluster trials; a votes axis
        # would replay identical runs under different labels
        with pytest.raises(ConfigurationError, match="votes"):
            self.cluster_grid(votes=["all-yes", "all-no"])

    def test_cluster_message_accounting_distinguishes_sent_from_received(self):
        sweep = run_sweep(self.cluster_grid(protocols=["INBAC"]), workers=1)
        (trial,) = sweep.trials
        # the received-by-last-decision count excludes post-decision traffic
        # (DONE acks, protocol help rounds), so it is strictly below total
        assert trial.messages_until_last_decision < trial.messages_total
        assert trial.messages_until_last_decision > 0
