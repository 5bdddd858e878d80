"""Tests for the worker-side, order-preserving chunk fold.

The contract: in aggregate mode with the default
:class:`~repro.exp.results.SweepAggregate` sink, workers may fold their
contiguous trial-index chunks into partial accumulator bundles and ship one
bundle per chunk; the parent merges bundles in chunk order.  Because every
accumulator statistic is order-independent (tallies, digests, boolean ANDs),
the chunked fold must fingerprint-match the per-trial streaming fold and the
in-memory ``mode="full"`` aggregation on the same grid and seeds — at every
worker count.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exp import GridSpec, run_sweep
from repro.exp.results import CellAccumulator, SweepAggregate
from repro.sim.faults import FaultPlan


def stochastic_grid(seeds=(0, 1, 2)):
    return GridSpec(
        protocols=["INBAC", "2PC", "PaxosCommit"],
        systems=[(4, 1), (5, 2)],
        delays=[None, ("uniform", "uniform", {"lo": 0.2, "hi": 1.0})],
        faults=[None, ("crash P1", FaultPlan.crash(1, at=0.0))],
        seeds=list(seeds),
    )


def failing_grid():
    """Every trial fails (wrong vote arity) — error accounting must survive folds."""
    return GridSpec(
        protocols=["INBAC"],
        systems=[(5, 2)],
        votes=[("truncated", [1, 1])],
        seeds=range(12),
    )


def parallel_or_skip(agg):
    if agg.meta["mode"] != "parallel":
        pytest.skip("fork start method unavailable; parallel path not exercised")
    return agg


# --------------------------------------------------------------------------- #
# fingerprint equivalence across fold paths
# --------------------------------------------------------------------------- #
class TestChunkFoldDeterminism:
    def test_chunk_fold_matches_per_trial_and_in_memory(self):
        in_memory = run_sweep(stochastic_grid(), workers=1)
        per_trial = run_sweep(
            stochastic_grid(), workers=3, mode="aggregate", fold="trial"
        )
        chunked = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=3, mode="aggregate", fold="chunk")
        )
        assert chunked.meta["fold"] == "chunk"
        assert chunked.meta["chunks"] >= 2  # the fold actually chunked
        assert (
            chunked.aggregate_fingerprint()
            == per_trial.aggregate_fingerprint()
            == in_memory.aggregate_fingerprint()
        )
        assert chunked.aggregate_rows() == in_memory.aggregate_rows()
        assert chunked.robustness_rows() == in_memory.robustness_rows()

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_chunk_fold_identical_at_any_worker_count(self, workers):
        serial = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        chunked = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=workers, mode="aggregate", fold="chunk")
        )
        assert chunked.aggregate_fingerprint() == serial.aggregate_fingerprint()
        assert len(chunked) == len(serial)

    def test_auto_fold_uses_chunks_with_default_sink(self):
        agg = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=3, mode="aggregate")
        )
        assert agg.meta["fold"] == "chunk"
        assert agg.meta["chunk_size"] >= 1
        assert agg.meta["chunks"] * agg.meta["chunk_size"] >= agg.meta["trials"]

    def test_custom_reducer_folds_per_trial(self):
        class Counter:
            def __init__(self):
                self.folded = 0
                self.meta = {}

            def fold(self, trial):
                self.folded += 1

        reducer = Counter()
        run_sweep(stochastic_grid(seeds=(0,)), workers=3, reducer=reducer)
        assert reducer.folded == stochastic_grid(seeds=(0,)).size
        assert reducer.meta["fold"] == "trial"

    def test_chunk_fold_with_custom_reducer_rejected(self):
        class Sink:
            def fold(self, trial):
                pass

        with pytest.raises(ConfigurationError, match="chunk"):
            run_sweep(stochastic_grid(), workers=2, reducer=Sink(), fold="chunk")

    def test_unknown_fold_rejected(self):
        with pytest.raises(ConfigurationError, match="fold"):
            run_sweep(stochastic_grid(), workers=1, mode="aggregate", fold="tree")

    def test_chunk_fold_with_full_mode_rejected(self):
        # mode="full" returns every TrialResult; a chunk-fold request there
        # would otherwise be silently ignored
        with pytest.raises(ConfigurationError, match="aggregate"):
            run_sweep(stochastic_grid(), workers=2, fold="chunk")

    def test_error_accounting_survives_chunk_folds(self):
        per_trial = run_sweep(failing_grid(), workers=1, mode="aggregate")
        chunked = parallel_or_skip(
            run_sweep(failing_grid(), workers=3, mode="aggregate", fold="chunk")
        )
        assert chunked.error_count == per_trial.error_count == 12
        # the retained sample is the same first-N-in-index-order either way
        assert chunked.sample_errors == per_trial.sample_errors
        assert len(chunked.sample_errors) == SweepAggregate.MAX_SAMPLE_ERRORS
        assert chunked.aggregate_fingerprint() == per_trial.aggregate_fingerprint()


# --------------------------------------------------------------------------- #
# merge primitives
# --------------------------------------------------------------------------- #
class TestMergePrimitives:
    def split_fold(self, split):
        """Fold one trial stream whole vs. split-and-merged at ``split``."""
        trials = list(run_sweep(stochastic_grid(), workers=1))
        whole = SweepAggregate()
        for trial in trials:
            whole.fold(trial)
        left, right = SweepAggregate(), SweepAggregate()
        for trial in trials[:split]:
            left.fold(trial)
        for trial in trials[split:]:
            right.fold(trial)
        left.merge(right)
        return whole, left

    @pytest.mark.parametrize("split", [0, 1, 17, 35])
    def test_split_and_merge_equals_single_stream(self, split):
        whole, merged = self.split_fold(split)
        assert merged.total_trials == whole.total_trials
        assert merged.cell_count == whole.cell_count
        assert merged.aggregate_rows() == whole.aggregate_rows()
        assert merged.aggregate_fingerprint() == whole.aggregate_fingerprint()
        assert merged.robustness_rows() == whole.robustness_rows()

    def test_cell_accumulator_merge_is_exact(self):
        trials = run_sweep(
            GridSpec(
                protocols=["2PC"],
                systems=[(5, 2)],
                delays=[("uniform", "uniform", {"lo": 0.2, "hi": 1.0})],
                seeds=range(9),
            ),
            workers=1,
        ).trials
        key = trials[0].key()
        whole = CellAccumulator(key, trials[0].index, trials[0].execution_class)
        for trial in trials:
            whole.fold(trial)
        a = CellAccumulator(key, trials[0].index, trials[0].execution_class)
        b = CellAccumulator(key, trials[4].index, trials[4].execution_class)
        for trial in trials[:4]:
            a.fold(trial)
        for trial in trials[4:]:
            b.fold(trial)
        a.merge(b)
        assert a.row() == whole.row()

    def test_merge_keeps_first_cell_metadata(self):
        key = ("P", 4, 1, "U=1", "failure-free", "all-yes", "-")
        older = CellAccumulator(key, first_index=3, execution_class="crash-failure")
        newer = CellAccumulator(key, first_index=9, execution_class="failure-free")
        newer.merge(older)
        assert newer.first_index == 3
        assert newer.execution_class == "crash-failure"
