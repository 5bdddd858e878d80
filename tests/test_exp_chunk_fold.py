"""Tests for the worker-side, order-preserving chunk fold.

The contract: behind a pool, a sink that can ``merge`` gets each contiguous
trial-index chunk as a partial — the worker folds the chunk into a fresh
``type(sink)()`` — and the parent merges the partials in chunk order; a sink
without ``merge`` gets the chunk's TrialResults.  The engine reads which one
from the sink, not from an option.  Because every accumulator statistic is
order-independent (tallies, digests, boolean ANDs), merged partials must
fingerprint-match the serial per-trial fold and the in-memory
``mode="full"`` aggregation on the same grid and seeds — at every worker
count.
"""

from __future__ import annotations

import pytest

from repro.exp import GridSpec, run_sweep, run_trials
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


class Counter:
    """A custom sink that counts folds; :class:`MergingCounter` adds ``merge``."""

    def __init__(self):
        self.folded = 0
        self.meta = {}

    def fold(self, trial):
        self.folded += 1


class MergingCounter(Counter):
    def __init__(self):
        super().__init__()
        self.merged = 0

    def merge(self, other):
        self.folded += other.folded
        self.merged += 1


# --------------------------------------------------------------------------- #
# fingerprint equivalence across fold paths
# --------------------------------------------------------------------------- #
class TestChunkFoldDeterminism:
    def test_chunk_fold_matches_serial_and_in_memory(self):
        in_memory = run_sweep(stochastic_grid(), workers=1)
        serial = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        chunked = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=3, mode="aggregate")
        )
        assert chunked.meta["fold"] == "chunk"
        assert chunked.meta["chunks"] >= 2  # the fold actually chunked
        assert (
            chunked.aggregate_fingerprint()
            == serial.aggregate_fingerprint()
            == in_memory.aggregate_fingerprint()
        )
        assert chunked.aggregate_rows() == in_memory.aggregate_rows()
        assert chunked.robustness_rows() == in_memory.robustness_rows()

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_chunk_fold_identical_at_any_worker_count(self, workers):
        serial = run_sweep(stochastic_grid(), workers=1, mode="aggregate")
        chunked = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=workers, mode="aggregate")
        )
        assert chunked.aggregate_fingerprint() == serial.aggregate_fingerprint()
        assert len(chunked) == len(serial)

    def test_a_pooled_default_sink_merges_chunks(self):
        agg = parallel_or_skip(
            run_sweep(stochastic_grid(), workers=3, mode="aggregate")
        )
        assert agg.meta["fold"] == "chunk"
        assert agg.meta["chunk_size"] >= 1
        assert agg.meta["chunks"] * agg.meta["chunk_size"] >= agg.meta["trials"]

    def test_custom_reducer_without_merge_folds_per_trial(self):
        reducer = Counter()
        run_sweep(stochastic_grid(seeds=(0,)), workers=3, reducer=reducer)
        assert reducer.folded == stochastic_grid(seeds=(0,)).size
        assert reducer.meta["fold"] == "trial"

    def test_custom_reducer_with_merge_gets_one_partial_per_chunk(self):
        reducer = MergingCounter()
        parallel_or_skip(run_sweep(stochastic_grid(seeds=(0,)), workers=3, reducer=reducer))
        assert reducer.folded == stochastic_grid(seeds=(0,)).size
        assert reducer.meta["fold"] == "chunk"
        assert reducer.merged == reducer.meta["chunks"] >= 2

    def test_a_pooled_full_sweep_merges_partials_in_index_order(self):
        serial = run_sweep(stochastic_grid(), workers=1)
        pooled = parallel_or_skip(run_sweep(stochastic_grid(), workers=3))
        assert pooled.meta["fold"] == "chunk"
        assert pooled.meta["chunks"] >= 2
        assert [t.index for t in pooled] == list(range(len(serial)))
        assert pooled.fingerprint() == serial.fingerprint()

    @pytest.mark.parametrize("entry", [run_sweep, run_trials], ids=lambda f: f.__name__)
    def test_fold_is_not_an_option(self, entry):
        # the engine reads the fold path from the sink; no knob overrides it
        with pytest.raises(TypeError, match="fold"):
            entry(stochastic_grid(seeds=(0,)).trials(), workers=1, fold="chunk")

    def test_error_accounting_survives_chunk_folds(self):
        per_trial = run_sweep(failing_grid(), workers=1, mode="aggregate")
        chunked = parallel_or_skip(
            run_sweep(failing_grid(), workers=3, mode="aggregate")
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
