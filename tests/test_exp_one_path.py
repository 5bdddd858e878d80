"""The one-path claim as a matrix: every way to call the executor is the same sweep.

:func:`repro.exp.run_trials` cuts the trial list into contiguous index
chunks, runs each through ``_run_chunk`` (in-process or through one pool) and
consumes them in chunk order into one sink: a pooled chunk is a partial the
sink merges when it can, else TrialResults it folds.  This battery runs one
stochastic grid through every worker count x sink x start method — sinks
that merge (the full and aggregate modes, a RobustnessFold) and one that
does not — and holds all of them to one set of bytes, one progress contract
and a literal ``meta`` table — and
then exercises the failure surface of the single consumption site: a lost
worker, a reducer that raises, an empty trial list.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import re
import signal
import weakref

import pytest

from repro.errors import ConfigurationError, SweepError
from repro.exp import GridSpec, SweepAggregate, named_fault, run_sweep, run_trials
from repro.exp.engine import _in_order
from repro.exp.results import RobustnessFold

TRIALS = 48
WORKERS = 3
#: the pooled chunk size the contract promises for this grid
POOL_CHUNK = max(1, min(64, TRIALS // (WORKERS * 4)))

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")


def grid() -> GridSpec:
    """Registry-named (so spawn-safe), stochastic, one crash fault, 48 trials."""
    return GridSpec(
        protocols=["2PC", "INBAC"],
        systems=[(5, 2)],
        delays=["uniform", "lognormal"],
        faults=[None, named_fault("crash", at=0.5)],
        seeds=range(6),
    )


class CountingSink:
    """A custom reducer without ``merge``: records what it is fed and
    delegates to a SweepAggregate."""

    def __init__(self) -> None:
        self.inner = SweepAggregate()
        self.meta: dict = {}
        self.indices: list = []

    def fold(self, result) -> None:
        self.indices.append(result.index)
        self.inner.fold(result)


#: sink name -> the run_sweep keyword arguments of one row (a sink is built
#: per row)
SINKS = {
    "full": lambda: dict(mode="full"),
    "aggregate": lambda: dict(mode="aggregate"),
    "robustness": lambda: dict(reducer=RobustnessFold()),
    "reducer": lambda: dict(reducer=CountingSink()),
}
#: the sinks that can merge a pooled chunk's partial
MERGING = ("full", "aggregate", "robustness")

#: (workers, start method) of every execution shape
SHAPES = [(1, None)] + [
    (WORKERS, method) for method in ("fork", "spawn") if method == "spawn" or HAS_FORK
]


#: the literal meta table; a RobustnessFold has no ``meta``
_SERIAL = {"mode": "serial", "workers": 1, "requested_workers": 1, "trials": 48}
_FULL = {"sweep_mode": "full", "trace_level": "full", "fold": "trial"}
_STREAMED = {"sweep_mode": "aggregate", "trace_level": "counters", "fold": "trial"}
_MERGED = {"fold": "chunk", "chunk_size": 4, "chunks": 12}


def _pooled(method: str) -> dict:
    return {
        "mode": "parallel", "workers": 3, "requested_workers": 3, "trials": 48,
        "start_method": method,
    }


EXPECTED_META = {
    (1, None, "full"): {**_SERIAL, **_FULL},
    (1, None, "aggregate"): {**_SERIAL, **_STREAMED},
    (1, None, "robustness"): None,
    (1, None, "reducer"): {**_SERIAL, **_STREAMED},
    (3, "fork", "full"): {**_pooled("fork"), **_FULL, **_MERGED},
    (3, "fork", "aggregate"): {**_pooled("fork"), **_STREAMED, **_MERGED},
    (3, "fork", "robustness"): None,
    (3, "fork", "reducer"): {**_pooled("fork"), **_STREAMED},
    (3, "spawn", "full"): {**_pooled("spawn"), **_FULL, **_MERGED},
    (3, "spawn", "aggregate"): {**_pooled("spawn"), **_STREAMED, **_MERGED},
    (3, "spawn", "robustness"): None,
    (3, "spawn", "reducer"): {**_pooled("spawn"), **_STREAMED},
}


@pytest.fixture(scope="module")
def rows():
    """Every (workers, start method, sink) row: (result, aggregate view, events)."""
    out = {}
    for workers, method in SHAPES:
        for sink, kwargs in SINKS.items():
            events = []
            result = run_sweep(
                grid(), workers=workers, start_method=method, progress=events.append,
                **kwargs(),
            )
            view = result.inner if sink == "reducer" else result
            out[(workers, method, sink)] = (result, view, events)
    return out


class TestOneSetOfBytes:
    def test_the_matrix_is_complete(self, rows):
        assert grid().size == TRIALS
        assert len(rows) == len(SHAPES) * len(SINKS) >= 8

    def test_one_aggregate_fingerprint_and_identical_tables(self, rows):
        _, reference, _ = rows[(1, None, "full")]
        assert not reference.errors()
        for key, (result, view, _) in rows.items():
            if key[2] == "robustness":
                # the robustness fold keeps that table and nothing else
                assert result.rows() == reference.robustness_rows(), key
                continue
            assert view.aggregate_fingerprint() == reference.aggregate_fingerprint(), key
            assert view.aggregate_rows() == reference.aggregate_rows(), key
            assert view.robustness_rows() == reference.robustness_rows(), key

    def test_full_mode_fingerprint_is_equal_across_worker_counts(self, rows):
        fingerprints = {
            (workers, method): result.fingerprint()
            for (workers, method, sink), (result, _, _) in rows.items()
            if sink == "full"
        }
        assert len(fingerprints) == len(SHAPES)
        assert len(set(fingerprints.values())) == 1, fingerprints

    @pytest.mark.parametrize("trace_level", ["full", "counters"])
    @pytest.mark.parametrize("mode", ["full", "aggregate"])
    def test_pinned_trace_levels_change_no_byte(self, rows, mode, trace_level):
        reference, _, _ = rows[(1, None, "full")]
        variant = run_sweep(grid(), workers=2, mode=mode, trace_level=trace_level)
        assert variant.meta["trace_level"] == trace_level
        assert variant.aggregate_fingerprint() == reference.aggregate_fingerprint()
        if mode == "full":
            assert variant.fingerprint() == reference.fingerprint()

    def test_the_custom_reducer_sees_every_trial_once_in_index_order(self, rows):
        for (workers, method, sink), (result, _, _) in rows.items():
            if sink == "reducer":
                assert result.indices == list(range(TRIALS)), (workers, method)

    def test_meta_equals_the_literal_table(self, rows):
        for key, (result, _, _) in rows.items():
            assert getattr(result, "meta", None) == EXPECTED_META[key], key


class TestProgressContract:
    def test_one_chunk_event_per_consumed_chunk_on_every_row(self, rows):
        for key, (_, _, events) in rows.items():
            workers = key[0]
            chunk = POOL_CHUNK if workers > 1 else 1
            assert [e.phase for e in events[:1] + events[-1:]] == ["start", "summary"], key
            chunk_events = events[1:-1]
            assert all(e.phase == "chunk" for e in chunk_events), key
            chunks_total = events[0].chunks_total
            assert chunks_total == -(-TRIALS // chunk), key
            assert all(e.chunks_total == chunks_total for e in events), key
            assert len(chunk_events) == chunks_total, key
            assert [e.chunks_done for e in chunk_events] == list(range(1, chunks_total + 1)), key
            for event in events:
                assert event.trials_total == TRIALS, key
                assert event.trials_done == min(event.chunks_done * chunk, TRIALS), key
                assert event.queue_depth == chunks_total - event.chunks_done, key
            assert (events[0].chunks_done, events[-1].chunks_done) == (0, chunks_total), key

    def test_serial_rows_have_one_chunk_per_trial(self, rows):
        for (workers, _, _), (_, _, events) in rows.items():
            if workers == 1:
                assert events[0].chunks_total == TRIALS
                assert {e.mode for e in events} == {"serial"}

    def test_the_fold_label_says_what_a_chunk_shipped(self, rows):
        for (workers, _, sink), (_, _, events) in rows.items():
            shipped_partials = workers > 1 and sink in MERGING
            assert {e.fold for e in events} == {"chunk" if shipped_partials else "trial"}


class TestEdges:
    @pytest.mark.parametrize("workers", [1, WORKERS])
    @pytest.mark.parametrize("mode", ["full", "aggregate"])
    def test_an_empty_trial_list_is_an_empty_result(self, mode, workers):
        events = []
        result = run_trials([], workers=workers, mode=mode, progress=events.append)
        assert len(result) == 0
        assert result.aggregate_rows() == []
        assert result.meta["trials"] == 0 and result.meta["mode"] == "serial"
        assert [e.phase for e in events] == ["start", "summary"]
        assert all(e.chunks_total == e.chunks_done == e.trials_done == 0 for e in events)

    @pytest.mark.parametrize("mode", ["full", "aggregate"])
    def test_nothing_in_the_engine_retains_a_finished_sweeps_trials(self, mode):
        trials = grid().trials()
        witness = weakref.ref(trials[7])
        result = run_trials(trials, workers=1, mode=mode)
        assert result.meta["trials"] == TRIALS
        del trials
        gc.collect()
        assert witness() is None, "a TrialSpec outlived its serial sweep"

    @pytest.mark.parametrize("reducer", [object(), "violations"], ids=["object", "name"])
    def test_a_reducer_without_fold_is_refused_before_any_trial_runs(self, reducer):
        ran = []

        def collector(trial, result):
            ran.append(trial.index)
            return {}

        with pytest.raises(ConfigurationError, match="RobustnessFold"):
            run_sweep(grid(), workers=1, collector=collector, reducer=reducer)
        assert ran == []


class _Done:
    """A finished future: what ``_in_order`` needs of one."""

    def __init__(self, value) -> None:
        self.value = value

    def result(self):
        return self.value


class TestSubmissionWindow:
    """A pool submits at most ``2 * workers`` chunks ahead of the one consumed."""

    @pytest.mark.parametrize("n_chunks", [0, 1, 3, 4, 11])
    def test_in_order_never_runs_more_than_the_window_ahead(self, n_chunks):
        window, submitted, consumed, ahead = 4, [], [], []

        def submit(index):
            submitted.append(index)
            ahead.append(len(submitted) - len(consumed))
            return _Done(index * 10)

        for part in _in_order(submit, n_chunks, window):
            consumed.append(part)
        assert consumed == [index * 10 for index in range(n_chunks)]
        assert submitted == list(range(n_chunks))
        assert max(ahead, default=0) == min(window, n_chunks)

    @needs_fork
    def test_a_pooled_sweep_keeps_two_chunks_per_worker_in_flight(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        submitted, ahead, consumed = [], [], [0]
        real_submit = ProcessPoolExecutor.submit

        def submit(self, fn, *args, **kwargs):
            submitted.append(args[0])
            ahead.append(len(submitted) - consumed[0])
            return real_submit(self, fn, *args, **kwargs)

        def progress(event):
            consumed[0] = event.chunks_done

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        workers = 2
        sweep_grid = GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=range(64))
        with alarm(60):
            result = run_sweep(
                sweep_grid, workers=workers, start_method="fork", progress=progress
            )
        assert result.meta["mode"] == "parallel"
        n_chunks = -(-64 // (64 // (workers * 4)))
        assert submitted == list(range(n_chunks)) and n_chunks > 2 * workers
        assert max(ahead) == 2 * workers
        assert [t.index for t in result.trials] == list(range(64))


# --------------------------------------------------------------------------- #
# the failure surface of the single consumption site
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def alarm(seconds: int):
    """Fail, rather than hang the suite, if the block outlives ``seconds``."""

    def on_alarm(signum, frame):
        raise AssertionError(f"sweep still running after {seconds} s: the parent is blocked")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Boom(Exception):
    pass


class ExplodingSink:
    def fold(self, result) -> None:
        raise Boom(f"refusing trial {result.index}")


@needs_fork
class TestFailureSurface:
    def test_a_lost_worker_ends_in_sweep_error_not_a_hang(self):
        doomed = 9

        def collector(trial, result):
            if trial.index == doomed:
                os._exit(3)  # the worker vanishes mid-chunk, no exception, no result
            return {}

        sweep_grid = GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=range(32))
        with alarm(60), pytest.raises(SweepError) as err:
            run_sweep(sweep_grid, workers=2, start_method="fork", collector=collector)
        message = str(err.value)
        assert "'fork'" in message and "2 workers" in message
        first, last = map(int, re.search(r"trials (\d+)-(\d+)", message).groups())
        # chunks are consumed in order, so the first one missing is the doomed
        # trial's chunk or an earlier one still running when the pool broke
        chunk = 32 // (2 * 4)
        assert first % chunk == 0 and last == first + chunk - 1
        assert first <= doomed

    def test_a_raising_reducer_surfaces_at_once_and_drops_pending_chunks(self, tmp_path):
        tally = tmp_path / "trials-run"
        tally.write_bytes(b"")

        def collector(trial, result):
            with open(tally, "ab") as handle:  # O_APPEND: one byte per trial run
                handle.write(b".")
            return {}

        total = 2048
        sweep_grid = GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=range(total))
        with alarm(120), pytest.raises(Boom, match="refusing trial 0"):
            run_sweep(
                sweep_grid, workers=2, start_method="fork",
                collector=collector, reducer=ExplodingSink(),
            )
        # the error left through shutdown(cancel_futures=True): the chunks in
        # flight finished, the 30-odd still pending never started
        assert tally.stat().st_size < total // 2

    def test_a_raising_progress_callback_propagates_from_a_pooled_sweep(self):
        def progress(event):
            if event.phase == "chunk":
                raise Boom("reporter broke")

        with alarm(60), pytest.raises(Boom, match="reporter broke"):
            run_sweep(grid(), workers=2, start_method="fork", progress=progress)
