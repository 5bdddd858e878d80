"""Tests for live sweep progress: ``run_sweep(progress=...)`` end to end.

The engine emits count-only :class:`~repro.obs.ProgressEvent` records from
the parent process; reporters add timing on their own clock.  These tests
drive every engine path (serial/pooled x per-trial/merged chunks) through a
list's ``append`` and check the stream's shape, then exercise each bundled
reporter and the string forms ``resolve_progress`` accepts.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

import repro.obs
import repro.obs.progress
from repro.errors import ConfigurationError
from repro.exp import GridSpec, run_sweep
from repro.obs import (
    JsonlProgressReporter,
    ProgressEvent,
    TTYProgressReporter,
    read_jsonl,
    resolve_progress,
)
from repro.obs.progress import PROGRESS_PHASES


#: the keys of one JsonlProgressReporter line
JSONL_KEYS = {
    "event", "wall_time", "phase", "trials_total", "trials_done", "chunks_total",
    "chunks_done", "queue_depth", "workers", "mode", "fold", "elapsed_s",
    "trials_per_s",
}


def small_grid(trials: int = 8) -> GridSpec:
    return GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=list(range(trials)))


def make_event(phase="chunk", done=4, total=8, **overrides):
    base = dict(
        phase=phase,
        trials_total=total,
        trials_done=done,
        chunks_total=total,
        chunks_done=done,
        queue_depth=total - done,
        workers=1,
        mode="serial",
        fold="trial",
    )
    base.update(overrides)
    return ProgressEvent(**base)


def assert_well_formed_stream(events, trials_total: int):
    """The shape every engine path must produce."""
    assert events, "no progress events emitted"
    assert events[0].phase == "start"
    assert events[-1].phase == "summary"
    assert all(e.phase == "chunk" for e in events[1:-1])
    assert all(e.phase in PROGRESS_PHASES for e in events)
    assert all(e.trials_total == trials_total for e in events)
    done = [e.trials_done for e in events]
    assert done == sorted(done), "trials_done must be non-decreasing"
    assert events[-1].trials_done == trials_total
    assert events[-1].chunks_done == events[-1].chunks_total
    assert all(e.queue_depth == e.chunks_total - e.chunks_done for e in events)
    assert abs(events[-1].fraction_done - 1.0) < 1e-12


class TestProgressEvent:
    def test_fraction_done(self):
        assert make_event(done=2, total=8).fraction_done == 0.25
        assert make_event(done=0, total=0).fraction_done == 1.0

    def test_picklable_and_frozen(self):
        event = make_event()
        assert pickle.loads(pickle.dumps(event)) == event
        with pytest.raises(AttributeError):
            event.trials_done = 99


class TestEngineEmission:
    def test_serial_full_mode_emits_per_trial(self):
        events = []
        result = run_sweep(small_grid(), workers=1, progress=events.append)
        assert result is not None
        assert_well_formed_stream(events, 8)
        assert events[-1].mode == "serial"
        assert events[-1].fold == "trial"
        assert len(events) == 8 + 2  # start + one per trial + summary

    def test_serial_aggregate_folds_per_trial(self):
        events = []
        agg = run_sweep(
            small_grid(), workers=1, mode="aggregate", progress=events.append
        )
        assert agg.error_count == 0
        assert_well_formed_stream(events, 8)
        # a serial run has no worker chunks: it folds straight into the sink,
        # and the progress stream reports what actually ran
        assert events[-1].fold == agg.meta["fold"] == "trial"

    def test_parallel_aggregate_chunk_fold(self):
        events = []
        agg = run_sweep(
            small_grid(), workers=2, mode="aggregate", progress=events.append
        )
        if agg.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert_well_formed_stream(events, 8)
        assert events[-1].mode == "parallel"
        assert events[-1].workers == 2
        assert events[-1].fold == "chunk"

    def test_parallel_per_trial_fold_into_a_sink_without_merge(self):
        class Sink:
            def __init__(self):
                self.meta = {}

            def fold(self, trial):
                pass

        events = []
        agg = run_sweep(small_grid(), workers=2, reducer=Sink(), progress=events.append)
        if agg.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert_well_formed_stream(events, 8)
        assert events[-1].fold == "trial"

    def test_parallel_full_mode_reports_honest_chunk_counts(self):
        # regression: the pooled full-mode path used to advertise
        # chunks_total == len(trials) while ships happened in imap chunks,
        # so queue_depth lied about the pool's remaining work
        events = []
        result = run_sweep(small_grid(16), workers=2, progress=events.append)
        if result.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert_well_formed_stream(events, 16)
        # 16 trials over 2 workers -> imap chunk of 2 -> 8 honest chunks
        chunk = max(1, 16 // (2 * 4))
        expected_chunks = (16 + chunk - 1) // chunk
        assert all(e.chunks_total == expected_chunks for e in events)
        assert events[0].chunks_done == 0
        assert events[-1].chunks_done == expected_chunks
        # intermediate counts only ever move in whole completed chunks
        chunk_counts = [e.chunks_done for e in events]
        assert chunk_counts == sorted(chunk_counts)
        assert all(0 <= c <= expected_chunks for c in chunk_counts)

    def test_progress_left_none_emits_nothing_and_meta_is_unchanged(self):
        without = run_sweep(small_grid(), workers=1, mode="aggregate")
        events = []
        with_progress = run_sweep(
            small_grid(), workers=1, mode="aggregate", progress=events.append
        )
        # progress is pure observation: the result's meta carries no trace of it
        assert with_progress.meta == without.meta


class TestReporters:
    def test_tty_reporter_rewrites_one_line(self):
        stream = io.StringIO()
        reporter = TTYProgressReporter(stream=stream)
        reporter(make_event(phase="start", done=0))
        reporter(make_event(done=4))
        reporter(make_event(phase="summary", done=8))
        output = stream.getvalue()
        assert "8/8 trials" in output
        assert "100.0%" in output
        assert output.endswith("\n")  # the summary line is terminal
        assert output.count("\n") == 1  # everything before it was \r-rewritten

    def test_jsonl_reporter_file_contents(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        progress = JsonlProgressReporter(path)
        run_sweep(small_grid(), workers=1, mode="aggregate", progress=progress)
        records = read_jsonl(path)
        assert [r["phase"] for r in records] == ["start"] + ["chunk"] * 8 + ["summary"]
        assert all(r["event"] == "sweep.progress" for r in records)
        summary = records[-1]
        assert summary["trials_done"] == summary["trials_total"] == 8
        assert summary["elapsed_s"] >= 0.0
        assert summary["trials_per_s"] is None or summary["trials_per_s"] > 0
        # the line shape: these 13 keys, serialised sorted
        assert all(set(r) == JSONL_KEYS for r in records)
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"

    def test_one_jsonl_reporter_serves_two_sweeps(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        reporter = JsonlProgressReporter(path)
        for _ in range(2):
            run_sweep(small_grid(), workers=1, mode="aggregate", progress=reporter)
        run = ["start"] + ["chunk"] * 8 + ["summary"]
        assert [r["phase"] for r in read_jsonl(path)] == run + run

    def test_two_reporters_append_to_one_file(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text('{"event": "earlier"}\n', encoding="utf-8")
        for _ in range(2):
            reporter = JsonlProgressReporter(str(path))
            reporter(make_event(phase="start", done=0))
            reporter(make_event(phase="summary", done=8))
        records = read_jsonl(str(path))
        assert records[0] == {"event": "earlier"}
        assert [r["phase"] for r in records[1:]] == ["start", "summary"] * 2

    def test_the_file_is_closed_at_summary(self, tmp_path):
        reporter = JsonlProgressReporter(str(tmp_path / "progress.jsonl"))
        reporter(make_event(phase="start", done=0))
        handle = reporter._handle
        assert handle is not None and not handle.closed
        reporter(make_event(phase="summary", done=8))
        assert handle.closed
        assert reporter._handle is None
        reporter.close()  # closing a closed reporter is a no-op
        assert reporter._handle is None

    def test_a_start_closes_what_an_aborted_sweep_left_open(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        reporter = JsonlProgressReporter(path)
        reporter(make_event(phase="start", done=0))
        reporter(make_event(done=4))  # this sweep never summarises
        aborted = reporter._handle
        reporter(make_event(phase="start", done=0))
        assert aborted.closed
        assert reporter._handle is not aborted
        reporter(make_event(phase="summary", done=8))
        records = read_jsonl(path)
        assert [r["phase"] for r in records] == ["start", "chunk", "start", "summary"]
        assert [r["trials_done"] for r in records] == [0, 4, 0, 8]

    def test_an_event_before_any_start_opens_the_file(self, tmp_path):
        path = str(tmp_path / "progress.jsonl")
        reporter = JsonlProgressReporter(path)
        reporter(make_event(done=4))
        reporter(make_event(phase="summary", done=8))
        records = read_jsonl(path)
        assert [r["phase"] for r in records] == ["chunk", "summary"]
        # the clock started at the first event the reporter saw
        assert records[0]["elapsed_s"] == 0.0

    def test_no_rate_is_reported_at_zero_elapsed(self, tmp_path, monkeypatch):
        path = str(tmp_path / "progress.jsonl")
        monkeypatch.setattr("repro.obs.progress.time.monotonic", lambda: 100.0)
        reporter = JsonlProgressReporter(path)
        reporter(make_event(phase="start", done=0))
        reporter(make_event(phase="summary", done=8))
        for record in read_jsonl(path):
            assert record["elapsed_s"] == 0.0
            assert record["trials_per_s"] is None

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": [2]}\n', encoding="utf-8")
        assert read_jsonl(str(path)) == [{"a": 1}, {"b": [2]}]


class TestResolveProgress:
    def test_none_and_callables_pass_through(self):
        assert resolve_progress(None) is None
        events = []
        assert resolve_progress(events.append) == events.append

    def test_tty_string(self):
        assert isinstance(resolve_progress("tty"), TTYProgressReporter)

    def test_jsonl_string(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        reporter = resolve_progress(f"jsonl:{path}")
        assert isinstance(reporter, JsonlProgressReporter)
        assert reporter.path == path
        reporter.close()

    def test_engine_accepts_the_string_form(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        run_sweep(small_grid(4), workers=1, mode="aggregate", progress=f"jsonl:{path}")
        assert [r["phase"] for r in read_jsonl(path)][0] == "start"

    @pytest.mark.parametrize("bad", ["", "jsonl:", "carrier-pigeon", 7])
    def test_invalid_forms_are_loud(self, bad):
        with pytest.raises(ConfigurationError) as err:
            resolve_progress(bad)
        assert repr(bad) in str(err.value)


class TestPackageSurface:
    def test_every_export_resolves_and_read_jsonl_lives_with_its_writer(self):
        assert all(hasattr(repro.obs, name) for name in repro.obs.__all__)
        assert len(set(repro.obs.__all__)) == len(repro.obs.__all__) == 15
        assert repro.obs.read_jsonl is repro.obs.progress.read_jsonl
