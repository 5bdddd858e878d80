"""Determinism under observation: watching a sweep must not change its bytes.

The observability contract has two halves.  OBS001 (static) keeps
``repro.obs`` imports out of the deterministic layers; this battery
(dynamic) proves the runtime half — the same grid produces byte-identical
``SweepAggregate`` fingerprints with observation on and off, across worker
counts, sinks and pool start methods, under the runtime sanitizer, and
under ``REPRO_PROFILE=1``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

from repro.exp import GridSpec, run_sweep
from repro.obs import JsonlProgressReporter, ProgressEvent

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def grid() -> GridSpec:
    """Registry-named (spawn-safe by construction), two protocols, 12 trials."""
    return GridSpec(
        protocols=["2PC", "INBAC"],
        systems=[(4, 1)],
        delays=["uniform"],
        seeds=list(range(6)),
    )


def fingerprint(progress=None, **kwargs) -> str:
    agg = run_sweep(grid(), mode="aggregate", progress=progress, **kwargs)
    assert agg.error_count == 0, agg.sample_errors
    return agg.aggregate_fingerprint()


def parallel_or_skip(agg):
    if agg.meta["mode"] != "parallel":
        pytest.skip("fork start method unavailable; parallel path not exercised")
    return agg


class TestFingerprintEquality:
    @pytest.mark.parametrize("trace_level", ["counters", "full"])
    def test_serial_obs_on_equals_off(self, trace_level, tmp_path):
        baseline = fingerprint(workers=1, trace_level=trace_level)
        observed = fingerprint(
            workers=1, trace_level=trace_level, progress=[].append
        )
        jsonl = fingerprint(
            workers=1, trace_level=trace_level,
            progress=JsonlProgressReporter(str(tmp_path / "p.jsonl")),
        )
        assert baseline == observed == jsonl

    @pytest.mark.parametrize("mode", ["full", "aggregate"])
    def test_fork_pool_obs_on_equals_off(self, mode):
        baseline_agg = parallel_or_skip(run_sweep(grid(), workers=2, mode=mode))
        events = []
        observed_agg = run_sweep(grid(), workers=2, mode=mode, progress=events.append)
        assert (
            baseline_agg.aggregate_fingerprint()
            == observed_agg.aggregate_fingerprint()
        )
        assert observed_agg.meta == baseline_agg.meta
        assert events[-1].phase == "summary"

    def test_spawn_pool_obs_on_equals_off(self):
        baseline = run_sweep(grid(), workers=2, mode="aggregate", start_method="spawn")
        assert baseline.meta["start_method"] == "spawn"
        events = []
        observed = run_sweep(
            grid(), workers=2, mode="aggregate", start_method="spawn",
            progress=events.append,
        )
        assert baseline.aggregate_fingerprint() == observed.aggregate_fingerprint()
        # the callback runs parent-side only, and the stream still covers
        # the whole run
        assert events[0].phase == "start"
        assert events[-1].trials_done == 12

    def test_full_mode_results_unchanged_by_progress(self):
        import dataclasses

        plain = run_sweep(grid(), workers=1)
        observed = run_sweep(grid(), workers=1, progress=[].append)
        assert plain.fingerprint() == observed.fingerprint()
        assert [dataclasses.asdict(t) for t in plain.trials] == [
            dataclasses.asdict(t) for t in observed.trials
        ]


_SUBPROCESS_SWEEP = """
import sys
from repro.exp import GridSpec, run_sweep

grid = GridSpec(
    protocols=["2PC", "INBAC"], systems=[(4, 1)], delays=["uniform"],
    seeds=list(range(6)),
)
agg = run_sweep(grid, workers=1, mode="aggregate", progress=[].append)
assert agg.error_count == 0, agg.sample_errors
sys.stdout.write(agg.aggregate_fingerprint())
"""


_SUBPROCESS_POOLED_FULL_SWEEP = """
import os, sys
from repro.exp import GridSpec, run_sweep

grid = GridSpec(
    protocols=["2PC", "INBAC"], systems=[(4, 1)], delays=["uniform"],
    seeds=list(range(6)),
)
sweep = run_sweep(grid, workers=2, mode="full")
assert sweep.meta["mode"] == "parallel", sweep.meta
assert not sweep.errors()
sys.stdout.write(f"{os.getpid()} {sweep.aggregate_fingerprint()}")
"""


def _subprocess_fingerprint(extra_env, script=_SUBPROCESS_SWEEP):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.update(extra_env)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


class TestHardenedEnvironments:
    def test_observed_sweep_under_the_runtime_sanitizer(self):
        """REPRO_SANITIZE=1 + obs on reproduces the plain fingerprint."""
        baseline = fingerprint(workers=1)
        sanitized = _subprocess_fingerprint({"REPRO_SANITIZE": "1"})
        assert sanitized == baseline

    def test_profiled_sweep_keeps_the_fingerprint(self, tmp_path):
        """REPRO_PROFILE=1 dumps .prof files but never changes aggregates."""
        baseline = fingerprint(workers=1)
        profile_dir = str(tmp_path / "prof")
        profiled = _subprocess_fingerprint(
            {"REPRO_PROFILE": "1", "REPRO_PROFILE_DIR": profile_dir}
        )
        assert profiled == baseline
        dumps = [f for f in os.listdir(profile_dir) if f.endswith(".prof")]
        assert dumps, "REPRO_PROFILE=1 produced no .prof dumps"

    def test_profiled_pooled_full_mode_sweep_dumps_from_the_workers(self, tmp_path):
        """Every pooled chunk is a profiling unit, whatever the sink."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable; parallel path not exercised")
        baseline = fingerprint(workers=1)
        profile_dir = str(tmp_path / "prof")
        parent_pid, profiled = _subprocess_fingerprint(
            {"REPRO_PROFILE": "1", "REPRO_PROFILE_DIR": profile_dir},
            script=_SUBPROCESS_POOLED_FULL_SWEEP,
        ).split()
        assert profiled == baseline
        # dumps are named <label>-<pid>-<seq>.prof by whichever process ran the unit
        dumps = [f for f in os.listdir(profile_dir) if f.endswith(".prof")]
        worker_dumps = [f for f in dumps if f.split("-")[-2] != parent_pid]
        assert worker_dumps, f"no worker-side dump among {dumps}"
        assert all(f.startswith("chunk") for f in worker_dumps)


class TestSpawnSafeConfiguration:
    def test_a_progress_event_crosses_the_boundary(self):
        event = ProgressEvent(
            phase="chunk", trials_total=8, trials_done=2, chunks_total=8,
            chunks_done=2, queue_depth=6, workers=2, mode="parallel",
            fold="chunk",
        )
        assert pickle.loads(pickle.dumps(event)) == event

    def test_open_reporters_stay_parent_side(self, tmp_path):
        """A JsonlProgressReporter holds an open handle while a sweep runs —
        unpicklable — yet a spawn-pool sweep accepts it, because progress
        never ships to workers."""
        reporter = JsonlProgressReporter(str(tmp_path / "p.jsonl"))
        agg = run_sweep(
            grid(), workers=2, mode="aggregate", start_method="spawn", progress=reporter
        )
        assert agg.meta["start_method"] == "spawn"
        assert agg.error_count == 0
