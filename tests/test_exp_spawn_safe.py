"""Tests for the spawn-safe spec subset and the exp registries."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import ConfigurationError
from repro.exp import (
    GridSpec,
    ensure_spawn_safe,
    named_delay,
    named_workload,
    run_sweep,
    run_trials,
)
from repro.exp.registry import delay_model_names, workload_names
from repro.exp.spec import ScheduleSpec
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.network import LognormalDelay, UniformDelay


def registry_grid(seeds=range(6)):
    """A grid built entirely from registry names: spawn-safe by construction."""
    return GridSpec(
        protocols=["2PC", "INBAC"],
        systems=[(5, 2)],
        delays=["uniform", ("heavy-tail", "lognormal", {"sigma": 0.4})],
        faults=[None, ("crash P1", FaultPlan.crash(1, at=0.5))],
        votes=["all-yes", "one-no:3", "mixed:0.2"],
        schedules=[None, ("rw", "random-walk", {"crash_prob": 0.05})],
        seeds=seeds,
    )


class TestEnsureSpawnSafe:
    def test_registry_named_grid_passes(self):
        ensure_spawn_safe(registry_grid().trials())

    def predicate_grid(self, seeds):
        # the one place a grid still carries a closure: inside a literal plan
        plan = FaultPlan(
            delay_rules=[DelayRule(predicate=lambda p: True, delay=30.0)],
            description="pred",
        )
        return GridSpec(
            protocols=["2PC"], systems=[(4, 1)], faults=[("pred", plan)], seeds=seeds
        )

    def test_lambda_fault_predicate_is_named_in_the_error(self):
        with pytest.raises(ConfigurationError) as err:
            ensure_spawn_safe(self.predicate_grid(range(6)).trials())
        assert "faults['pred']" in str(err.value)
        assert "spawn" in str(err.value)

    def test_unpicklable_collector_is_reported(self):
        trials = GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=[0]).trials()
        with pytest.raises(ConfigurationError) as err:
            ensure_spawn_safe(trials, collector=lambda t, r: {})
        assert "collector" in str(err.value)

    def test_explicit_spawn_request_validates_loudly(self):
        with pytest.raises(ConfigurationError) as err:
            run_sweep(self.predicate_grid(range(8)), workers=2, start_method="spawn")
        assert "faults['pred']" in str(err.value)

    def test_unknown_start_method_rejected(self):
        grid = GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=range(4))
        with pytest.raises(ConfigurationError):
            run_sweep(grid, workers=2, start_method="forkserver")


class TestSpawnExecution:
    def test_spawn_pool_reproduces_the_serial_sweep_exactly(self):
        serial = run_sweep(registry_grid(), workers=1)
        spawned = run_sweep(registry_grid(), workers=2, start_method="spawn")
        assert spawned.meta["start_method"] == "spawn"
        assert spawned.meta["mode"] == "parallel"
        assert spawned.fingerprint() == serial.fingerprint()
        assert spawned.aggregate_fingerprint() == serial.aggregate_fingerprint()

    def test_a_registration_made_at_import_reaches_a_spawn_worker(self):
        """Failed at the parent: the worker never imported the registering
        module, so every trial ended in "delay model 'probe-fixed' is not
        registered in this process".  The schedules axis follows the same
        rule: "probe-walk" is a strategy registered in that module too.  Run
        in a fresh interpreter, so the registrations stay out of this
        process' registries."""
        script = textwrap.dedent(
            """
            from repro.exp import GridSpec, named_delay, run_sweep

            def main():
                import spawn_registrations  # registers "probe-fixed", "probe-walk"

                grid = GridSpec(
                    protocols=["2PC"], systems=[(4, 1)],
                    delays=[named_delay("probe-fixed")],
                    schedules=[None, "probe-walk"], seeds=range(8),
                )
                spawned = run_sweep(grid, workers=2, start_method="spawn")
                assert spawned.meta["start_method"] == "spawn"
                assert spawned.errors() == [], spawned.errors()[0].error
                serial = run_sweep(grid, workers=1)
                assert spawned.fingerprint() == serial.fingerprint()

            main()
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), os.path.dirname(__file__)]
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    def test_fork_remains_the_default_where_available(self):
        sweep = run_sweep(registry_grid(seeds=range(3)), workers=2)
        if sweep.meta["mode"] == "parallel":
            assert sweep.meta["start_method"] == "fork"


class TestClusterReplayAcrossStartMethods:
    """A shrunk cluster counterexample replays byte-identically everywhere.

    The whole chain is registry-named (protocol, workload, replay schedule),
    so the very same trial list runs under the serial path, a fork pool and a
    spawn pool — and every one must reproduce the stored counterexample's
    trace fingerprint exactly.
    """

    def _replay_grid(self):
        from repro.explore import explore

        report = explore(
            "2PC", n=3, f=1, budget=16,
            workload=("uniform3", "uniform", {"transactions": 4}),
            preset="cluster-anomaly", properties=("termination",),
            max_time=150.0,
        )
        hit = report.violations_of("termination")[0]
        assert hit.shrunk is not None and len(hit.shrunk) >= 1
        replay_spec = ScheduleSpec(
            label="replay",
            name="replay",
            params=(
                ("decisions", tuple(tuple(d) for d in hit.shrunk.decisions)),
            ),
        )
        # >= 4 trials so the pool actually engages; trial 0 is the true
        # counterexample, the fillers replay the same decisions against
        # neighbouring seeds (inapplicable decisions are ignored)
        grid = GridSpec(
            protocols=["2PC"],
            systems=[(3, 1)],
            workloads=[("uniform3", "uniform", {"transactions": 4})],
            schedules=[replay_spec],
            seeds=[hit.base_seed + i for i in range(4)],
            max_time=150.0,
        )
        return grid, hit

    def test_shrunk_counterexample_replays_under_serial_fork_and_spawn(self):
        grid, hit = self._replay_grid()
        trials = grid.trials()
        ensure_spawn_safe(trials)
        serial = run_trials(trials, workers=1, mode="full", trace_level="full")
        forked = run_trials(
            trials, workers=2, mode="full", trace_level="full",
            start_method="fork",
        )
        spawned = run_trials(
            trials, workers=2, mode="full", trace_level="full",
            start_method="spawn",
        )
        assert forked.meta["start_method"] == "fork"
        assert spawned.meta["start_method"] == "spawn"
        fingerprints = {
            sweep.trials[0].extra["trace_fingerprint"]
            for sweep in (serial, forked, spawned)
        }
        assert fingerprints == {hit.shrunk_fingerprint}
        # the violation itself reproduces in every execution mode
        assert not serial.trials[0].termination
        assert not spawned.trials[0].termination
        # and the full sweeps are byte-identical across start methods
        assert serial.fingerprint() == forked.fingerprint() == spawned.fingerprint()


class TestDelayRegistry:
    def test_builtin_names(self):
        assert {"fixed", "uniform", "lognormal"} <= set(delay_model_names())

    def test_named_delay_builds_seeded_models(self):
        spec = named_delay("uniform", lo=0.5, hi=1.0)
        model = spec.build(7)
        assert isinstance(model, UniformDelay)
        assert (model.lo, model.hi) == (0.5, 1.0)
        # per-trial seeding: same seed, same sequence
        a = spec.build(7).delay(1, 2, None, 0.0)
        b = spec.build(7).delay(1, 2, None, 0.0)
        assert a == b
        assert spec.label == "uniform(hi=1.0,lo=0.5)"
        heavy = named_delay("lognormal", label="tail").build(3)
        assert isinstance(heavy, LognormalDelay)

    def test_unknown_delay_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown delay model"):
            named_delay("no-such-model")

    def test_specs_compare_by_label_name_and_parameters(self):
        assert named_delay("fixed") == named_delay("fixed")
        assert named_delay("fixed") != named_delay("uniform")
        assert named_delay("fixed") != named_delay("fixed", label="U=1")
        assert named_delay("uniform", lo=0.5) != named_delay("uniform", lo=0.4)


class TestWorkloadRegistry:
    def test_builtin_names(self):
        assert {"uniform", "hotspot", "bank-transfer"} <= set(workload_names())

    def test_named_workload_builds_seeded_transactions(self):
        spec = named_workload("bank-transfer", transactions=3)
        txns = spec.build(4, 7)
        assert len(txns) == 3
        assert all(len(t.participants()) == 2 for t in txns)
        # per-trial seeding: same (n, seed) -> identical workload
        again = spec.build(4, 7)
        assert [t.txn_id for t in txns] == [t.txn_id for t in again]
        assert [t.operations for t in txns] == [t.operations for t in again]
        assert spec.label == "bank-transfer(transactions=3)"

    def test_unknown_workload_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            named_workload("no-such-workload")
        with pytest.raises(ConfigurationError, match="unknown workload"):
            GridSpec(protocols=["2PC"], workloads=["no-such-workload"])

    def test_spec_equality_and_pickling(self):
        import pickle

        spec = named_workload("uniform", transactions=5)
        assert spec == named_workload("uniform", transactions=5)
        assert spec != named_workload("uniform")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_spawn_pool_reproduces_a_cluster_schedule_sweep(self):
        grid = lambda: GridSpec(
            protocols=["2PC", "INBAC"],
            systems=[(3, 1)],
            workloads=["bank-transfer"],
            schedules=[None, ("rw", "random-walk", {"crash_prob": 0.1})],
            seeds=range(2),
            max_time=150.0,
        )
        ensure_spawn_safe(grid().trials())
        serial = run_sweep(grid(), workers=1)
        spawned = run_sweep(grid(), workers=2, start_method="spawn")
        assert spawned.meta["start_method"] == "spawn"
        assert spawned.fingerprint() == serial.fingerprint()
        assert spawned.aggregate_fingerprint() == serial.aggregate_fingerprint()


class TestReducerRegistry:
    def test_named_reducer_through_run_sweep(self):
        from repro.exp.results import RobustnessFold

        fold = run_sweep(
            GridSpec(protocols=["2PC"], systems=[(4, 1)], seeds=range(5)),
            workers=1,
            reducer=RobustnessFold(),
        )
        rows = fold.rows()
        assert rows and rows[0]["protocol"] == "2PC"


class TestCrossHashSeedDeterminism:
    """The same sweep + replay in subprocesses under different
    ``PYTHONHASHSEED`` values must produce byte-identical fingerprints —
    under the serial path, a fork pool and a spawn pool alike.  Any
    divergence means hash order (set iteration, str-keyed dict order)
    leaked into the bytes somewhere in the pipeline."""

    def test_fingerprints_identical_across_hash_seeds_and_pools(self):
        from tools.lint.hashseed import run_hashseed_check

        out = run_hashseed_check(
            seeds=(101, 202), start_methods=("serial", "fork", "spawn")
        )
        assert out["ok"], out["diverging"]
        # both probes computed all nine fingerprints (3 methods x 3 metrics)
        for fingerprints in out["fingerprints"].values():
            assert len(fingerprints) == 9
        # and the two hash seeds agree key for key
        first, second = (out["fingerprints"][str(s)] for s in (101, 202))
        assert first == second
