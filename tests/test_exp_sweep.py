"""Tests for the experiment-sweep engine (:mod:`repro.exp`).

The three contract pillars:

* **same-seed determinism** — running the same grid twice produces identical
  results, down to the canonical fingerprint;
* **parallel == serial** — a multi-worker sweep reproduces the serial sweep's
  per-trial results and aggregates exactly;
* **registry-driven enumeration** — an unspecified protocol axis sweeps every
  protocol in :mod:`repro.protocols.registry`, and the failure-free trials
  confirm each one solves NBAC.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    GridSpec,
    TrialSpec,
    make_cases,
    run_sweep,
    run_trial,
)
from repro.exp.spec import ProtocolSpec, coerce_axis, coerce_protocol
from repro.protocols.inbac import INBAC
from repro.protocols.registry import all_protocols, get_protocol, protocol_names
from repro.sim.faults import DelayRule, FaultPlan
from repro.sim.trace import digest_percentile


def stochastic_grid(seeds=(0, 1)):
    """A grid whose results depend on per-trial RNG state (UniformDelay)."""
    return GridSpec(
        protocols=["INBAC", "2PC", "PaxosCommit", "1NBAC"],
        systems=[(4, 1), (5, 2), (6, 2)],
        delays=[None, ("uniform", "uniform", {"lo": 0.2, "hi": 1.0})],
        faults=[None, ("crash P1", FaultPlan.crash(1, at=0.0))],
        seeds=list(seeds),
    )


# --------------------------------------------------------------------------- #
# grid expansion
# --------------------------------------------------------------------------- #
class TestGridSpec:
    def test_size_and_expansion(self):
        grid = stochastic_grid()
        assert grid.size == 4 * 3 * 2 * 2 * 1 * 2
        trials = grid.trials()
        assert len(trials) == grid.size
        assert [t.index for t in trials] == list(range(grid.size))

    def test_registry_driven_default_protocol_axis(self):
        grid = GridSpec(systems=[(5, 2)])
        labels = [coerce_protocol(p).label for p in grid.protocols]
        assert labels == protocol_names()

    def test_invalid_system_size_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(protocols=["INBAC"], systems=[(3, 3)])

    def test_duplicate_protocol_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(protocols=["INBAC", ("INBAC", INBAC)])

    def test_unknown_vote_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            GridSpec(protocols=["INBAC"], votes=["most-yes"])

    def test_derived_seed_is_order_independent(self):
        proto = coerce_protocol("INBAC")
        mk = lambda index, base: TrialSpec(
            index=index,
            protocol=proto,
            n=5,
            f=2,
            delay=coerce_axis("delays", None),
            fault=coerce_axis("faults", None),
            votes=coerce_axis("votes", "all-yes"),
            base_seed=base,
        )
        # the derived seed depends on coordinates + base seed, not the index
        assert mk(0, 7).derived_seed == mk(99, 7).derived_seed
        assert mk(0, 7).derived_seed != mk(0, 8).derived_seed

    def test_make_cases_joint_axes(self):
        trials = make_cases(
            [
                {"protocol": "INBAC", "n": 5, "f": 2, "votes": ("one-no", [1, 1, 0, 1, 1])},
                {"protocol": "INBAC", "n": 5, "f": 2, "fault": ("crash P1", FaultPlan.crash(1))},
            ]
        )
        assert [t.votes.label for t in trials] == ["one-no", "all-yes"]
        assert [t.fault.label for t in trials] == ["failure-free", "crash P1"]

    def test_make_cases_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            make_cases([{"protocol": "INBAC", "workers": 4}])


# --------------------------------------------------------------------------- #
# single trials
# --------------------------------------------------------------------------- #
class TestRunTrial:
    def test_nice_execution_measurements(self):
        trial = make_cases([{"protocol": "INBAC", "n": 5, "f": 2}])[0]
        result = run_trial(trial)
        assert result.error is None
        assert result.execution_class == "failure-free"
        assert result.all_committed
        assert result.broken() == ()
        # nice-execution complexity matches the registry oracle
        info = get_protocol("INBAC")
        assert result.last_decision == info.expected_delays(5, 2)
        assert result.messages_main == info.expected_messages(5, 2)

    def test_fault_plan_state_not_shared_between_trials(self):
        # nth_match makes DelayRule stateful; a shared plan instance must be
        # rebuilt per trial or the second trial would see a spent counter
        plan = FaultPlan(
            delay_rules=[DelayRule(nth_match=0, delay=50.0)], description="first msg late"
        )
        grid = GridSpec(
            protocols=["2PC"], systems=[(4, 1)], faults=[("late-first", plan)], seeds=[0, 1]
        )
        first, second = run_sweep(grid, workers=1).trials
        assert first.last_decision == second.last_decision
        assert first.messages_total == second.messages_total

    def test_trial_error_is_captured_not_raised(self):
        trial = make_cases([{"protocol": "INBAC", "n": 5, "f": 2,
                             "votes": ("truncated", [1, 1])}])[0]
        result = run_trial(trial)
        assert result.error is not None and "ConfigurationError" in result.error

    def test_a_misspelt_protocol_keyword_is_a_trial_error(self):
        # it used to be swallowed: the trial ran INBAC without the fast abort
        spec = ProtocolSpec("INBAC", INBAC, (("fast_abrot", True),))
        (result,) = run_sweep(GridSpec(protocols=[spec], systems=[(3, 1)]), workers=1).trials
        assert result.error is not None
        assert "TypeError" in result.error and "fast_abrot" in result.error

    def test_percentile_is_nearest_rank(self):
        def percentile(values, q):
            return digest_percentile(dict.fromkeys(values, 1), len(values), q)

        assert percentile([1, 2, 3, 4, 5, 6], 50) == 3
        assert percentile(list(range(1, 101)), 99) == 99
        assert percentile([42], 99) == 42
        assert percentile([], 50) is None

    def test_collector_attaches_extra(self):
        trial = make_cases([{"protocol": "INBAC", "n": 5, "f": 2}])[0]
        result = run_trial(trial, collector=lambda t, r: {"pids": sorted(r.processes)})
        assert result.extra == {"pids": [1, 2, 3, 4, 5]}


# --------------------------------------------------------------------------- #
# worker-count resolution
# --------------------------------------------------------------------------- #
class TestWorkerResolution:
    def tiny_grid(self):
        return GridSpec(protocols=["2PC"], systems=[(4, 1)])

    def test_env_override_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKERS", "2")
        sweep = run_sweep(self.tiny_grid())
        assert sweep.meta["requested_workers"] is None
        assert not sweep.errors()

    def test_non_numeric_env_raises_configuration_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXP_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="'many'"):
            run_sweep(self.tiny_grid())

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_non_positive_env_raises_configuration_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_EXP_WORKERS", value)
        with pytest.raises(ConfigurationError, match=value):
            run_sweep(self.tiny_grid())

    def test_non_positive_workers_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="-2"):
            run_sweep(self.tiny_grid(), workers=-2)

    def test_non_numeric_workers_argument_rejected(self):
        with pytest.raises(ConfigurationError, match="'four'"):
            run_sweep(self.tiny_grid(), workers="four")

    def test_explicit_workers_bypass_env(self, monkeypatch):
        # an explicit argument must win over (and not be poisoned by) the env
        monkeypatch.setenv("REPRO_EXP_WORKERS", "garbage")
        sweep = run_sweep(self.tiny_grid(), workers=1)
        assert not sweep.errors()


# --------------------------------------------------------------------------- #
# determinism and parallel equivalence
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_sweeps_are_identical(self):
        sweep_a = run_sweep(stochastic_grid(), workers=1)
        sweep_b = run_sweep(stochastic_grid(), workers=1)
        assert not sweep_a.errors() and not sweep_b.errors()
        assert sweep_a.fingerprint() == sweep_b.fingerprint()
        assert sweep_a.aggregate_fingerprint() == sweep_b.aggregate_fingerprint()

    def test_different_base_seed_changes_stochastic_trials(self):
        sweep_a = run_sweep(stochastic_grid(seeds=(0,)), workers=1)
        sweep_b = run_sweep(stochastic_grid(seeds=(2,)), workers=1)
        a = [t for t in sweep_a.trials if t.delay_label == "uniform"]
        b = [t for t in sweep_b.trials if t.delay_label == "uniform"]
        assert [t.derived_seed for t in a] != [t.derived_seed for t in b]
        # at least one measurement differs across the reseeded trials
        assert any(
            x.decision_latencies != y.decision_latencies for x, y in zip(a, b)
        )

    def test_parallel_reproduces_serial_exactly(self):
        # >= 4 protocols x >= 3 (n, f) points, stochastic delays included
        serial = run_sweep(stochastic_grid(), workers=1)
        parallel = run_sweep(stochastic_grid(), workers=3)
        assert serial.meta["mode"] == "serial"
        if parallel.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert not parallel.errors()
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.aggregate_fingerprint() == serial.aggregate_fingerprint()
        assert parallel.aggregate_rows() == serial.aggregate_rows()

    def test_parallel_handles_unpicklable_specs(self):
        # a lambda predicate in a literal plan must survive the (fork) pool boundary
        grid = GridSpec(
            protocols=["INBAC", "2PC", "PaxosCommit", "3PC"],
            systems=[(5, 2)],
            faults=[
                ("late tuples", FaultPlan(delay_rules=[
                    DelayRule(predicate=lambda p: isinstance(p, tuple), delay=30.0)])),
            ],
            votes=[("one-no", "one-no:1")],
        )
        serial = run_sweep(grid, workers=1)
        parallel = run_sweep(grid, workers=2)
        if parallel.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert parallel.fingerprint() == serial.fingerprint()


# --------------------------------------------------------------------------- #
# registry sweep and aggregation
# --------------------------------------------------------------------------- #
class TestRegistrySweep:
    def test_all_registry_protocols_solve_nbac_failure_free(self):
        grid = GridSpec(systems=[(4, 1), (5, 2), (6, 2)], max_time=400)
        sweep = run_sweep(grid)
        assert not sweep.errors(), [t.error for t in sweep.errors()]
        assert len(sweep) == len(all_protocols()) * 3
        for trial in sweep:
            assert not trial.broken(), (trial.protocol, trial.n, trial.f)
            assert trial.all_committed
        # every registered protocol appears under its registry name
        assert {t.protocol for t in sweep} == set(protocol_names())

    def test_aggregate_rows_group_seeds(self):
        grid = GridSpec(protocols=["INBAC", "2PC"], systems=[(5, 2)], seeds=[0, 1, 2])
        sweep = run_sweep(grid, workers=1)
        rows = sweep.aggregate_rows()
        assert len(rows) == 2
        for row in rows:
            assert row["trials"] == 3
            assert row["commit_rate"] == 1.0
            assert row["properties"] == "AVT"
        by_protocol = {r["protocol"]: r for r in rows}
        # deterministic delays: INBAC decides in 2, the registry oracle agrees
        assert by_protocol["INBAC"]["mean_delays"] == 2.0
        assert by_protocol["INBAC"]["p99_latency"] == 2.0

    def test_robustness_rows_quantify_over_trials(self):
        grid = GridSpec(
            protocols=["2PC", "INBAC"],
            systems=[(5, 2)],
            faults=[None, ("crash P1@1", FaultPlan.crash(1, at=1.0))],
            max_time=400,
        )
        sweep = run_sweep(grid, workers=1)
        rows = {r["protocol"]: r for r in sweep.robustness_rows()}
        assert rows["INBAC"]["failure-free"] == "AVT"
        assert rows["INBAC"]["crash-failure"] == "AVT"
        # 2PC blocks when its coordinator crashes: termination lost
        assert "T" not in rows["2PC"]["crash-failure"]

    def test_select(self):
        sweep = run_sweep(GridSpec(protocols=["INBAC", "2PC"], systems=[(5, 2)]), workers=1)
        picked = sweep.select(protocol="2PC")
        assert len(picked) == 1 and picked[0].protocol == "2PC"
