"""Tests for the two trace levels of the simulation core.

The contract: ``trace_level="counters"`` (a :class:`repro.sim.trace.CounterTrace`)
never allocates a :class:`~repro.sim.trace.MessageRecord`, yet every
aggregate-level measurement — per-module message counts, decision times,
messages-received-by-deadline, property checks — answers byte-identically to
a full-trace run of the same execution.  Swept over a grid, that means
identical TrialResults, identical aggregate rows and identical
``SweepAggregate`` fingerprints across levels, serial and parallel, for bare
protocol trials and for cluster/workload trials alike.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.metrics import messages_until_last_decision
from repro.errors import ConfigurationError, SimulationError
from repro.exp import (
    GridSpec,
    SweepResult,
    make_cases,
    run_sweep,
    run_trial,
    run_trials,
)
from repro.sim.faults import FaultPlan
from repro.sim.network import UniformDelay
from repro.sim.runner import Scheduler, Simulation
from repro.sim.trace import CounterTrace, Trace
from repro.workloads import bank_transfer_workload


def stochastic_grid(seeds=(0, 1, 2), **overrides):
    params = dict(
        protocols=["INBAC", "2PC", "PaxosCommit"],
        systems=[(4, 1), (5, 2)],
        delays=[None, ("uniform", "uniform", {"lo": 0.2, "hi": 1.0})],
        faults=[None, ("crash P1", FaultPlan.crash(1, at=0.0))],
        seeds=list(seeds),
    )
    params.update(overrides)
    return GridSpec(**params)


def inbac_grid(n, f, trials):
    """INBAC alone at one larger system, f = n/5: thousands of messages per trial."""
    return GridSpec(
        protocols=["INBAC"], systems=[(n, f)], seeds=range(trials), max_time=1000
    )


def cluster_grid(**overrides):
    params = dict(
        protocols=["2PC", "INBAC"],
        systems=[(4, 1)],
        workloads=[
            ("bank", bank_transfer_workload(num_transfers=6, num_partitions=4, seed=13))
        ],
        seeds=[7, 8],
        max_time=2000.0,
    )
    params.update(overrides)
    return GridSpec(**params)


# --------------------------------------------------------------------------- #
# single executions: CounterTrace answers == Trace answers
# --------------------------------------------------------------------------- #
class TestCounterTrace:
    def run_both(self, **kwargs):
        from repro.protocols.inbac import INBAC

        params = dict(n=5, f=2, process_class=INBAC)
        params.update(kwargs)
        full = Simulation(trace_level="full", **params).run([1] * params["n"])
        fast = Simulation(trace_level="counters", **params).run([1] * params["n"])
        return full.trace, fast.trace

    def test_aggregate_queries_identical(self):
        full, fast = self.run_both()
        assert isinstance(full, Trace) and isinstance(fast, CounterTrace)
        assert fast.message_count() == full.message_count()
        assert fast.message_count(module="main") == full.message_count(module="main")
        assert fast.module_histogram() == full.module_histogram()
        assert fast.decisions.keys() == full.decisions.keys()
        assert fast.last_decision_time() == full.last_decision_time()
        assert fast.first_decision_time() == full.first_decision_time()
        assert fast.end_time == full.end_time
        last = full.last_decision_time()
        assert fast.messages_received_by(last) == full.messages_received_by(last)
        assert fast.messages_received_by(0.5) == full.messages_received_by(0.5)
        assert fast.correct_pids() == full.correct_pids()
        assert messages_until_last_decision(fast) == messages_until_last_decision(full)

    def test_crashes_and_proposals_recorded(self):
        full, fast = self.run_both(fault_plan=FaultPlan.crash(1, at=0.0), max_time=50)
        assert fast.crashes == full.crashes == {1: 0.0}
        assert fast.votes() == full.votes()

    def test_no_message_records_kept(self):
        _, fast = self.run_both()
        assert fast.messages == []
        assert fast.counted_total > 0

    def test_per_message_queries_raise(self):
        _, fast = self.run_both()
        for query in (
            fast.counted_messages,
            fast.causal_depth,
        ):
            with pytest.raises(SimulationError, match="counters"):
                query()

    def test_scheduler_batch_tallies_match_record_send(self):
        # Scheduler.send_many tallies the counters level once per broadcast,
        # through CounterTrace.record_send_batch (record_send is its
        # one-message case); this guards the per-batch tally against drifting
        # from the per-message one: replaying a full-level run's records one
        # at a time must land the same values in the same fields
        from repro.protocols.inbac import INBAC

        for make_delay in (lambda: None, lambda: UniformDelay(0.2, 1.0, seed=4)):
            full, driven = (
                Simulation(
                    n=5, f=2, process_class=INBAC, trace_level=level,
                    delay_model=make_delay(),
                ).run([1] * 5).trace
                for level in ("full", "counters")
            )
            replayed = CounterTrace(n=5, f=2)
            for m in full.messages:
                replayed.record_send(
                    m.msg_id, m.src, m.dst, m.payload, m.send_time, m.recv_time,
                    m.counted, m.module,
                )
            assert replayed.counted_total == driven.counted_total > 0
            assert replayed.module_counts == driven.module_counts
            assert replayed.recv_time_counts == driven.recv_time_counts

    def test_property_checks_identical(self):
        from repro.core.checker import check_nbac

        full, fast = self.run_both()
        report_full = check_nbac(full)
        report_fast = check_nbac(fast)
        assert report_fast.solves_nbac() == report_full.solves_nbac() is True
        assert report_fast == report_full

    def test_scheduler_rejects_unknown_level(self):
        with pytest.raises(ConfigurationError, match="trace_level"):
            Scheduler(n=4, f=1, trace_level="audit")
        with pytest.raises(ConfigurationError, match="trace_level"):
            Simulation(n=4, f=1, process_class=object, trace_level="audit")


# --------------------------------------------------------------------------- #
# swept: TrialResults and aggregates identical across levels
# --------------------------------------------------------------------------- #
class TestSweepEquivalence:
    def test_run_trial_identical_across_levels(self):
        trials = make_cases(
            [
                {"protocol": "INBAC", "n": 5, "f": 2},
                {"protocol": "2PC", "n": 5, "f": 2,
                 "fault": ("crash P1", FaultPlan.crash(1, at=0.0)), "max_time": 50},
            ]
        )
        for trial in trials:
            full = run_trial(trial, trace_level="full")
            fast = run_trial(trial, trace_level="counters")
            assert full.error is None and fast.error is None
            assert dataclasses.asdict(fast) == dataclasses.asdict(full)

    @pytest.mark.parametrize(
        "grid",
        [
            stochastic_grid,
            lambda: inbac_grid(20, 4, trials=40),
            lambda: inbac_grid(100, 20, trials=16),
        ],
        ids=["small-systems", "inbac-20-4", "inbac-100-20"],
    )
    def test_aggregate_fingerprints_identical_serial(self, grid):
        full_level = run_sweep(grid(), workers=1, mode="aggregate", trace_level="full")
        counters = run_sweep(
            grid(), workers=1, mode="aggregate", trace_level="counters"
        )
        in_memory = run_sweep(grid(), workers=1)
        assert full_level.error_count == counters.error_count == 0
        assert counters.aggregate_rows() == full_level.aggregate_rows()
        assert (
            counters.aggregate_fingerprint()
            == full_level.aggregate_fingerprint()
            == in_memory.aggregate_fingerprint()
        )
        assert counters.robustness_rows() == full_level.robustness_rows()

    def test_aggregate_fingerprints_identical_parallel(self):
        serial = run_sweep(
            stochastic_grid(), workers=1, mode="aggregate", trace_level="counters"
        )
        parallel = run_sweep(
            stochastic_grid(), workers=3, mode="aggregate", trace_level="counters"
        )
        if parallel.meta["mode"] != "parallel":
            pytest.skip("fork start method unavailable; parallel path not exercised")
        assert parallel.aggregate_fingerprint() == serial.aggregate_fingerprint()

    def test_cluster_trials_identical_across_levels(self):
        full_level = run_sweep(
            cluster_grid(), workers=1, mode="aggregate", trace_level="full"
        )
        counters = run_sweep(
            cluster_grid(), workers=1, mode="aggregate", trace_level="counters"
        )
        assert counters.error_count == full_level.error_count == 0
        assert counters.aggregate_rows() == full_level.aggregate_rows()
        assert counters.aggregate_fingerprint() == full_level.aggregate_fingerprint()

    def test_full_sweep_mode_identical_across_levels(self):
        # mode="full" materialises TrialResults; the per-trial fingerprint
        # (not just the aggregate one) must match across levels
        a = run_sweep(stochastic_grid(seeds=(0,)), workers=1, trace_level="full")
        b = run_sweep(stochastic_grid(seeds=(0,)), workers=1, trace_level="counters")
        assert b.fingerprint() == a.fingerprint()


# --------------------------------------------------------------------------- #
# defaults and precedence
# --------------------------------------------------------------------------- #
class MetaSink:
    """A custom sink (not a SweepResult) that keeps the engine's meta."""

    def __init__(self):
        self.meta = {}

    def fold(self, trial):
        pass


class TestLevelSelection:
    def tiny(self, **overrides):
        return stochastic_grid(seeds=(0,), protocols=["2PC"], systems=[(4, 1)],
                               delays=[None], faults=[None], **overrides)

    def test_aggregate_mode_defaults_to_counters(self):
        agg = run_sweep(self.tiny(), workers=1, mode="aggregate")
        assert agg.meta["trace_level"] == "counters"

    def test_full_mode_defaults_to_full(self):
        sweep = run_sweep(self.tiny(), workers=1)
        assert sweep.meta["trace_level"] == "full"

    def test_collector_keeps_full_traces_in_aggregate_mode(self):
        seen = []

        def collector(trial, result):
            seen.append(type(result.trace).__name__)
            return {}

        agg = run_sweep(self.tiny(), workers=1, mode="aggregate", collector=collector)
        assert agg.meta["trace_level"] == "full"
        assert seen == ["Trace"]

    def test_a_custom_sink_defaults_to_counters(self):
        sink = run_sweep(self.tiny(), workers=1, reducer=MetaSink())
        assert sink.meta["trace_level"] == "counters"

    def test_a_custom_sink_with_a_collector_keeps_full_traces(self):
        seen = []

        def collector(trial, result):
            seen.append(type(result.trace).__name__)
            return {}

        sink = run_sweep(self.tiny(), workers=1, reducer=MetaSink(), collector=collector)
        assert sink.meta["trace_level"] == "full"
        assert seen == ["Trace"]

    def test_a_sweep_result_reducer_runs_at_full(self):
        # the sink, not the mode, decides: a SweepResult keeps whole trials
        sweep = run_sweep(self.tiny(), workers=1, mode="aggregate", reducer=SweepResult())
        assert sweep.meta["trace_level"] == "full"
        assert sweep.meta["sweep_mode"] == "full"

    def test_override_reflected_in_meta(self):
        sweep = run_sweep(self.tiny(), workers=1, trace_level="counters")
        assert sweep.meta["trace_level"] == "counters"

    def test_the_sweep_level_reaches_the_scheduler(self):
        seen = []

        def collector(trial, result):
            seen.append(type(result.trace).__name__)
            return {}

        # a counters override wins over the collector-keeps-full-traces default
        run_sweep(self.tiny(), workers=1, trace_level="counters", collector=collector)
        assert seen == ["CounterTrace"]

    def test_collector_failure_at_counters_is_captured_per_trial(self):
        # a collector that touches per-message queries at the counters level
        # fails *per trial* (TrialResult.error), never aborting the sweep
        def needs_messages(trial, result):
            return {"counted": len(result.trace.counted_messages())}

        agg = run_sweep(
            self.tiny(),
            workers=1,
            mode="aggregate",
            trace_level="counters",
            collector=needs_messages,
        )
        assert agg.error_count == len(agg)
        assert "SimulationError" in agg.sample_errors[0]

    def test_unknown_levels_rejected_everywhere(self):
        with pytest.raises(ConfigurationError, match="trace_level"):
            run_sweep(self.tiny(), workers=1, trace_level="audit")
        with pytest.raises(ConfigurationError, match="trace_level"):
            run_trials(self.tiny().trials(), workers=1, trace_level="audit")

    def test_only_the_sweep_takes_a_level(self):
        with pytest.raises(ConfigurationError, match="trace_level"):
            make_cases([{"protocol": "2PC", "n": 4, "f": 1, "trace_level": "full"}])
        with pytest.raises(TypeError, match="trace_level"):
            GridSpec(protocols=["2PC"], systems=[(4, 1)], trace_level="full")
        with pytest.raises(TypeError, match="trace_level"):
            dataclasses.replace(self.tiny().trials()[0], trace_level="full")

    def test_trace_level_does_not_change_derived_seeds(self):
        # the level is the sweep's, never the trial's: the same grid swept at
        # either level replays the exact same per-trial seeds
        grid = stochastic_grid(seeds=(0, 1), protocols=["2PC"], systems=[(4, 1)])
        full_level = run_sweep(grid, workers=1, trace_level="full")
        counters = run_sweep(grid, workers=1, trace_level="counters")
        assert [t.derived_seed for t in counters] == [
            t.derived_seed for t in full_level
        ]
