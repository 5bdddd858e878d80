"""The event kernel against its frozen reference, plus timer semantics.

The scheduler once carried two queues — a binary heap over ``(time,
priority, seq)`` keys and the bucket queue — and this file compared them run
by run.  The heap path is gone; what it produced is frozen in
``tests/goldens/kernel_fingerprints.json``, generated at the last commit that
still had it (``event_queue="heap"`` forced onto every ``Scheduler``).  A
kernel change is correct iff every fingerprint and every applied schedule
decision below still matches that file.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exp import GridSpec, named_delay, named_fault, run_trial
from repro.exp.registry import delay_model_names, fault_plan_names
from repro.explore.strategies import make_strategy
from repro.protocols import INBAC, TwoPhaseCommit
from repro.sim.network import FixedDelay
from repro.sim.runner import Scheduler, Simulation

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "kernel_fingerprints.json")

#: the registered fault plans that stand alone as a name ("plan" only carries
#: a literal FaultPlan onto the axis and builds nothing without one)
FAULT_NAMES = sorted(set(fault_plan_names()) - {"plan"})

#: one controlled protocol run per registered strategy, parameters chosen so
#: that every decision kind (defer, crash, recover) actually applies
CONTROLLED = {
    "random-walk": ("random-walk", dict(seed=3, defer_prob=0.3, crash_prob=0.1)),
    "delay-reorder": ("delay-reorder", dict(seed=1, k=3, window=12)),
    "crash-point": ("crash-point", dict(pid=2, point=1)),
    "crash-point+recover_after": (
        "crash-point", dict(pid=2, point=1, recover_after=2),
    ),
}


def _run_fingerprint(protocol, delay_name, fault_name, seed=7):
    sim = Simulation(
        n=4,
        f=1,
        process_class=protocol,
        delay_model=named_delay(delay_name).build(seed),
        fault_plan=named_fault(fault_name).build(),
        seed=seed,
        trace_level="full",
    )
    return sim.run(votes=[1, 1, 0, 1]).trace.fingerprint()


def _controlled_protocol_run(label):
    name, params = CONTROLLED[label]
    sim = Simulation(
        n=5,
        f=2,
        process_class=INBAC,
        delay_model=named_delay("uniform").build(11),
        seed=11,
        trace_level="full",
    )
    trace = sim.run([1] * 5, controller=make_strategy(name, **params)).trace
    return {
        "fingerprint": trace.fingerprint(),
        "schedule_decisions": [list(d) for d in trace.metadata["schedule_decisions"]],
    }


def _controlled_cluster_run():
    grid = GridSpec(
        protocols=["2PC"],
        systems=[(3, 1)],
        workloads=[("uniform3", "uniform", {"transactions": 4})],
        schedules=[("rw", "random-walk", {"defer_prob": 0.3})],
        seeds=[0],
        max_time=150.0,
    )
    result = run_trial(grid.trials()[0], trace_level="full")
    assert result.error is None
    return {
        "fingerprint": result.extra["trace_fingerprint"],
        "schedule_decisions": [
            list(d) for d in result.extra["schedule_trace"]["decisions"]
        ],
    }


def compute_kernel_fingerprints():
    """Everything the golden pins, computed on the scheduler as it stands.

    The generator that wrote the golden called this at the heap-path commit;
    the tests below check the same runs cell by cell.
    """
    return {
        "matrix": {
            f"{protocol.__name__}/{delay_name}/{fault_name}": _run_fingerprint(
                protocol, delay_name, fault_name
            )
            for protocol in (TwoPhaseCommit, INBAC)
            for delay_name in sorted(delay_model_names())
            for fault_name in FAULT_NAMES
        },
        "seeds": {
            f"INBAC/uniform/crash/{seed}": _run_fingerprint(
                INBAC, "uniform", "crash", seed=seed
            )
            for seed in (0, 1, 2)
        },
        "controlled": {label: _controlled_protocol_run(label) for label in CONTROLLED},
        "cluster": {"random-walk": _controlled_cluster_run()},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


class TestKernelGolden:
    @pytest.mark.parametrize("fault_name", FAULT_NAMES)
    @pytest.mark.parametrize("delay_name", sorted(delay_model_names()))
    @pytest.mark.parametrize("protocol", [TwoPhaseCommit, INBAC])
    def test_fingerprint_matches_heap_reference(
        self, golden, protocol, delay_name, fault_name
    ):
        # the full registered matrix, unbounded models (flaky links) included
        key = f"{protocol.__name__}/{delay_name}/{fault_name}"
        assert _run_fingerprint(protocol, delay_name, fault_name) == golden["matrix"][key]

    def test_golden_covers_exactly_the_registered_matrix(self, golden):
        assert sorted(golden["matrix"]) == sorted(
            f"{protocol}/{delay_name}/{fault_name}"
            for protocol in ("TwoPhaseCommit", "INBAC")
            for delay_name in delay_model_names()
            for fault_name in FAULT_NAMES
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_holds_across_seeds(self, golden, seed):
        fingerprint = _run_fingerprint(INBAC, "uniform", "crash", seed=seed)
        assert fingerprint == golden["seeds"][f"INBAC/uniform/crash/{seed}"]

    @pytest.mark.parametrize("label", sorted(CONTROLLED))
    def test_controlled_protocol_run_matches_heap_reference(self, golden, label):
        # fingerprint AND the applied decisions: the controller saw the same
        # events at the same steps as it did over the heap
        assert _controlled_protocol_run(label) == golden["controlled"][label]

    def test_controlled_runs_exercise_every_decision_kind(self, golden):
        kinds = {
            kind
            for run in golden["controlled"].values()
            for _, kind, _ in run["schedule_decisions"]
        }
        assert kinds == {"defer", "crash", "recover"}

    def test_controlled_cluster_run_matches_heap_reference(self, golden):
        assert _controlled_cluster_run() == golden["cluster"]["random-walk"]


class TestCancelTimer:
    def test_cancel_of_never_armed_timer_is_a_noop(self):
        # regression: cancelling a name that was never armed used to insert
        # a generation entry, growing the map for defensive cancellers
        scheduler = Scheduler(n=4, f=1, delay_model=FixedDelay(1.0))
        scheduler.cancel_timer(1, "never-armed")
        assert (1, "never-armed") not in scheduler._timer_generation

    def test_cancel_of_armed_timer_still_suppresses_it(self):
        fired = []

        class OneTimer(TwoPhaseCommit):
            def on_start(self):
                super().on_start()
                if self.pid == 1:
                    self.env.set_timer(2.0, "probe")
                    self.env.cancel_timer("probe")

            def timeout(self, name):
                if name == "probe":
                    fired.append(self.pid)
                super().timeout(name)

        sim = Simulation(
            n=4,
            f=1,
            process_class=OneTimer,
            delay_model=FixedDelay(0.5),
            max_time=10.0,
            # keep running past the decision so the timer window elapses
            stop_when_all_correct_decided=False,
        )
        sim.run(votes=[1, 1, 1, 1])
        assert fired == []

    def test_rearmed_timer_fires_once(self):
        fired = []

        class Rearm(TwoPhaseCommit):
            def on_start(self):
                super().on_start()
                if self.pid == 1:
                    self.env.set_timer(1.0, "probe")
                    self.env.set_timer(2.0, "probe")  # supersedes the first

            def timeout(self, name):
                if name == "probe":
                    fired.append(self.env.now())
                super().timeout(name)

        sim = Simulation(
            n=4,
            f=1,
            process_class=Rearm,
            delay_model=FixedDelay(0.2),
            max_time=10.0,
            stop_when_all_correct_decided=False,
        )
        sim.run(votes=[1, 1, 1, 1])
        assert fired == [2.0]
