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

from conformance import ObservingProcess
from repro.exp import GridSpec, named_delay, named_fault, run_trial
from repro.exp.registry import delay_model_names, fault_plan_names
from repro.exp.spec import coerce_axis
from repro.protocols import INBAC, TwoPhaseCommit
from repro.sim.network import FixedDelay
from repro.sim.runner import Scheduler, Simulation
from repro.workloads.transactions import uniform_workload

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "kernel_fingerprints.json")

#: registered delay models registered after the heap path was gone, and the
#: frozen reference each must reproduce: the ``link`` model's default is a
#: fixed 1 U link, so its runs are ``fixed``'s, message for message
REFERENCE = {"link": "fixed"}

#: the registered fault plans that stand alone as a name ("plan" only carries
#: a literal FaultPlan onto the axis and builds nothing without one)
FAULT_NAMES = sorted(set(fault_plan_names()) - {"plan"})

#: one controlled protocol run per registered strategy, as (name, seed,
#: parameters) chosen so that every decision kind (defer, crash, recover)
#: actually applies
CONTROLLED = {
    "random-walk": ("random-walk", 3, dict(defer_prob=0.3, crash_prob=0.1)),
    "delay-reorder": ("delay-reorder", 1, dict(k=3, window=12)),
    "crash-point": ("crash-point", 0, dict(pid=2, point=1)),
    "crash-point+recover_after": (
        "crash-point", 0, dict(pid=2, point=1, recover_after=2),
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
    name, seed, params = CONTROLLED[label]
    sim = Simulation(
        n=5,
        f=2,
        process_class=INBAC,
        delay_model=named_delay("uniform").build(11),
        seed=11,
        trace_level="full",
    )
    controller = coerce_axis("schedules", (label, name, params)).build(seed)
    trace = sim.run([1] * 5, controller=controller).trace
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
            for delay_name in sorted(set(delay_model_names()) - set(REFERENCE))
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
        reference = REFERENCE.get(delay_name, delay_name)
        key = f"{protocol.__name__}/{reference}/{fault_name}"
        assert _run_fingerprint(protocol, delay_name, fault_name) == golden["matrix"][key]

    def test_golden_covers_exactly_the_registered_matrix(self, golden):
        assert sorted(golden["matrix"]) == sorted(
            f"{protocol}/{delay_name}/{fault_name}"
            for protocol in ("TwoPhaseCommit", "INBAC")
            for delay_name in set(delay_model_names()) - set(REFERENCE)
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
        # the table holds armed timers only: a defensive canceller adds nothing
        scheduler = Scheduler(n=4, f=1, delay_model=FixedDelay(1.0))
        scheduler.cancel_timer(1, "never-armed")
        assert scheduler._timers == {}

    def test_table_holds_armed_entries_only_and_tokens_are_never_reused(self):
        scheduler = Scheduler(n=4, f=1, delay_model=FixedDelay(1.0), max_time=10.0)
        scheduler.bind_processes(ObservingProcess)
        scheduler.set_timer(1, 1.0, "t")
        first = scheduler._timers[(1, "t")]
        scheduler.cancel_timer(1, "t")
        assert scheduler._timers == {}
        # cancel-then-rearm: the stale expiry still queued at 1.0 carries the
        # old token and loses to the new arm
        scheduler.set_timer(1, 2.0, "t")
        scheduler.set_timer(2, 3.0, "other")
        assert scheduler._timers[(1, "t")] > first
        assert len(set(scheduler._timers.values())) == 2
        scheduler.run()
        assert [(n, at) for _, n, at in scheduler.processes[1].of("timeout")] == [
            ("t", 2.0)
        ]
        assert len(scheduler.processes[2].of("timeout")) == 1
        assert scheduler._timers == {}  # a fired expiry took its entry

    @pytest.mark.parametrize("protocol, names_per_txn", [("2PC", 5), ("INBAC", 7)])
    def test_a_quiesced_cluster_trial_leaves_a_small_table(
        self, monkeypatch, protocol, names_per_txn
    ):
        """The ``cluster_sim`` shape: 400 transactions arm ``names_per_txn``
        timer names each; what is left at the end is what was in flight."""
        import repro.db.cluster as cluster

        schedulers = []

        class Capturing(Scheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                schedulers.append(self)

        monkeypatch.setattr(cluster, "Scheduler", Capturing)
        workload = uniform_workload(
            num_transactions=400, num_partitions=4, participants_per_txn=3,
            keys_per_partition=1000, seed=3,
        )
        report = cluster.run_cluster(
            cluster.ClusterConfig(
                num_partitions=4, commit_protocol=protocol, seed=3,
                max_time=5000.0, trace_level="counters",
            ),
            workload.transactions,
        )
        (scheduler,) = schedulers
        assert report.committed + report.aborted == 400
        armed_ever = next(scheduler._timer_tokens) - 1
        assert armed_ever >= 400 * names_per_txn
        # at most the last transaction's worth, not one key per name ever armed
        assert len(scheduler._timers) <= names_per_txn

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
