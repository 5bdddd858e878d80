"""A finished trial is freed by reference counting, not by the cycle collector.

Every run is built as a reference cycle — the kernel holds its processes,
each process' env holds the kernel, a consensus component holds its host and
a bound method of it, an embedded commit instance's env holds its partition —
so the engine cuts those edges once a trial is condensed
(:meth:`repro.sim.runner.Scheduler.release`).  Each case below disables the
collector, runs one trial and asserts ``gc.collect() == 0``: nothing the
trial allocated was left for the collector to find.

That is why ``run_trial`` pauses the collector for the whole trial: a
collection inside it could only trace live objects.  The last classes hold
the pause itself — no collection starts inside a trial, and the collector
comes back as the caller left it, however the trial ends.
"""

from __future__ import annotations

import gc

import pytest

from repro.exp import GridSpec, named_fault, named_workload
from repro.exp.engine import run_trial
from repro.protocols.registry import protocol_names
from repro.protocols.two_phase import TwoPhaseCommit

SLICES = {
    "fixed": dict(delays=["fixed"]),
    "uniform": dict(delays=["uniform"]),
    "flaky-link": dict(delays=["flaky-link"]),
    "crash@0.5": dict(faults=[named_fault("crash", at=0.5)]),
    "random-walk": dict(schedules=["random-walk"]),
    "mixed:0.3": dict(votes=["mixed:0.3"]),
}
LEVELS = ("full", "counters")
CLUSTER_FAULTS = {"failure-free": None, "rejoin": named_fault("rejoin")}
CLUSTER_PROTOCOLS = ("2PC", "INBAC", "PaxosCommit", "3PC")
CLUSTER_DELAYS = ("fixed", "uniform", "flaky-link")


def trial(protocol: str, slice_name: str, n: int = 5, f: int = 2, seed: int = 3):
    grid = GridSpec(
        protocols=[protocol], systems=[(n, f)], seeds=[seed], **SLICES[slice_name]
    )
    (only,) = grid.trials()
    return only


def cluster_trial(fault_name: str, protocol: str = "INBAC", **axes):
    grid = GridSpec(
        protocols=[protocol],
        systems=[(4, 1)],
        faults=[CLUSTER_FAULTS[fault_name]],
        workloads=[named_workload("uniform", transactions=12, participants_per_txn=3)],
        seeds=[5],
        max_time=10000,
        **axes,
    )
    (only,) = grid.trials()
    return only


def walked_cluster_trial(protocol: str, delay: str):
    return cluster_trial(
        "failure-free", protocol, delays=[delay], schedules=["random-walk"]
    )


def garbage_after(*trials, trace_level=None) -> int:
    """Cyclic objects the collector finds after running ``trials`` in order."""
    gc.collect()
    gc.disable()
    try:
        for spec in trials:
            result = run_trial(spec, trace_level=trace_level)
            assert result.error is None, result.error
        del result
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module", autouse=True)
def warm():
    """Import what trials import lazily: a class built at import is garbage once."""
    for slice_name in SLICES:
        for level in LEVELS:
            run_trial(trial("INBAC", slice_name), trace_level=level)
    for fault_name in CLUSTER_FAULTS:
        run_trial(cluster_trial(fault_name))
    for delay in CLUSTER_DELAYS:
        run_trial(walked_cluster_trial("INBAC", delay))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("slice_name", list(SLICES))
@pytest.mark.parametrize("protocol", protocol_names())
def test_a_protocol_trial_leaves_no_cyclic_garbage(protocol, slice_name, level):
    assert garbage_after(trial(protocol, slice_name), trace_level=level) == 0


def test_a_repeated_cell_leaves_no_cyclic_garbage():
    # the second trial reuses the cell's memoised Simulation
    first = trial("PaxosCommit", "uniform", seed=1)
    again = trial("PaxosCommit", "uniform", seed=2)
    assert garbage_after(first, again) == 0


def test_a_cell_switch_leaves_no_cyclic_garbage():
    # the second cell evicts the first one's Simulation from the memo
    assert garbage_after(trial("INBAC", "fixed"), trial("2PC", "fixed", n=4, f=1)) == 0


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("fault_name", list(CLUSTER_FAULTS))
def test_a_cluster_trial_leaves_no_cyclic_garbage(fault_name, level):
    spec = cluster_trial(fault_name)
    assert garbage_after(spec, trace_level=level) == 0


@pytest.mark.parametrize("delay", CLUSTER_DELAYS)
@pytest.mark.parametrize("protocol", CLUSTER_PROTOCOLS)
def test_a_walked_cluster_trial_leaves_no_cyclic_garbage(protocol, delay):
    # deferrals and injected crashes under every delay family: the controller
    # and the injected-crash bookkeeping must not close a cycle either
    assert garbage_after(walked_cluster_trial(protocol, delay)) == 0


def test_the_rejoin_trial_really_rejoins():
    # the rejoin case above covers the replaced incarnation only if one was
    result = run_trial(
        cluster_trial("rejoin"),
        collector=lambda spec, report: {"rejoins": len(report.recovery_events)},
    )
    assert result.error is None and result.termination
    assert result.crashes == {1: 6.0} and result.extra["rejoins"] == 1


# --------------------------------------------------------------------------- #
# the pause
# --------------------------------------------------------------------------- #
class RaisesOnPropose(TwoPhaseCommit):
    protocol_name = "RaisesOnPropose"

    def on_propose(self, value):
        raise RuntimeError("the simulation raised")


class Escapes(BaseException):
    """Not an ``Exception``: the engine does not capture it."""


def raising(exc):
    def collector(spec, outcome):
        raise exc

    return collector


def collections_started_during(spec) -> list:
    """Generations of the collections that start while ``run_trial(spec)`` runs.

    Generation 0 is primed to just under its threshold first, so at a parent
    without the pause the trial's first allocations start a collection.
    """
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.disable()
    primer = [[] for _ in range(gc.get_threshold()[0] - 100)]
    gc.callbacks.append(hook)
    gc.enable()
    try:
        result = run_trial(spec)
    finally:
        gc.callbacks.remove(hook)
    assert result.error is None, result.error
    assert gc.isenabled()
    del primer
    return started


class TestThePause:
    def test_no_collection_starts_inside_a_protocol_trial(self):
        assert collections_started_during(trial("INBAC", "fixed", n=50, f=10)) == []

    def test_no_collection_starts_inside_a_cluster_trial(self):
        assert collections_started_during(cluster_trial("rejoin")) == []

    def test_the_collector_is_back_on_after_a_simulation_that_raised(self):
        grid = GridSpec(protocols=[("raises", RaisesOnPropose)], systems=[(4, 1)])
        (spec,) = grid.trials()
        result = run_trial(spec)
        assert "the simulation raised" in result.error
        assert gc.isenabled()

    def test_the_collector_is_back_on_after_a_collector_that_raised(self):
        result = run_trial(trial("2PC", "fixed"), collector=raising(RuntimeError("hook")))
        assert "RuntimeError: hook" in result.error
        assert gc.isenabled()

    def test_the_collector_is_back_on_when_an_error_escapes_the_trial(self):
        with pytest.raises(Escapes):
            run_trial(trial("2PC", "fixed"), collector=raising(Escapes()))
        assert gc.isenabled()

    def test_the_collector_stays_off_if_the_caller_turned_it_off(self):
        gc.disable()
        try:
            assert run_trial(trial("2PC", "fixed")).error is None
            assert not gc.isenabled()
        finally:
            gc.enable()
