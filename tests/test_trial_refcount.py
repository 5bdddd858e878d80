"""A finished trial is freed by reference counting, not by the cycle collector.

Every run is built as a reference cycle — the kernel holds its processes,
each process' env holds the kernel, a consensus component holds its host and
a bound method of it, an embedded commit instance's env holds its partition —
so the engine cuts those edges once a trial is condensed
(:meth:`repro.sim.runner.Scheduler.release`).  Each case below disables the
collector, runs one trial and asserts ``gc.collect() == 0``: nothing the
trial allocated was left for the collector to find.
"""

from __future__ import annotations

import gc

import pytest

from repro.exp import GridSpec, named_fault, named_workload
from repro.exp.engine import run_trial
from repro.protocols.registry import protocol_names

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


def trial(protocol: str, slice_name: str, n: int = 5, f: int = 2, seed: int = 3):
    grid = GridSpec(
        protocols=[protocol], systems=[(n, f)], seeds=[seed], **SLICES[slice_name]
    )
    (only,) = grid.trials()
    return only


def cluster_trial(fault_name: str, protocol: str = "INBAC"):
    grid = GridSpec(
        protocols=[protocol],
        systems=[(4, 1)],
        faults=[CLUSTER_FAULTS[fault_name]],
        workloads=[named_workload("uniform", transactions=12, participants_per_txn=3)],
        seeds=[5],
        max_time=10000,
    )
    (only,) = grid.trials()
    return only


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


def test_the_rejoin_trial_really_rejoins():
    # the rejoin case above covers the replaced incarnation only if one was
    result = run_trial(
        cluster_trial("rejoin"),
        collector=lambda spec, report: {"rejoins": len(report.recovery_events)},
    )
    assert result.error is None and result.termination
    assert result.crashes == {1: 6.0} and result.extra["rejoins"] == 1
