"""Nothing without a caller: the shape of the code that assembles a run.

Four things fix an execution — the protocol, the votes, each message's delay
and the crashes — and the code that puts a run together states each once.
What it used to carry beside them had no caller that needed it: a
``Network`` object holding only the delay model and a copy of the fault
plan's delay rules (the plan applies its own rules,
``FaultPlan.transit_delay``), a one-slot module-level memo of the sweep
engine's last ``Simulation`` (a build costs microseconds against a trial's
hundreds), and four ``RetryPolicy`` backoff knobs that nothing set.  They
are refused here so none comes back as a few innocent-looking lines.
"""

from __future__ import annotations

import dataclasses

import repro.exp.engine as engine
import repro.sim.network as network
from repro.db.coordinator import RetryPolicy
from repro.exp import GridSpec, run_sweep
from repro.sim.runner import Scheduler, Simulation


def _holds_a_simulation(value) -> bool:
    if isinstance(value, Simulation):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_a_simulation(item) for item in value)
    return False


def test_the_run_assembly_path_keeps_nothing_without_a_caller():
    assert not hasattr(network, "Network")

    scheduler = Scheduler(4, 1)
    assert hasattr(scheduler, "delay_model")
    assert not hasattr(scheduler, "network")

    fields = tuple(field.name for field in dataclasses.fields(RetryPolicy))
    assert fields == ("max_attempts", "timeout_units")

    # after a trial has run, the engine module holds no Simulation
    sweep = run_sweep(GridSpec(protocols=["2PC"], systems=[(3, 1)]), workers=1)
    assert sweep.errors() == []
    kept = [name for name, value in vars(engine).items() if _holds_a_simulation(value)]
    assert kept == []
