"""Robustness matrix: every protocol satisfies its cell across failure classes.

For each registered protocol that claims a Table 1 cell, run a battery of
crash-failure and network-failure executions and check that the properties the
cell requires for that execution class all hold (experiment E9 in miniature).
"""

from __future__ import annotations

import pytest

from repro.core.checker import evaluate_problem
from repro.core.lattice import Prop
from repro.exp import GridSpec, run_sweep
from repro.protocols.registry import all_protocols, get_protocol, protocol_names
from repro.sim.faults import FaultPlan
from repro.sim.runner import Simulation

N, F = 5, 2

CRASH_PLANS = [
    FaultPlan.failure_free(),
    FaultPlan.crash(1, at=0.0),
    FaultPlan.crash(3, at=0.0),
    FaultPlan.crash(5, at=1.0),
    FaultPlan.crashes_at({1: 0.0, 4: 2.0}),
]

NETWORK_PLANS = [
    FaultPlan.delay_messages(src=1, delay=35.0),
    FaultPlan.delay_messages(dst=5, delay=35.0, after_time=0.5),
    FaultPlan.crash(2, at=0.0).merged_with(
        FaultPlan.delay_messages(src=3, delay=30.0, after_time=1.0)
    ),
]

VOTE_PATTERNS = [[1] * N, [1, 1, 0, 1, 1]]


def _run(protocol_name, votes, plan):
    info = get_protocol(protocol_name)
    sim = Simulation(
        n=N, f=F, process_class=info.cls, fault_plan=plan, max_time=400, seed=1
    )
    return sim.run(votes)


@pytest.mark.parametrize(
    "protocol_name",
    [name for name, info in sorted(all_protocols().items()) if info.cell is not None],
)
def test_protocol_satisfies_its_cell_under_crash_failures(protocol_name):
    info = get_protocol(protocol_name)
    for plan in CRASH_PLANS:
        for votes in VOTE_PATTERNS:
            result = _run(protocol_name, votes, plan)
            evaluation = evaluate_problem(result.trace, info.cell)
            assert evaluation.satisfied, (
                f"{protocol_name} under {plan.description} with votes {votes}: "
                f"{evaluation.failures}"
            )


@pytest.mark.parametrize(
    "protocol_name",
    [name for name, info in sorted(all_protocols().items()) if info.cell is not None],
)
def test_protocol_satisfies_its_cell_under_network_failures(protocol_name):
    info = get_protocol(protocol_name)
    for plan in NETWORK_PLANS:
        for votes in VOTE_PATTERNS:
            result = _run(protocol_name, votes, plan)
            evaluation = evaluate_problem(result.trace, info.cell)
            assert evaluation.satisfied, (
                f"{protocol_name} under {plan.description} with votes {votes}: "
                f"{evaluation.failures}"
            )


def test_indulgent_protocols_solve_nbac_under_every_plan():
    """Definition 3: every network-failure execution of an indulgent protocol
    solves NBAC outright."""
    indulgent = [n for n, info in all_protocols().items() if info.solves_indulgent]
    assert set(indulgent) >= {"INBAC", "(2n-2+f)NBAC", "PaxosCommit", "FasterPaxosCommit"}
    for name in indulgent:
        for plan in CRASH_PLANS + NETWORK_PLANS:
            result = _run(name, [1] * N, plan)
            from repro.core.checker import check_nbac

            report = check_nbac(result.trace)
            assert report.solves_nbac(), (name, plan.description, report.violations())


def test_2pc_is_the_only_blocking_protocol_in_the_registry():
    blocking = [name for name, info in all_protocols().items() if info.blocking]
    assert blocking == ["2PC"]


# the registry's default ``crash`` (P1 at 5 U) and P1..P3 at 2, 3 and 5 U:
# every plan whose crash may lie after the other processes decide
LATE_CRASHES = [("crash", "crash")] + [
    (f"crash-P{pid}@{at}", "crash", {"pid": pid, "at": float(at)})
    for pid in (1, 2, 3)
    for at in (2, 3, 5)
]


def test_no_process_that_never_crashed_is_left_undecided():
    """A run stops once every process that has not crashed has decided, so a
    crash the plan places after the others decide still happens.  Stopping
    before it left the doomed process undecided and never crashed: a
    termination violation the run made up, in 35 of these 390 trials."""
    sweep = run_sweep(
        GridSpec(
            protocols=protocol_names(),
            systems=[(3, 1), (4, 1), (5, 2)],
            faults=LATE_CRASHES,
            votes=["all-yes"],
        )
    )
    assert len(sweep.trials) == len(protocol_names()) * 3 * len(LATE_CRASHES)
    broken = set()
    for trial in sweep.trials:
        cell = get_protocol(trial.protocol).cell
        if cell is not None and Prop.TERMINATION in cell.cf:
            running = set(range(1, trial.n + 1)) - trial.crashes.keys()
            assert running <= trial.decisions.keys(), trial.key()
        if trial.broken():
            broken.add((trial.protocol, trial.broken()))
    # only aNBAC, whose cell lacks T under crashes, may leave one undecided
    assert broken <= {("aNBAC", ("termination",))}
