"""E6 — Figure 1: the INBAC state transition after 2U.

Figure 1 of the paper is the decision diagram a process runs at time 2U:

* ``f`` correct acks containing all ``n`` votes  -> decide AND(votes);
* acks present but votes missing                -> cons-propose AND / 0;
* no ack from any backup (P > f)                -> ask for more acks, wait for
  ``>= n - f`` messages, then decide or cons-propose;
* processes P1..Pf always cons-propose at 2U when they cannot decide.

The benchmark drives INBAC through a battery of executions designed to hit
every branch, reports how often each branch was taken and asserts full branch
coverage — the executable equivalent of reproducing the figure.

The battery is a :func:`repro.exp.make_cases` scenario list (votes and fault
plan vary *together*, so it is not a cross product) run through
:func:`repro.exp.run_trials`; a collector extracts each process' branch log
inside the worker, since live process objects never cross the pool boundary.
"""

from __future__ import annotations

from collections import Counter

from _helpers import attach_rows
from repro.analysis import render_table
from repro.exp import make_cases, run_trials
from repro.protocols.inbac import (
    BRANCH_ASK_HELP,
    BRANCH_CONS_AND,
    BRANCH_CONS_ZERO,
    BRANCH_CONSENSUS_DECIDE,
    BRANCH_FAST_DECIDE,
    BRANCH_HELPED_CONS_AND,
    BRANCH_HELPED_CONS_ZERO,
    BRANCH_HELPED_FAST,
    INBAC,
)
from repro.sim.faults import DelayRule, FaultPlan

N, F = 5, 2


def _is_vote_payload(payload) -> bool:
    return payload[0] == "V"


SCENARIOS = [
    ("nice execution", [1] * N, None),
    ("one no vote", [1, 1, 0, 1, 1], None),
    ("backup P1 crashes at 0", [1] * N, FaultPlan.crash(1, at=0.0)),
    ("both backups crash at 0", [1] * N, FaultPlan.crashes_at({1: 0.0, 2: 0.0})),
    (
        "acks from P1 delayed",
        [1] * N,
        FaultPlan(delay_rules=[DelayRule(src=1, after_time=0.5, delay=40.0)]),
    ),
    (
        "all acks to P4 delayed",
        [1] * N,
        FaultPlan(delay_rules=[DelayRule(dst=4, after_time=0.5, delay=40.0)]),
    ),
    (
        "votes to backups delayed",
        [1] * N,
        FaultPlan(delay_rules=[DelayRule(predicate=_is_vote_payload, delay=30.0)]),
    ),
    (
        "crash plus delayed help",
        [1] * N,
        FaultPlan.crashes_at({1: 0.0, 2: 0.0}).merged_with(
            FaultPlan.delay_messages(src=3, delay=25.0, after_time=1.5)
        ),
    ),
]


def collect_branches(trial, result):
    """Worker-side collector: pull each process' Figure 1 branch log."""
    return {
        "branches": {
            pid: list(result.process(pid).branch_history) for pid in range(1, trial.n + 1)
        }
    }


def run_all_scenarios():
    trials = make_cases(
        [
            {
                "protocol": INBAC,
                "n": N,
                "f": F,
                "votes": (label, votes),
                "fault": (label, plan),
                "seed": 3,
            }
            for label, votes, plan in SCENARIOS
        ]
    )
    sweep = run_trials(trials, collector=collect_branches)
    assert not sweep.errors(), [t.error for t in sweep.errors()]

    branch_counts = Counter()
    rows = []
    for trial in sweep.trials:
        per_scenario = Counter()
        for branches in trial.extra["branches"].values():
            for branch in branches:
                branch_counts[branch] += 1
                per_scenario[branch] += 1
        rows.append(
            {
                "scenario": trial.fault_label,
                "decisions": str(sorted(set(trial.decisions.values()))),
                "branches": ", ".join(sorted(per_scenario)),
            }
        )
    return branch_counts, rows


def test_figure1_state_transition_coverage(benchmark):
    branch_counts, rows = benchmark.pedantic(run_all_scenarios, rounds=2, iterations=1)
    # every branch of Figure 1 is exercised by the scenario battery
    required = {
        BRANCH_FAST_DECIDE,
        BRANCH_CONS_AND,
        BRANCH_CONS_ZERO,
        BRANCH_ASK_HELP,
        BRANCH_CONSENSUS_DECIDE,
    }
    missing = required - set(branch_counts)
    assert not missing, f"Figure 1 branches never taken: {missing}"
    helped = {BRANCH_HELPED_FAST, BRANCH_HELPED_CONS_AND, BRANCH_HELPED_CONS_ZERO}
    assert helped & set(branch_counts), "the ask-for-more-acks path never completed"
    # the nice execution uses only the fast branch
    assert rows[0]["branches"] == BRANCH_FAST_DECIDE

    attach_rows(benchmark, "figure1_scenarios", rows)
    summary = [{"branch": b, "times_taken": c} for b, c in sorted(branch_counts.items())]
    attach_rows(benchmark, "figure1_branch_histogram", summary)
    print()
    print(render_table(rows, title="Figure 1 — scenarios driving the INBAC state machine"))
    print()
    print(render_table(summary, title="Figure 1 — branch histogram"))
