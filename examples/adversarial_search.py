"""Adversarial schedule search: find and shrink a 2PC blocking counterexample.

The paper's Definition 1 requires *termination*: every correct process
eventually decides.  Two-phase commit famously fails it — if the coordinator
crashes after collecting votes but before broadcasting the outcome, the
participants block forever.  Instead of hand-writing that scenario, this
example lets ``repro.explore`` *find* it: a seeded random walk over message
deferrals and crash points searches the space of admissible executions,
collects the schedules that violate termination, and greedily shrinks one to
a minimal counterexample.  The same budget run against INBAC (indulgent,
within its resilience bound) finds nothing.

Run:  PYTHONPATH=src python examples/adversarial_search.py
"""

from __future__ import annotations

from repro.explore import ScheduleTrace, explore, replay_trial
from repro.exp.spec import GridSpec


def main() -> None:
    print("=== searching 2PC for termination violations (random walk) ===")
    report = explore(
        "2PC", n=5, f=2, budget=60, strategy="random-walk", seed=3,
        properties=("termination",),
    )
    print(
        f"schedules explored: {report.schedules_run}, "
        f"violations found: {report.violation_count}"
    )
    assert report.found, "the random walk must expose 2PC's blocking scenario"

    violation = report.violations_of("termination")[0]
    print()
    print(violation.describe())
    assert violation.shrunk is not None and len(violation.shrunk) <= 5

    # --- replay the minimal counterexample and confirm determinism -------- #
    grid = GridSpec(
        protocols=["2PC"], systems=[(5, 2)],
        schedules=[("random-walk", "random-walk", {})],
        seeds=[violation.base_seed],
    )
    trial = grid.trials()[0]
    replayed = replay_trial(trial, violation.shrunk)
    assert replayed.extra["trace_fingerprint"] == violation.shrunk_fingerprint
    assert not replayed.termination
    print()
    print("replayed the shrunk schedule: identical trace fingerprint",
          replayed.extra["trace_fingerprint"][:16], "...")
    undecided = [
        pid for pid in range(1, 6)
        if pid not in replayed.decisions and pid not in replayed.crashes
    ]
    print(f"blocked participants (correct but never decided): {undecided}")

    # the stored counterexample survives serialisation
    wire = violation.shrunk.to_json()
    assert ScheduleTrace.from_json(wire) == violation.shrunk
    print(f"counterexample serialises to {len(wire)} bytes of JSON")

    # --- the same search finds nothing against INBAC ---------------------- #
    print()
    print("=== same budget against INBAC (indulgent, f within bound) ===")
    inbac = explore("INBAC", n=5, f=2, budget=60, strategy="random-walk", seed=3)
    print(
        f"schedules explored: {inbac.schedules_run}, "
        f"violations found: {inbac.violation_count}"
    )
    assert not inbac.found


if __name__ == "__main__":
    main()
