"""Hunting transaction anomalies in the simulated cluster.

PR 4 taught `repro.explore` to search bare protocol executions; this example
drives the same adversary through the full `repro.db` stack.  Every explored
schedule runs a complete cluster — client coordinator, partition servers with
locks/WAL/store, and the commit protocol embedded per transaction — and is
judged against the *cluster-invariant battery* (`repro.db.invariants`):

* atomicity  — no partition applies a transaction another partition aborted;
* durability — replaying a partition's WAL reconstructs exactly its
  committed snapshot (crash-frozen partitions included);
* lock safety — no two exclusive holders, and decided transactions hold
  no locks.

The ``cluster-anomaly`` preset enumerates crash points over every partition
*and* the client coordinator.  A correct commit protocol passes the battery
on every admissible schedule; a protocol with a split-brain bug (the
coordinator sends different outcomes to different participants once a vote
goes missing) is caught, and the offending schedule is shrunk to a 1-minimal
counterexample that replays byte-identically from ``(strategy, seed,
decisions)``.

Run:  PYTHONPATH=src python examples/cluster_anomaly_hunt.py
"""

from __future__ import annotations

import sys
from pathlib import Path

# the injected-bug fixture lives in the test tree (one copy, shared with the
# test suite and smoke stage 9)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from broken_protocols import SplitBrainCommit
from repro.explore import ScheduleTrace, explore, replay_trial
from repro.exp.spec import GridSpec

N, F, BUDGET = 3, 1, 24
WORKLOAD = ("uniform3", "uniform", {"transactions": 4})


def main() -> None:
    print("=== cluster-anomaly hunt against a split-brain 2PC variant ===")
    report = explore(
        ("SplitBrain2PC", SplitBrainCommit), n=N, f=F, budget=BUDGET,
        workload=WORKLOAD, preset="cluster-anomaly",
        max_time=150.0,
    )
    print(
        f"schedules explored: {report.schedules_run}, "
        f"violations found: {report.violation_count}"
    )
    assert report.found, "the crash-point enumeration must expose the bug"

    violation = report.violations_of("agreement")[0]  # atomicity lives here
    print()
    print(violation.describe())
    assert violation.shrunk is not None and len(violation.shrunk) == 1

    # --- replay the 1-minimal counterexample, byte-identically ------------ #
    grid = GridSpec(
        protocols=[("SplitBrain2PC", SplitBrainCommit)],
        systems=[(N, F)],
        workloads=[WORKLOAD],
        schedules=[("cp", "crash-point", {})],
        seeds=[violation.base_seed],
        max_time=150.0,
    )
    stored = ScheduleTrace.from_json(violation.shrunk.to_json())
    replayed = replay_trial(grid.trials()[0], stored)
    assert replayed.extra["trace_fingerprint"] == violation.shrunk_fingerprint
    assert not replayed.agreement
    print()
    print("replayed the shrunk schedule: identical trace fingerprint",
          replayed.extra["trace_fingerprint"][:16], "...")
    print("invariant violations on replay:")
    for line in replayed.extra.get("invariant_violations", []):
        print(f"  {line}")

    # --- the same hunt finds nothing against correct protocols ------------ #
    print()
    print("=== same budget against the real commit protocols ===")
    for protocol in ("2PC", "INBAC", "PaxosCommit"):
        clean = explore(
            protocol, n=N, f=F, budget=BUDGET,
            workload=WORKLOAD, preset="cluster-anomaly", max_time=150.0,
        )
        assert not clean.errors, clean.errors[:1]
        assert not clean.found, [v.describe() for v in clean.violations]
        print(
            f"{protocol:>12}: {clean.schedules_run} schedules, "
            f"0 invariant violations"
        )


if __name__ == "__main__":
    main()
