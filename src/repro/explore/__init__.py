"""repro.explore — adversarial schedule exploration with seeded replay.

The paper's claims are quantified over *all* admissible executions: every
message ordering the asynchronous network may produce and every crash point
the adversary may pick.  The rest of this repo *measures* hand-written
scenarios; this package *searches* the execution space:

* :mod:`repro.explore.schedule` — the decision vocabulary.  A schedule
  controller (hooked into :class:`repro.sim.runner.Scheduler`) may defer a
  delivery (extend its delay, possibly beyond the bound ``U``) or inject a
  crash before an event — exactly the adversary of the paper's model.  Every
  applied decision is recorded, and :class:`ScheduleTrace` serialises
  ``(strategy, seed, decisions)`` so any explored execution replays
  byte-identically (:meth:`repro.sim.trace.Trace.fingerprint`).
* :mod:`repro.explore.strategies` — the built-in strategies, registered in
  the sweep's ``schedules`` registry (:mod:`repro.exp.registry`; a custom
  one is a ``register_schedule_strategy(name, builder)`` call): seeded random
  walks, bounded delay reordering, and crash-point enumeration at protocol
  phase boundaries.
* :mod:`repro.explore.driver` — :func:`explore` runs a schedule budget
  through :func:`repro.exp.run_sweep` (the ``schedules`` axis fans out over
  the existing process pool), checks every execution against
  :mod:`repro.core.properties` (optionally cell-aware), and greedily shrinks
  violating schedules to minimal counterexamples.  Passing a ``workload=``
  hunts *transaction anomalies* instead: every schedule drives a full
  :mod:`repro.db` cluster and is checked against the cluster-invariant
  battery (:mod:`repro.db.invariants` — atomicity, WAL-replay durability,
  lock safety); ``preset="cluster-anomaly"`` enumerates crash points over
  every partition and the client coordinator.

Huge exploration budgets stream: ``run_sweep(..., mode="aggregate")`` over
a ``schedules`` axis counts each explored cell's ``violations`` in its
aggregate row and keeps the first few violating schedules, replayable, in
:attr:`~repro.exp.results.SweepAggregate.sample_violations` — pooled or
serial, the same samples.

Example
-------
>>> from repro.explore import explore
>>> report = explore("2PC", n=5, f=2, budget=100, strategy="random-walk")
>>> report.found                     # 2PC blocks when the coordinator dies
True
>>> print(report.violations[0].describe())      # doctest: +SKIP
violated: termination (crash-failure execution, seed 17)
explored schedule: 3 decisions
minimal counterexample: 1 decisions
  step 9: crash P1
"""

from repro.explore.driver import (
    CLUSTER_SAFETY_PROPS,
    EXPLORATION_PRESETS,
    ExplorationReport,
    Violation,
    explore,
    replay_trial,
    shrink_violation,
)
from repro.explore.schedule import (
    DECISION_KINDS,
    ReplayController,
    ScheduleController,
    ScheduleTrace,
)
from repro.explore.strategies import (
    CrashPoint,
    DelayReorder,
    RandomWalk,
    TimestampOrder,
)

__all__ = [
    "CLUSTER_SAFETY_PROPS",
    "DECISION_KINDS",
    "EXPLORATION_PRESETS",
    "CrashPoint",
    "DelayReorder",
    "ExplorationReport",
    "RandomWalk",
    "ReplayController",
    "ScheduleController",
    "ScheduleTrace",
    "TimestampOrder",
    "Violation",
    "explore",
    "replay_trial",
    "shrink_violation",
]
