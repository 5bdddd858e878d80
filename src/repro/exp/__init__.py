"""repro.exp — the declarative, parallel experiment-sweep engine.

The paper (Guerraoui & Wang, PODS 2017) is fundamentally comparative: INBAC
against 2PC/3PC/Paxos-Commit across system sizes, resilience levels and delay
regimes.  This package turns those cross-product comparisons into one-liners:

* :mod:`repro.exp.spec` — :class:`GridSpec` declares *what* to run
  (protocol x (n, f) x delay model x fault plan x votes x workload x
  schedule x seed) and expands it into deterministic :class:`TrialSpec`
  records; a trial with a :class:`WorkloadSpec` runs a :mod:`repro.db`
  cluster transaction battery instead of a bare protocol execution, and a
  trial with a :class:`ScheduleSpec` runs under a :mod:`repro.explore`
  schedule controller (adversarial event orderings and crash points) built
  from the trial's derived seed;
* :mod:`repro.exp.registry` — how a name becomes an object: every value of
  the delay, fault, votes, workload and schedule axes is a label, a registry
  name and plain-data parameters (``delays=["uniform"]``,
  ``votes=["mixed:0.3"]``, ``faults=[("late", "crash", {"at": 0.5})]``; the
  grammar is tabulated in :mod:`repro.exp.spec`), built per trial in
  whichever process runs the trial — so grids pickle under any
  multiprocessing start method by construction.  Callables are not axis
  values (``register_*`` a module-level builder and name it); the only
  closures a sweep can still carry are predicates inside a literal
  ``FaultPlan``, collectors and locally-defined protocol classes, which
  ``run_sweep(start_method="spawn")`` checks for up front, naming the
  offending field;
* :mod:`repro.exp.engine` — :func:`run_sweep` runs the trials through the
  one sweep path (chunks of the trial list, in-process or across worker
  processes, consumed in order) with per-trial derived seeding, so parallel
  and serial sweeps produce byte-identical aggregates;
* :mod:`repro.exp.results` — the two stock sinks: :class:`SweepResult`
  keeps the structured per-trial measurements, :class:`SweepAggregate` only
  the per-cell accumulators both turn into table rows for
  :mod:`repro.analysis`.

One execution path, one sink per sweep.  Every sweep is the same loop — the
trial list cut into contiguous chunks, each chunk run in-process (serial) or
by a pool worker, the chunks consumed in trial-index order — and every
result is folded into a sink (anything with ``fold(TrialResult)``) that
``mode`` or ``reducer=`` picks:

* ``mode="full"`` (default) folds into a :class:`SweepResult`, which keeps
  every :class:`TrialResult` — per-trial selection, robustness matrices,
  canonical fingerprints;
* ``mode="aggregate"`` streams into a :class:`SweepAggregate` — each result
  is folded into per-coordinate accumulators (counts, commit/abort tallies,
  message totals, exact latency digests for p50/p99) and discarded, so
  10^5-10^6-trial sweeps run in memory bounded by the grid's *cell* count
  while producing byte-identical aggregate tables to the in-memory path (a
  :class:`SweepResult` computes its tables with a :class:`SweepAggregate`),
  and keeps the first few violating explored schedules, replayable, in
  ``sample_violations``;
* ``reducer=`` (any object with ``fold(TrialResult)``, e.g.
  :class:`~repro.exp.results.RobustnessFold`) replaces either for custom
  streaming statistics.

Every sink judges a trial by :meth:`TrialResult.broken` — the properties it
did not demonstrate; an errored trial demonstrated none.

Behind a pool, a sink that can also ``merge`` receives each chunk as a
partial its worker already folded — one bundle per chunk instead of one
result per trial — and merges them exactly, so the tables do not change.
A sink other than a :class:`SweepResult` runs at ``trace_level="counters"``
(the scheduler maintains running tallies instead of allocating one
``MessageRecord`` per message; see :mod:`repro.sim.trace`) unless a
collector needs full traces; ``run_sweep(trace_level=)`` is the one place
that overrides it.  Neither choice changes a single output byte: trace
levels, sinks, start methods and worker counts all produce identical
aggregate fingerprints.  A pool worker that dies ends the sweep in a
:class:`~repro.errors.SweepError` instead of a hang.

The ``workers=`` argument defaults to one per CPU; the ``REPRO_EXP_WORKERS``
environment variable overrides it and must be a positive integer —
anything else raises :class:`~repro.errors.ConfigurationError`.

Example
-------
>>> from repro.exp import GridSpec, run_sweep
>>> sweep = run_sweep(GridSpec(
...     protocols=["INBAC", "2PC", "PaxosCommit"],
...     systems=[(5, 2), (8, 3)],
... ), workers=2)
>>> rows = sweep.aggregate_rows()   # ready for repro.analysis.render_table
>>> big = run_sweep(GridSpec(
...     protocols=["INBAC"], systems=[(5, 2)], seeds=range(50),
... ), mode="aggregate")            # bounded memory, the same statistics
>>> per_cell = lambda row: {k: v for k, v in row.items() if k != "trials"}
>>> per_cell(big.aggregate_rows()[0]) == per_cell(rows[0])
True
"""

from repro.exp.engine import ensure_spawn_safe, run_sweep, run_trial, run_trials
from repro.exp.registry import (
    named_delay,
    named_fault,
    named_workload,
    register_delay_model,
    register_fault_plan,
    register_schedule_strategy,
    register_vote_pattern,
    register_workload,
)
from repro.exp.results import SweepAggregate, SweepResult, TrialResult
from repro.exp.spec import (
    DelaySpec,
    FaultSpec,
    GridSpec,
    ProtocolSpec,
    ScheduleSpec,
    TrialSpec,
    VoteSpec,
    WorkloadSpec,
    make_cases,
    mixed_votes,
)

__all__ = [
    "DelaySpec",
    "FaultSpec",
    "GridSpec",
    "ProtocolSpec",
    "ScheduleSpec",
    "SweepAggregate",
    "SweepResult",
    "TrialResult",
    "TrialSpec",
    "VoteSpec",
    "WorkloadSpec",
    "ensure_spawn_safe",
    "make_cases",
    "mixed_votes",
    "named_delay",
    "named_fault",
    "named_workload",
    "register_delay_model",
    "register_fault_plan",
    "register_schedule_strategy",
    "register_vote_pattern",
    "register_workload",
    "run_sweep",
    "run_trial",
    "run_trials",
]
