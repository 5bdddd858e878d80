"""The sweep executor: fan trials out over worker processes, deterministically.

Design constraints, in order:

1. **Parallel == serial, exactly.**  Every trial's RNG seed is derived from
   its grid coordinates (:attr:`~repro.exp.spec.TrialSpec.derived_seed`), so
   the schedule a trial sees is independent of which worker runs it, and
   results are consumed in trial-index order.  A sweep with ``workers=8``
   therefore produces byte-identical aggregates to ``workers=1`` (asserted
   by :meth:`~repro.exp.results.SweepResult.fingerprint`).

2. **Specs are names; closures ride along only where data cannot say it.**
   Five of the axes are plain data by construction — a label, a registry
   name and parameters, built per trial by ``spec.build(...)`` in whichever
   process runs the trial (:mod:`repro.exp.spec`, :mod:`repro.exp.registry`).
   Closures arrive in exactly three places: predicates inside a literal
   :class:`~repro.sim.faults.FaultPlan` (payload matchers, which no
   parameter dict can express), ``collector=`` hooks, and protocol classes
   defined inside a function.  None of those can cross a pickling process
   boundary, so the pool prefers the ``fork`` start method and ships
   the sweep's job (trial list, collector, trace level, chunk size) to the
   workers *by inheritance*: it is the pool initializer's argument, which
   forked children receive as inherited memory, and only integer chunk
   indices and plain-data results travel over the queues.  A *spawn-safe*
   spec — free of those three — may instead run under the ``spawn`` start
   method (``start_method="spawn"``, or automatically where fork does not
   exist); :func:`ensure_spawn_safe` validates the spec up front and names
   the offending grid field rather than letting the pool fail with an
   anonymous ``PicklingError``.  A worker imports the module defining every
   builder the specs name before its first trial, so a custom registration
   made when that module is imported exists in the worker too.

3. **One execution path.**  Serial or pooled, full or streaming, a sweep is
   the same code: contiguous trial-index chunks, one function that runs a
   chunk, one loop that consumes the chunks in order into a sink
   (:func:`run_trials` states the contract).  Serial is the fallback where
   no usable start method remains (no ``fork`` and a spec that is not
   spawn-safe) or the sweep is too small to amortise worker start-up;
   ``meta["mode"]`` records which ran.  A worker that dies ends the sweep in
   a :class:`~repro.errors.SweepError`: the parent never waits on a lost peer.

4. **Bounded-memory aggregation.**  ``mode="aggregate"`` (or a custom
   ``reducer=``) streams results instead of collecting them: each
   :class:`~repro.exp.results.TrialResult` is folded into per-coordinate
   accumulators the moment it arrives and then dropped, so a 10^5-10^6-trial
   sweep holds one accumulator per grid cell rather than every trial.
   Accumulator statistics are order-independent (integer tallies and
   value → multiplicity digests; see :mod:`repro.exp.results`), so streamed
   aggregates are byte-identical to both the serial streamed run and the
   in-memory ``mode="full"`` aggregation of the same grid and seeds.  Note
   the bound is on *results*: the expanded ``TrialSpec`` list itself is
   still materialised (lightweight frozen records sharing their axis-spec
   objects, inherited by workers via fork, not copied) — it is the per-trial
   measurement records, orders of magnitude heavier, that streaming never
   holds.  A pool submits at most ``2 * workers`` chunks ahead of the one the
   parent consumes, so neither its futures nor the finished chunks waiting
   for their turn grow with the sweep.

5. **One sink, chosen once.**  A sink is anything with ``fold(TrialResult)``:
   the ``reducer``, else a :class:`~repro.exp.results.SweepAggregate`
   (``mode="aggregate"``), else a :class:`~repro.exp.results.SweepResult`
   (``mode="full"``), which folds by appending.  A serial sweep folds every
   result straight into it.  Behind a pool, a sink that can also
   ``merge`` gets each chunk as a *partial*: the worker folds the chunk into
   a fresh ``type(sink)()`` and the parent merges the partials in chunk (=
   trial index) order — one small bundle per chunk instead of one pickled
   TrialResult per trial for the aggregates.  A sink without ``merge`` gets
   the chunk's TrialResults, folded one by one.  Every statistic merges
   exactly (no float-sum reordering), so both paths give the same bytes at
   any worker count; ``meta["fold"]`` records which one ran.

6. **One trace level per sweep.**  A sink other than a
   :class:`~repro.exp.results.SweepResult` only reads the tallies a
   :class:`~repro.sim.trace.CounterTrace` maintains, so such a sweep runs at
   ``trace_level="counters"`` — the scheduler skips per-message record
   allocation entirely — unless a ``collector=`` needs the live full trace.
   Every other sweep runs at ``"full"``; ``run_sweep(..., trace_level=...)``
   overrides either default, and nothing else sets a trial's level.
   Measurements and fingerprints are byte-identical across levels by
   construction.

7. **Cluster trials.**  A trial whose spec carries a
   :class:`~repro.exp.spec.WorkloadSpec` runs a :mod:`repro.db` cluster
   battery (``n`` partitions, the protocol axis embedded as the commit
   protocol, the workload's transactions as the load) instead of a bare
   protocol execution, and condenses the
   :class:`~repro.db.cluster.ClusterReport` into the same TrialResult shape
   — including the cluster-invariant battery (atomicity/durability/lock
   safety, :mod:`repro.db.invariants`) mapped onto the property flags.  A
   cluster trial may additionally carry a
   :class:`~repro.exp.spec.ScheduleSpec`: the whole cluster then runs under
   the schedule controller (deferred deliveries, injected crashes into
   partitions or the client coordinator) and records the same replayable
   ``schedule_trace`` / ``trace_fingerprint`` extras as a controlled
   protocol trial.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import importlib
import os
import pickle
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.checker import check_nbac
from repro.core.metrics import messages_until_last_decision
from repro.errors import ConfigurationError, SweepError
from repro.exp.results import SweepAggregate, SweepResult, TrialResult
from repro.exp.spec import SPAWN_AXIS_FIELDS, GridSpec, TrialSpec
from repro.sim.runner import Simulation
from repro.sim.trace import TRACE_LEVELS

#: a collector receives (trial, result) in the worker and returns extra
#: picklable data to attach to the TrialResult (e.g. protocol-internal state
#: such as INBAC's branch log, which never leaves the worker otherwise).
#: For cluster trials the second argument is the ClusterReport instead.
Collector = Callable[[TrialSpec, Any], Dict[str, Any]]

#: below this many trials a pool costs more than it saves
_MIN_TRIALS_FOR_POOL = 4

#: cap on the pool chunk size, so a worker never buffers an unbounded slice
#: of results (or folds an unbounded chunk) before shipping back to the parent
_MAX_CHUNK = 64

#: chunks a pool may hold submitted but not yet consumed, per worker
_WINDOW_PER_WORKER = 2

#: what run_trials/run_sweep accept for mode= and start_method=
_MODES = ("full", "aggregate")
_START_METHODS = (None, "fork", "spawn")


def run_trial(
    trial: TrialSpec,
    collector: Optional[Collector] = None,
    trace_level: Optional[str] = None,
) -> TrialResult:
    """Run one trial to completion and condense it into a TrialResult.

    ``trace_level`` ``None`` runs the trial at ``"full"``.  Measurements are
    identical at either level.

    The cycle collector is paused for the whole call — build, run, check,
    ``collector`` and release — and left as it was found on the way out.  A
    finished trial is freed by reference counting
    (:meth:`~repro.sim.runner.Scheduler.release`), so a collection inside
    the trial could only trace the trial's live objects; the cyclic garbage
    a trial does leave (a failed run, a traceback) goes at the first
    collection after it, so memory stays bounded by one trial.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_trial(trial, collector, trace_level or "full")
    finally:
        if was_enabled:
            gc.enable()


def _run_trial(trial: TrialSpec, collector: Optional[Collector], level: str) -> TrialResult:
    seed = trial.derived_seed
    base = TrialResult(
        index=trial.index,
        protocol=trial.protocol.label,
        n=trial.n,
        f=trial.f,
        delay_label=trial.delay.label,
        fault_label=trial.fault.label,
        votes_label=trial.votes.label,
        base_seed=trial.base_seed,
        derived_seed=seed,
        workload_label=trial.workload_label,
        schedule_label=trial.schedule_label,
    )
    if trial.workload is not None:
        return _run_cluster_trial(trial, base, collector, level)
    try:
        simulation = Simulation(
            n=trial.n,
            f=trial.f,
            process_class=trial.protocol.cls,
            max_time=trial.max_time,
            trace_level=level,
        )
        votes = trial.votes.build(trial.n, seed)
        controller = trial.schedule.build(seed) if trial.schedule is not None else None
        result = simulation.run(
            votes,
            delay_model=trial.delay.build(seed),
            fault_plan=trial.fault.build(),
            seed=seed,
            controller=controller,
        )
    except Exception:
        base.error = traceback.format_exc(limit=8)
        return base

    trace = result.trace
    report = check_nbac(trace)
    base.execution_class = trace.metadata.get("execution_class", "failure-free")
    base.decisions = result.decisions()
    base.decision_latencies = sorted(
        rec.time for rec in trace.decisions.values()
    )
    base.first_decision = trace.first_decision_time()
    base.last_decision = trace.last_decision_time()
    base.messages_total = trace.message_count()
    base.messages_main = trace.message_count(module="main")
    base.messages_consensus = base.messages_total - base.messages_main
    base.messages_until_last_decision = messages_until_last_decision(trace)
    base.agreement = report.agreement.holds
    base.validity = report.validity.holds
    base.termination = report.termination.holds
    base.crashes = dict(trace.crashes)
    replay = None
    if controller is not None:
        replay = (trace.metadata.get("schedule_decisions", []), trace.fingerprint())
    _attach_extras(base, trial, collector, result, replay)
    # after the collector saw the live processes: reference counting, not
    # the cycle collector, frees the finished run
    result.release()
    return base


def _attach_extras(
    base: TrialResult,
    trial: TrialSpec,
    collector: Optional[Collector],
    outcome: Any,
    replay: Optional[Tuple[List[Any], Optional[str]]],
) -> TrialResult:
    """The tail every trial shares: replayable schedule extras, then the collector.

    ``replay`` is ``(schedule decisions, trace fingerprint)`` when the trial
    ran under a schedule controller; ``outcome`` is what the collector sees.
    """
    if replay is not None:
        # the replayable schedule plus the fingerprint replay is checked
        # against — all plain data, so it crosses the worker queue intact
        from repro.explore.schedule import ScheduleTrace

        decisions, fingerprint = replay
        base.extra["schedule_trace"] = ScheduleTrace(
            strategy=trial.schedule.name,
            seed=base.derived_seed,
            params=dict(trial.schedule.params),
            decisions=decisions,
        ).to_jsonable()
        base.extra["trace_fingerprint"] = fingerprint
    if collector is not None:
        # collector failures (e.g. a per-message trace query against a trial
        # pinned to the counters level) are captured like simulation
        # failures, not allowed to abort the whole sweep
        try:
            base.extra = {**base.extra, **dict(collector(trial, outcome) or {})}
        except Exception:
            base.error = traceback.format_exc(limit=8)
    return base


def _run_cluster_trial(
    trial: TrialSpec,
    base: TrialResult,
    collector: Optional[Collector],
    trace_level: str = "full",
) -> TrialResult:
    """Run one :mod:`repro.db` cluster battery and condense its report.

    The mapping onto the TrialResult shape: ``decisions`` holds one entry per
    transaction (txn id -> commit/abort decision), ``decision_latencies`` the
    per-transaction commit latencies, and ``termination`` whether every
    transaction completed.  The property flags carry the cluster-invariant
    battery (:mod:`repro.db.invariants`): ``agreement`` is transaction
    atomicity, ``validity`` is WAL-replay durability AND lock-table safety —
    always True for a correct commit protocol, so the flags only flip when a
    schedule (or a bug) produces an actual anomaly.  The full
    ``ClusterReport.summary_row`` lands in ``extra``, ahead of the same
    replayable schedule extras a controlled protocol trial records.
    """
    # imported lazily: repro.db pulls in the whole store/partition stack,
    # which bare protocol sweeps never need
    from repro.db.cluster import ClusterConfig, run_cluster

    try:
        seed = trial.derived_seed
        delay_model = trial.delay.build(seed)
        fault_plan = trial.fault.build()
        controller = trial.schedule.build(seed) if trial.schedule is not None else None
        config = ClusterConfig(
            num_partitions=trial.n,
            commit_protocol=trial.protocol.cls,
            commit_f=trial.f,
            delay_model=delay_model,
            fault_plan=fault_plan,
            seed=seed,
            max_time=trial.max_time,
            trace_level=trace_level,
            controller=controller,
        )
        transactions = trial.workload.build(trial.n, seed)
        report = run_cluster(config, transactions)
    except Exception:
        base.error = traceback.format_exc(limit=8)
        return base

    base.execution_class = report.execution_class
    base.decisions = {o.txn_id: o.decision for o in report.outcomes}
    base.decision_latencies = sorted(report.commit_latencies())
    if base.decision_latencies:
        base.first_decision = base.decision_latencies[0]
        base.last_decision = base.decision_latencies[-1]
    base.messages_total = report.messages_total
    base.messages_main = report.messages_by_module.get("main", 0)
    base.messages_consensus = base.messages_total - base.messages_main
    base.messages_until_last_decision = report.messages_until_last_decision
    # pending_transactions also covers transactions never submitted (a crashed
    # client coordinator), which report.incomplete — submitted-only — misses
    base.termination = not report.pending_transactions
    # realised crashes, schedule-injected ones included — the same accounting
    # protocol trials get from trace.crashes
    base.crashes = dict(report.crashes)
    invariants = report.invariants
    if invariants is not None:
        base.agreement = invariants.atomicity
        base.validity = invariants.durability and invariants.lock_safety
    summary = report.summary_row()
    summary["protocol"] = trial.protocol.label  # the sweep's label, not the class name
    if invariants is not None and not invariants.holds:
        summary["invariant_violations"] = list(invariants.violations)
    base.extra = summary
    # same replayable extras as a controlled protocol trial
    replay = None
    if controller is not None:
        replay = (report.schedule_decisions, report.trace_fingerprint)
    return _attach_extras(base, trial, collector, report, replay)


# --------------------------------------------------------------------------- #
# chunk plumbing: the one unit of work, in-process or in a pool worker
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Job:
    """What :func:`_run_chunk` needs to run any chunk of one sweep.

    The serial path passes it directly, so the parent never parks a trial
    list in a module slot; a pool hands it to each worker's initializer —
    inherited under ``fork``, pickled once per worker under ``spawn``.
    """

    trials: List[TrialSpec]
    collector: Optional[Collector]
    trace_level: str
    chunk: int
    #: what a pool worker folds its chunk into: the sink's own type when the
    #: sink can merge partials, else a SweepResult of the chunk's TrialResults
    partial: type
    #: the modules defining every builder the trials name (pooled sweeps only)
    modules: Tuple[str, ...]

    @property
    def n_chunks(self) -> int:
        return -(-len(self.trials) // self.chunk)


def _builder_modules(trials: Sequence[TrialSpec]) -> Tuple[str, ...]:
    """The modules defining the builders the trials' axis values name."""
    specs = {
        id(spec): spec
        for trial in trials
        for spec in (trial.delay, trial.fault, trial.votes, trial.workload, trial.schedule)
        if spec is not None
    }
    return tuple(sorted({spec.builder_module() for spec in specs.values()} - {None}))


#: set by the pool initializer, so only ever inside a worker process
_POOL_JOB: Optional[_Job] = None


def _pool_init(job: _Job) -> None:
    """Park the job; first import what registers its names (under ``spawn``
    a worker starts with only the built-in registrations)."""
    global _POOL_JOB
    for module in job.modules:
        importlib.import_module(module)
    _POOL_JOB = job


def _maybe_profiled(label: str):
    """cProfile wrapper for one unit of sweep work, gated on ``REPRO_PROFILE``.

    Profiling is observability: it perturbs wall-clock timings but never the
    aggregates, so the determinism battery runs a profiled sweep and checks
    the fingerprint is unchanged.  The import is lazy and the gate is a plain
    environment lookup, so unprofiled sweeps pay one dict probe per unit — a
    unit being a pooled chunk or a whole serial sweep, never a single trial.
    """
    if os.environ.get("REPRO_PROFILE", "") not in ("", "0", "false", "False"):
        from repro.obs.profile import profiled

        return profiled(label)
    return contextlib.nullcontext()


def _run_chunk(chunk_index: int, job: Optional[_Job] = None, sink: Any = None) -> Any:
    """Run one contiguous trial-index chunk, folding each result in index order.

    The results go into ``sink`` when one is given (the serial path folds
    straight into the sweep's sink), else into a fresh ``job.partial()``,
    which is returned.  Without ``job`` this is the pool-worker entry point:
    the initializer parked the job, and the chunk is one profiling unit.
    """
    if job is None:
        with _maybe_profiled(f"chunk{chunk_index:04d}"):
            return _run_chunk(chunk_index, _POOL_JOB)
    out = job.partial() if sink is None else sink
    start = chunk_index * job.chunk
    for trial in job.trials[start : start + job.chunk]:
        out.fold(run_trial(trial, job.collector, job.trace_level))
    return out


def _in_order(
    submit: Callable[[int], Any], n_chunks: int, window: int
) -> Iterator[Any]:
    """Yield the results of chunks ``0..n_chunks-1`` in chunk order.

    ``submit(index)`` returns a future.  At most ``window`` chunks are ever
    submitted and not yet consumed — the next one is submitted when the
    caller comes back for more — so a 10^6-trial sweep keeps a few futures
    in flight, not one per chunk.
    """
    pending = collections.deque()
    submitted = 0
    while submitted < n_chunks and len(pending) < window:
        pending.append(submit(submitted))
        submitted += 1
    while pending:
        yield pending.popleft().result()
        if submitted < n_chunks:
            pending.append(submit(submitted))
            submitted += 1


def _progress_emitter(
    progress: Optional[Any], job: _Job, meta: Dict[str, Any]
) -> Callable[[str, int], None]:
    """Build ``emit(phase, chunks_done)``: one count-only observation, parent side.

    The engine supplies raw counts and nothing else — no timestamps, no
    rates — so it stays inside the DET002 wall-clock rule; reporters in
    :mod:`repro.obs.progress` add timing on their own clocks.  Callback
    exceptions propagate: a broken reporter should fail the run loudly, not
    silently observe nothing.
    """
    if progress is None:
        return lambda phase, chunks_done: None
    # lazy: the obs package is only imported when somebody observes
    from repro.obs.progress import ProgressEvent, resolve_progress

    callback = resolve_progress(progress)

    def emit(phase: str, chunks_done: int) -> None:
        callback(
            ProgressEvent(
                phase=phase,
                trials_total=len(job.trials),
                # chunks complete whole, and only the last one can be short
                trials_done=min(chunks_done * job.chunk, len(job.trials)),
                chunks_total=job.n_chunks,
                chunks_done=chunks_done,
                queue_depth=job.n_chunks - chunks_done,
                workers=meta["workers"],
                mode=meta["mode"],
                fold=meta["fold"],
            )
        )

    return emit


def _resolve_workers(workers: Optional[int], n_trials: int) -> int:
    """Resolve the worker count, validating explicit and environment overrides.

    A malformed or non-positive ``REPRO_EXP_WORKERS`` (or ``workers=``
    argument) raises :class:`~repro.errors.ConfigurationError` naming the
    offending value, rather than leaking a bare ``ValueError`` or silently
    clamping a negative count to 1.
    """
    name, given = "workers", workers
    if workers is None:
        name, given = "REPRO_EXP_WORKERS", os.environ.get("REPRO_EXP_WORKERS")
        if not given:
            return max(1, min(os.cpu_count() or 1, n_trials))
    try:
        count = int(given)
    except (TypeError, ValueError):
        count = 0
    else:
        if workers is not None:
            given = count  # an argument that parses is reported as parsed
    if count <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {given!r}")
    return max(1, min(count, n_trials))


def _one_of(what: str, value: Any, allowed: tuple) -> None:
    if value not in allowed:
        raise ConfigurationError(f"unknown {what} {value!r}; expected one of {allowed}")


def _start_method_available(name: str) -> bool:
    import multiprocessing

    try:
        return name in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def ensure_spawn_safe(
    trials: Sequence[TrialSpec], collector: Optional[Collector] = None
) -> None:
    """Verify every spec component can cross a ``spawn`` process boundary.

    The fork pool ships closures by memory inheritance, so a grid may carry
    one inside a literal plan; the spawn pool pickles everything.  This check
    pickles each distinct axis-spec object individually and raises a
    :class:`~repro.errors.ConfigurationError` naming the offending grid field
    and label — instead of letting ``multiprocessing`` fail deep inside the
    pool with an anonymous ``PicklingError``.  Registry-named axis values
    (see :mod:`repro.exp.registry`) are spawn-safe by construction; what this
    catches is a literal ``FaultPlan`` whose ``DelayRule.predicate`` is a
    lambda, a parameter value that does not pickle, an unpicklable collector
    and a protocol class defined inside a function.

    The fields checked come from :data:`repro.exp.spec.SPAWN_AXIS_FIELDS` —
    the same table the static analyser's SP001 rule (``python -m
    tools.lint``) scans, so the runtime and static checks cannot drift apart.
    """
    seen: set = set()

    def _check(field: str, label: str, obj: Any) -> None:
        if id(obj) in seen:
            return
        seen.add(id(obj))
        try:
            pickle.dumps(obj)
        except Exception as exc:
            raise ConfigurationError(
                f"GridSpec field {field}[{label!r}] is not picklable and cannot "
                f"cross a 'spawn' process boundary ({type(exc).__name__}: {exc}); "
                f"use a registry-named value (see repro.exp.registry) or a "
                f"module-level callable, or run with the fork start method"
            ) from None

    for trial in trials:
        for grid_field, attr in SPAWN_AXIS_FIELDS:
            spec = getattr(trial, attr)
            if spec is not None:
                _check(grid_field, spec.label, spec)
    if collector is not None:
        _check("collector", getattr(collector, "__name__", "collector"), collector)


def _resolve_start_method(
    start_method: Optional[str],
    trials: Sequence[TrialSpec],
    collector: Optional[Collector],
) -> Optional[str]:
    """Pick the pool start method; ``None`` means "no pool available".

    Explicit requests are validated loudly; by default spawn is a fallback
    only for a verifiably spawn-safe spec, so platforms without fork degrade
    to the serial path rather than crash (``run_sweep``'s ``start_method``).
    """
    _one_of("start_method", start_method, _START_METHODS)
    if start_method is not None and not _start_method_available(start_method):
        raise ConfigurationError(
            f"the {start_method!r} start method is not available on this platform"
        )
    if start_method == "spawn":
        ensure_spawn_safe(trials, collector)
    if start_method is not None:
        return start_method
    if _start_method_available("fork"):
        return "fork"
    if _start_method_available("spawn"):
        try:
            ensure_spawn_safe(trials, collector)
        except ConfigurationError:
            return None  # not spawn-safe: silently keep the serial fallback
        return "spawn"
    return None  # pragma: no cover - platforms with neither method


def run_trials(
    trials: Sequence[TrialSpec],
    workers: Optional[int] = None,
    collector: Optional[Collector] = None,
    mode: str = "full",
    reducer: Optional[Any] = None,
    trace_level: Optional[str] = None,
    start_method: Optional[str] = None,
    progress: Optional[Any] = None,
) -> Any:
    """Run an explicit trial list (see :func:`repro.exp.spec.make_cases`).

    The parameters are :func:`run_sweep`'s; this is the one path behind them.
    The sink is the ``reducer``, else a
    :class:`~repro.exp.results.SweepAggregate` (``mode="aggregate"``), else a
    :class:`~repro.exp.results.SweepResult`, and it is what comes back.  The
    list is cut into contiguous index chunks and :func:`_run_chunk` runs
    each: in-process on chunks of one trial, folding straight into the sink,
    when serial (``workers=1``, fewer than 4 trials, or no usable start
    method); otherwise through one pool of ``workers`` processes on chunks of
    ``max(1, min(64, len(trials) // (workers * 4)))`` trials, at most
    ``2 * workers`` chunks submitted ahead of the one consumed.  One loop
    consumes the chunks in chunk (= trial-index) order: a pooled chunk is a
    partial the sink merges when the sink has ``merge``, else TrialResults
    it folds one by one.

    ``meta`` (set on a sink that has a ``meta`` dict) records what ran:
    ``mode`` (``"serial"``/``"parallel"``), ``workers``,
    ``requested_workers``, ``trials``, ``sweep_mode``, ``trace_level``,
    ``fold`` (``"chunk"`` when pooled chunks were merged, else ``"trial"``);
    ``start_method`` when pooled; ``chunk_size`` and ``chunks`` for merged
    chunks.  ``progress`` receives one ``start`` event, one ``chunk`` event
    per consumed chunk (``trials_done = min(chunks_done * chunk,
    trials_total)``; serial chunks are single trials) and one ``summary``,
    always in the parent, after the chunk crossed the worker queue.

    A worker process that dies raises :class:`~repro.errors.SweepError`
    naming the first chunk that did not come back.  Leaving the loop by any
    exception — a reducer or progress callback that raises, Ctrl-C — drops
    the chunks still pending instead of running them to completion first.
    """
    _one_of("sweep mode", mode, _MODES)
    if trace_level is not None:
        _one_of("trace_level", trace_level, TRACE_LEVELS)
    trials = list(trials)
    sink = reducer
    if sink is None:
        sink = SweepAggregate() if mode == "aggregate" else SweepResult()
    elif not callable(getattr(sink, "fold", None)):
        raise ConfigurationError(
            f"reducer= takes a sink object with a fold(TrialResult) method, "
            f"e.g. SweepAggregate() or RobustnessFold(); got {sink!r} "
            f"({type(sink).__name__})"
        )
    full = isinstance(sink, SweepResult)
    # any other sink only reads the tallies a CounterTrace maintains, unless a
    # collector needs the live (full) trace
    level = trace_level or ("full" if full or collector is not None else "counters")
    n_workers = _resolve_workers(workers, len(trials))
    pooled = n_workers > 1 and len(trials) >= _MIN_TRIALS_FOR_POOL
    # an explicit start method is validated even when the sweep runs serially;
    # the default is resolved only when a pool is wanted
    method = None
    if pooled or start_method is not None:
        method = _resolve_start_method(start_method, trials, collector)
        pooled = pooled and method is not None
    # four chunks per worker, so uneven cells still balance
    chunk = max(1, min(_MAX_CHUNK, len(trials) // (n_workers * 4))) if pooled else 1
    folded = pooled and hasattr(sink, "merge")
    job = _Job(
        trials, collector, level, chunk, type(sink) if folded else SweepResult,
        _builder_modules(trials) if pooled else (),
    )
    meta = {
        "mode": "parallel" if pooled else "serial",
        "workers": n_workers if pooled else 1,
        "requested_workers": workers,
        "trials": len(trials),
        "sweep_mode": "full" if full else "aggregate",
        "trace_level": level,
        "fold": "chunk" if folded else "trial",
    }
    if pooled:
        meta["start_method"] = method
    if folded:
        meta.update(chunk_size=chunk, chunks=job.n_chunks)
    emit = _progress_emitter(progress, job, meta)

    emit("start", 0)
    done = 0
    lost = ()  # what a lost worker raises: nothing, while there is no pool
    with contextlib.ExitStack() as stack:
        try:
            if pooled:
                # lazy: only a pooled sweep pays for importing the pool machinery
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures.process import BrokenProcessPool as lost

                executor = ProcessPoolExecutor(
                    n_workers,
                    mp_context=multiprocessing.get_context(method),
                    initializer=_pool_init,
                    initargs=(job,),
                )
                # cancel_futures: on the way out by an exception the pending
                # chunks are dropped, not run to completion before it surfaces
                stack.callback(executor.shutdown, cancel_futures=True)
                parts = _in_order(
                    functools.partial(executor.submit, _run_chunk),
                    job.n_chunks,
                    _WINDOW_PER_WORKER * n_workers,
                )
            else:
                stack.enter_context(_maybe_profiled("serial"))
                parts = (_run_chunk(index, job, sink) for index in range(job.n_chunks))
            for part in parts:
                if folded:
                    sink.merge(part)
                elif part is not sink:  # a pooled chunk's TrialResults
                    for result in part:
                        sink.fold(result)
                done += 1
                emit("chunk", done)
        except lost:
            raise SweepError(
                f"a pool worker died before chunk {done} (trials {done * chunk}-"
                f"{min((done + 1) * chunk, len(trials)) - 1}) came back; the sweep "
                f"was abandoned (start method {method!r}, {n_workers} workers)"
            ) from None
    emit("summary", done)
    if hasattr(sink, "meta"):
        sink.meta.update(meta)
    return sink


def run_sweep(
    grid: Union[GridSpec, Sequence[TrialSpec]],
    workers: Optional[int] = None,
    collector: Optional[Collector] = None,
    mode: str = "full",
    reducer: Optional[Any] = None,
    trace_level: Optional[str] = None,
    start_method: Optional[str] = None,
    progress: Optional[Any] = None,
) -> Any:
    """Expand a grid and run every trial, fanning out across workers.

    This is ``run_trials(grid.trials(), ...)``: how trials are chunked,
    ordered, folded, observed and abandoned on a lost worker is
    :func:`run_trials`'s contract and is not restated here.  No option below
    changes a byte: results, aggregate tables and fingerprints are identical
    across worker counts, start methods and trace levels, with or without
    ``progress``.

    Parameters
    ----------
    grid:
        A :class:`~repro.exp.spec.GridSpec` (or an already-expanded trial
        list) describing the protocol x (n, f) x delay x fault x votes x
        workload x seed cross product.
    workers:
        Worker process count.  ``None`` means "one per CPU" (overridable via
        the ``REPRO_EXP_WORKERS`` environment variable, which must be a
        positive integer); ``1`` forces the serial path.
    collector:
        Optional per-trial hook run *inside the worker* with the live
        :class:`~repro.sim.runner.SimulationResult` (the
        :class:`~repro.db.cluster.ClusterReport` for cluster trials);
        whatever picklable dict it returns lands in ``TrialResult.extra``.
    mode:
        ``"full"`` (default) returns a :class:`~repro.exp.results.SweepResult`
        holding every trial.  ``"aggregate"`` streams: trial results are
        folded into a :class:`~repro.exp.results.SweepAggregate` and
        discarded, so memory is bounded by the grid's cell count instead of
        its trial count.
    reducer:
        Custom sink: any object with a ``fold(TrialResult)`` method, such as
        a :class:`~repro.exp.results.RobustnessFold`; a sink that judges a
        trial reads :meth:`~repro.exp.results.TrialResult.broken`.  (Violating
        schedules need no custom sink: a ``SweepAggregate`` keeps them in
        ``sample_violations``.)  It replaces the sink ``mode`` picks; the engine folds every result in
        trial-index order and returns the reducer (updating its ``meta``
        dict attribute, if present, with execution metadata).  A reducer
        that also has ``merge(partial)`` must build empty with
        ``type(reducer)()``: behind a pool each worker folds its chunk into
        one, and the parent merges them in chunk order.
    trace_level:
        ``"full"`` or ``"counters"`` (see :mod:`repro.sim.trace`), applied to
        every trial of this sweep.  ``None`` (default) picks ``"counters"``
        for a sink other than a ``SweepResult`` without a collector — the
        fast path: no per-message records are allocated — and ``"full"``
        otherwise.  Note a ``"counters"`` level wins over the
        collector-keeps-full-traces default: a collector that needs
        per-message records must not be combined with it (its failure is
        captured per trial in ``TrialResult.error``, like any simulation
        failure).
    start_method:
        Pool start method.  ``None`` (default) keeps the historical
        behaviour: ``fork`` where available, otherwise ``spawn`` when the
        spec is verifiably lambda-free (see :func:`ensure_spawn_safe`),
        otherwise the serial path.  An explicit ``"spawn"`` validates the
        spec up front and raises a :class:`~repro.errors.ConfigurationError`
        naming the offending grid field if anything cannot be pickled;
        registry-named axis values and reducers (:mod:`repro.exp.registry`)
        are spawn-safe by construction.
    progress:
        Live progress stream, strictly out of band.  ``None`` (default)
        observes nothing; a callable receives the count-only
        :class:`~repro.obs.progress.ProgressEvent` stream, always in the
        parent process.  The strings ``"tty"`` and ``"jsonl:PATH"`` resolve
        to the stock reporters in :mod:`repro.obs.progress`.
    """
    trials = grid.trials() if isinstance(grid, GridSpec) else list(grid)
    return run_trials(
        trials, workers, collector, mode, reducer, trace_level, start_method, progress
    )
