"""The six workloads of the perf ledger (see bench/README.md for why each exists).

Every workload makes its inputs from the seed, runs the program only through
its public API (``run_sweep`` / ``AsyncClusterService``), checks the outputs,
and reports :class:`Round` records the driver turns into metrics.  Sizes are
a fixed function of ``scale`` (``--seconds / 10``), never of how fast the
machine is, so two commits always do the same work.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.checker import check_nbac
from repro.core.lattice import canonical_props
from repro.db.cluster import ClusterConfig, run_cluster
from repro.db.wal import WriteAheadLog
from repro.env import Process
from repro.exp import GridSpec, SweepAggregate, named_fault, named_workload, run_sweep
from repro.exp.engine import run_trials
from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol
from repro.runtime import AsyncClusterService
from repro.sim.runner import Simulation
from repro.workloads.transactions import uniform_workload

from stats import percentile, reference_loop, tail_percentile
from tracing import LayerProfile, NullTracer, Tracer

#: the seed whose fingerprints bench/pins.json pins
DEFAULT_SEED = 2017
#: reference loops run after every timed slice of a sweep (about 1 ms each)
SPEED_LOOPS = 3
#: seconds between two reference loops on a runtime workload's event loop
SPEED_PERIOD_S = 0.25


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Round:
    """One measured unit of work: a sweep pass or a whole cluster run.

    Every time is raw; ``speed`` holds the ``reference_loop()`` times sampled
    next to the work, from which run.py derives the run's slowdown.
    """

    wall: float
    cpu: float
    ops: int  # completed: trials (sim) or transactions with an outcome (runtime)
    txns: int
    commits: int
    msgs: int
    overhead_ms: float  # wall ms per transaction the protocol's timers do not demand
    attempted: int = 0
    failed: int = 0
    fingerprints: Dict[str, str] = field(default_factory=dict)
    slices: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    speed: List[float] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Outcome:
    """Everything one run produced."""

    rounds: List[Round]
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    trace: Dict[str, Any] = field(default_factory=dict)


def _complain(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


def _planned_rounds(full_rounds: int, scale: float) -> int:
    return max(1, round(full_rounds * scale)) if scale > 0 else 0


class Tally:
    """Streaming sink: the default aggregate plus exact txn and message counts."""

    def __init__(self) -> None:
        self.aggregate = SweepAggregate()
        self.meta = self.aggregate.meta
        self.txns = self.commits = self.aborts = self.msgs = self.fallback_msgs = 0

    def fold(self, trial) -> None:
        self.aggregate.fold(trial)
        self.msgs += trial.messages_total
        if trial.workload_label == "-":
            # a bare protocol execution is one transaction
            self.txns += 1
            self.commits += trial.all_committed
            self.aborts += bool(trial.decisions) and not trial.all_committed
            self.fallback_msgs += trial.messages_consensus
        else:
            decisions = list(trial.decisions.values())
            commits = sum(1 for d in decisions if d == COMMIT)
            self.txns += len(decisions)
            self.commits += commits
            self.aborts += sum(1 for d in decisions if d is not None) - commits
            self.fallback_msgs += trial.extra.get("fallback_msgs", 0)


def _guaranteed(protocol: str, execution_class: str) -> str:
    """The properties the paper's Table 1 cell of ``protocol`` promises."""
    if execution_class == "failure-free":
        return "AVT"
    cell = get_protocol(protocol).cell
    if cell is None:
        return ""
    props = cell.cf if execution_class == "crash-failure" else cell.nf
    return "".join(p.value for p in canonical_props(props))


def _fallback_messages(by_module: Dict[str, int]) -> int:
    """Messages of modules other than a protocol's ``main``: consensus fallback."""
    return sum(
        count
        for module, count in by_module.items()
        if module.rsplit(":", 1)[-1] != "main"
    )


def _collect_fallback(trial, report) -> Dict[str, int]:
    # cluster trials only: the TrialResult keeps no per-module histogram
    by_module = getattr(report, "messages_by_module", None)
    return {"fallback_msgs": _fallback_messages(by_module)} if by_module else {}


# --------------------------------------------------------------------------- #
# simulator sweeps
# --------------------------------------------------------------------------- #
class SweepWorkload:
    """Rounds of ``run_sweep`` over seed-disjoint copies of one grid."""

    name = ""
    full_rounds = 1  # rounds at --seconds 10
    seeds_per_round = 1
    #: slice -> GridSpec keyword arguments (everything but the seeds)
    slices: Dict[str, Dict[str, Any]] = {}
    #: slices whose delay model exceeds the bound U while the engine still
    #: labels the executions failure-free: no Table 1 guarantee can be checked
    unclassified_slices: Tuple[str, ...] = ()
    workers = 1
    mode = "aggregate"
    #: the processor is busy throughout, so wall time scales with its speed
    timer_paced = False
    #: prefix of the per-slice rate metrics; None when a slice is not a metric
    slice_metric: Optional[str] = None

    def __init__(self, seed: int, scale: float, pins: Dict[str, Any]):
        self.seed = seed
        self.rounds = _planned_rounds(self.full_rounds, scale)
        self.pins = pins.get(self.name, {}) if seed == DEFAULT_SEED else {}
        self.ready_at: Optional[float] = None

    def _seeds(self, round_index: int) -> range:
        first = self.seed * 1000 + round_index * self.seeds_per_round
        return range(first, first + self.seeds_per_round)

    # -- one round --------------------------------------------------------- #
    def _sweep(self, trials, workers: int, traced: bool):
        if self.mode == "full":
            return run_sweep(trials, workers=workers, mode="full")
        collector = (
            _collect_fallback if traced and trials and trials[0].workload else None
        )
        return run_sweep(
            trials,
            workers=workers,
            mode="aggregate",
            reducer=Tally(),
            collector=collector,
            # what aggregate mode picks by itself; a collector would flip it
            trace_level="counters",
        )

    def run_round(
        self,
        index: int,
        tracer=NullTracer(),
        profile: Optional[LayerProfile] = None,
        workers: Optional[int] = None,
    ) -> Round:
        workers = self.workers if workers is None else workers
        seeds = self._seeds(index)
        out = Round(0.0, 0.0, 0, 0, 0, 0, 0.0)
        out.extra.update(aborts=0, fallback_msgs=0, expand_s=0.0, result_bytes=0)
        with tracer.span("round", index=index) as root:
            for slice_name, kwargs in self.slices.items():
                start, cpu_start = time.perf_counter(), _cpu_seconds()
                with profile.recording() if profile is not None else nullcontext():
                    with tracer.span("expand", root, slice=slice_name):
                        trials = GridSpec(seeds=seeds, **kwargs).trials()
                    expanded = time.perf_counter()
                    with tracer.span("run_sweep", root, slice=slice_name):
                        result = self._sweep(trials, workers, tracer.enabled)
                    with tracer.span("fingerprint", root, slice=slice_name):
                        if self.mode == "full":
                            fingerprint = result.fingerprint()
                        else:
                            fingerprint = result.aggregate.aggregate_fingerprint()
                wall = time.perf_counter() - start
                cpu = _cpu_seconds() - cpu_start
                out.wall += wall
                out.cpu += cpu
                out.extra["expand_s"] += expanded - start
                out.speed.extend(reference_loop() for _ in range(SPEED_LOOPS))
                # checking the outputs is the harness's work: not timed
                out.slices[slice_name] = (len(trials), wall)
                out.fingerprints[slice_name] = fingerprint
                tally = self._tally(result)
                out.ops += len(trials)
                out.attempted += len(trials)
                out.txns += tally.txns
                out.commits += tally.commits
                out.msgs += tally.msgs
                out.failed += self._check(slice_name, index, tally, fingerprint)
                out.extra["aborts"] += tally.aborts
                out.extra["fallback_msgs"] += tally.fallback_msgs
                if tracer.enabled and self.mode == "full":
                    out.extra["result_bytes"] += sum(
                        len(pickle.dumps(t)) for t in result.trials
                    )
        out.overhead_ms = 1000.0 * out.wall / max(1, out.txns)
        return out

    def _tally(self, result) -> Tally:
        if isinstance(result, Tally):
            return result
        tally = Tally()
        for trial in result.trials:
            tally.fold(trial)
        return tally

    def _check(self, slice_name: str, index: int, tally: Tally, fingerprint: str) -> int:
        """Failed trials of one slice: errors, broken guarantees, wrong pin."""
        aggregate = tally.aggregate
        failed = aggregate.error_count
        for error in aggregate.sample_errors[:1]:
            _complain(f"{self.name}/{slice_name}: trial error:\n{error}")
        per_protocol: Dict[str, int] = {}
        for row in aggregate.aggregate_rows():
            per_protocol[row["protocol"]] = (
                per_protocol.get(row["protocol"], 0) + row["trials"]
            )
        guarantees = (
            [] if slice_name in self.unclassified_slices else aggregate.robustness_rows()
        )
        for row in guarantees:
            for execution_class, held in row.items():
                if execution_class == "protocol" or held == "-":
                    continue
                need = _guaranteed(row["protocol"], execution_class)
                if not set(need) <= set(held):
                    _complain(
                        f"{self.name}/{slice_name}: {row['protocol']} holds "
                        f"{held!r} in {execution_class} executions, its cell "
                        f"guarantees {need!r}"
                    )
                    failed += per_protocol[row["protocol"]]
        pinned = self.pins.get(slice_name, [])
        if index < len(pinned) and pinned[index] != fingerprint:
            _complain(
                f"{self.name}/{slice_name} round {index}: fingerprint "
                f"{fingerprint} != pinned {pinned[index]}"
            )
            failed += aggregate.total_trials
        return min(failed, aggregate.total_trials)

    # -- a whole run -------------------------------------------------------- #
    def _warm_up(self) -> None:
        """Fill import-time and per-process caches on a one-seed copy."""
        for kwargs in self.slices.values():
            trials = GridSpec(seeds=[self.seed], **kwargs).trials()
            self._sweep(trials[:: max(1, len(trials) // 4)][:4], workers=1, traced=False)

    def execute(self, traced: bool) -> Outcome:
        self._warm_up()
        self.ready_at = time.time()
        if traced:
            return self._execute_traced()
        rounds = [self.run_round(i) for i in range(self.rounds)]
        return Outcome(rounds=rounds, notes={"workers": self.workers})

    def _execute_traced(self) -> Outcome:
        base = [self.run_round(i) for i in range(-(-self.rounds // 3))]
        # the split comes from serial rounds: a pooled parent only waits
        count = len(base) if self.workers == 1 else 1
        tracer, profile = Tracer(f"{self.name}/{self.seed}"), LayerProfile()
        traced = [self.run_round(i, tracer, profile, workers=1) for i in range(count)]
        per_layer = self._per_layer(base, traced, profile)
        notes: Dict[str, Any] = {"workers": self.workers}
        trace = {"spans": tracer.spans, "span_self_s": tracer.self_seconds()}
        trace["layer_self_s"], trace["idle_s"] = profile.fold()
        if self.workers > 1:
            serial = [self.run_round(0, workers=1)]
            per_layer["exp.pool.speedup"] = _rate(base) / _rate(serial)
            per_layer["trace.overhead_ratio"] = _wall_per_op(traced) / _wall_per_op(serial)
            parent = LayerProfile()
            self.run_round(0, profile=parent)
            seconds, waiting = parent.fold()
            trace["pool_parent"] = {"layer_self_s": seconds, "wait_s": waiting}
            notes["self_shares_from"] = "the same grid run serially (worker-side split)"
        return Outcome(rounds=base, per_layer=per_layer, notes=notes, trace=trace)

    def _per_layer(
        self,
        base: Sequence[Round],
        traced: Sequence[Round],
        profile: LayerProfile,
    ) -> Dict[str, float]:
        trials = sum(r.ops for r in traced)
        txns = sum(r.txns for r in traced)
        msgs = sum(r.msgs for r in traced)
        metrics = {f"{layer}.self_share": share for layer, share in profile.shares().items()}
        metrics["trace.overhead_ratio"] = _wall_per_op(traced) / _wall_per_op(
            base[: len(traced)]
        )
        metrics["sim.us_per_msg"] = 1e6 * sum(r.wall for r in base) / sum(r.msgs for r in base)
        metrics["protocols.handler_calls_per_trial"] = (
            profile.calls([Process.deliver, Process.timeout])
            + profile.calls_named("protocols", "on_propose")
        ) / trials
        metrics["exp.spec.expand_us_per_trial"] = (
            1e6 * sum(r.extra["expand_s"] for r in base) / sum(r.ops for r in base)
        )
        inside_trials = profile.cumulative([run_trials])
        inside_runs = profile.cumulative([Simulation.run, run_cluster])
        metrics["exp.engine.overhead_share"] = (
            1.0 - inside_runs / inside_trials if inside_trials > 0 else 0.0
        )
        metrics["exp.results.fold_us_per_trial"] = (
            1e6 * profile.cumulative([SweepAggregate.fold]) / trials
        )
        metrics["core.check_us_per_trial"] = (
            1e6 * profile.cumulative([check_nbac]) / trials
        )
        if self.slice_metric is not None:
            for slice_name in self.slices:
                metrics[f"{self.slice_metric}.{slice_name}.trials_per_s"] = (
                    statistics.median(
                        r.slices[slice_name][0] / r.slices[slice_name][1] for r in base
                    )
                )
        if self.mode == "full":
            metrics["exp.pool.result_bytes_per_trial"] = (
                sum(r.extra["result_bytes"] for r in traced) / trials
            )
        metrics["consensus.msgs_share"] = (
            sum(r.extra["fallback_msgs"] for r in traced) / msgs
        )
        metrics.update(_wal_metrics(profile, txns))
        metrics["db.abort_share"] = sum(r.extra["aborts"] for r in traced) / txns
        return metrics


def _rate(rounds: Sequence[Round]) -> float:
    return statistics.median(r.ops / r.wall for r in rounds)


def _wall_per_op(rounds: Sequence[Round]) -> float:
    return sum(r.wall for r in rounds) / sum(r.ops for r in rounds)


def _wal_metrics(profile: LayerProfile, txns: int) -> Dict[str, float]:
    lookups = [
        WriteAheadLog.outcome_of,
        WriteAheadLog.prepare_record_of,
        WriteAheadLog.records_for,
    ]
    return {
        "db.wal.records_per_txn": profile.calls([WriteAheadLog.append]) / txns,
        "db.wal.lookup_us_per_txn": 1e6 * profile.cumulative(lookups) / txns,
    }


class SweepLarge(SweepWorkload):
    name = "sweep_large"
    full_rounds = 24
    seeds_per_round = 4
    slices = {"fixed": dict(protocols=["INBAC"], systems=[(200, 40)], max_time=1000)}


_GRID_SYSTEMS = [(4, 1), (5, 2), (7, 2), (8, 3)]


class SweepGrid(SweepWorkload):
    name = "sweep_grid"
    full_rounds = 20
    seeds_per_round = 3
    slices = {
        "fixed": dict(systems=_GRID_SYSTEMS, delays=["fixed"]),
        "uniform": dict(systems=_GRID_SYSTEMS, delays=["uniform"]),
        "lognormal": dict(systems=_GRID_SYSTEMS, delays=["lognormal"]),
        "flaky": dict(systems=_GRID_SYSTEMS, delays=["flaky-link"]),
        # P1 crashes at 0.5 U: the registry default (5.0) is after every decision
        "crash": dict(systems=_GRID_SYSTEMS, faults=[named_fault("crash", at=0.5)]),
        "mixed": dict(systems=_GRID_SYSTEMS, votes=["mixed:0.3"]),
        "randomwalk": dict(systems=_GRID_SYSTEMS, schedules=["random-walk"]),
    }
    unclassified_slices = ("flaky",)
    slice_metric = "exp.slice"


class SweepPoolFull(SweepWorkload):
    name = "sweep_pool_full"
    full_rounds = 10
    seeds_per_round = 50
    slices = {
        "uniform": dict(
            protocols=["INBAC", "2PC", "PaxosCommit"],
            systems=[(20, 4), (50, 10)],
            delays=["uniform"],
        )
    }
    workers = 2
    mode = "full"


_CLUSTER_GRID = dict(
    protocols=["2PC", "INBAC", "PaxosCommit"], systems=[(6, 1)], max_time=100000
)


class ClusterSim(SweepWorkload):
    name = "cluster_sim"
    full_rounds = 12
    seeds_per_round = 1
    slices = {
        "uniform": dict(
            workloads=[
                named_workload(
                    "uniform",
                    transactions=400,
                    keys_per_partition=1000,
                    participants_per_txn=3,
                )
            ],
            **_CLUSTER_GRID,
        ),
        "hotspot": dict(
            workloads=[named_workload("hotspot", transactions=400)], **_CLUSTER_GRID
        ),
    }
    slice_metric = "db.slice"


# --------------------------------------------------------------------------- #
# the asyncio runtime
# --------------------------------------------------------------------------- #
#: wall seconds per unit U of protocol time; links add no delay of their own,
#: so the latency floor is the protocols' own round timers
UNIT = 0.01
LINK_DELAY_UNITS = 0.0
PARTITIONS = 4
TIMEOUT_UNITS = 500.0
#: Clients think for a seeded 0-2 ms before each submit.  Without it every
#: transaction starts where the previous one ended, the chain locks onto the
#: event loop's 1 ms timer rounding, and the median latency of a whole run
#: lands anywhere in 0.9-1.9 ms above the oracle (47 % spread over 12 runs).
THINK_S = 0.002
ORACLE_TXNS = 200


class RuntimeWorkload:
    """Closed-loop clients against one ``AsyncClusterService``."""

    name = ""
    clients = 1
    full_txns = 0  # measured transactions at --seconds 10
    #: clients wait on protocol timers, not on the processor: rates and
    #: latency are what a machine of any speed would show
    timer_paced = True
    warm_txns = 0

    def __init__(self, seed: int, scale: float, pins: Dict[str, Any], protocol: str = "2PC"):
        self.seed = seed
        self.protocol = protocol
        self.measured_txns = round(self.full_txns * scale)
        self.ready_at: Optional[float] = None

    async def _clients(self, service, txns, latencies, outcomes, tracer, parent) -> None:
        async def session(index: int) -> None:
            # starts staggered evenly over 3 U so clients do not move in step
            await asyncio.sleep(index * 3 * UNIT / self.clients)
            think = random.Random(self.seed * 1000 + index)
            for txn in txns[index :: self.clients]:
                await asyncio.sleep(think.random() * THINK_S)
                with tracer.span("submit", parent, txn=txn.txn_id):
                    start = time.perf_counter()
                    outcome = await service.submit(txn, timeout_units=TIMEOUT_UNITS)
                    latencies.append(time.perf_counter() - start)
                outcomes.append(outcome)

        await asyncio.gather(*(session(i) for i in range(self.clients)))

    async def _drive(self, txns, tracer, profile: Optional[LayerProfile]) -> Round:
        warm, measured = txns[: self.warm_txns], txns[self.warm_txns :]
        service = AsyncClusterService(
            ClusterConfig(
                num_partitions=PARTITIONS,
                commit_protocol=self.protocol,
                seed=self.seed,
                max_time=2000.0,
            ),
            unit=UNIT,
        )
        extra: Dict[str, Any] = {}
        with tracer.span("run") as root:
            with tracer.span("service.start", root):
                start = time.perf_counter()
                await service.start()
                extra["start_ms"] = 1000.0 * (time.perf_counter() - start)
            with tracer.span("warm-up", root):
                await self._clients(service, warm, [], [], NullTracer(), None)
            if self.ready_at is None:
                self.ready_at = time.time()
            latencies: List[float] = []
            outcomes: List[Any] = []
            lag: List[float] = []
            lag_task = (
                asyncio.get_running_loop().create_task(_loop_lag(lag))
                if tracer.enabled
                else None
            )
            speed: List[float] = []
            speed_task = asyncio.get_running_loop().create_task(_speed_probe(speed))
            msgs_before = service.transport.messages_total
            modules_before = dict(service.transport.messages_by_module)
            with tracer.span("measure", root) as measure:
                with profile.recording() if profile is not None else nullcontext():
                    start, cpu_start = time.perf_counter(), time.process_time()
                    await self._clients(
                        service, measured, latencies, outcomes, tracer, measure
                    )
                    wall = time.perf_counter() - start
                    cpu = time.process_time() - cpu_start
            for task in (lag_task, speed_task):
                if task is not None:
                    task.cancel()
                    with suppress(asyncio.CancelledError):
                        await task
            msgs = service.transport.messages_total - msgs_before
            by_module = {
                module: count - modules_before.get(module, 0)
                for module, count in service.transport.messages_by_module.items()
            }
            with tracer.span("shutdown", root):
                start = time.perf_counter()
                report = await service.shutdown()
                extra["shutdown_ms"] = 1000.0 * (time.perf_counter() - start)

        done = [o for o in outcomes if o is not None]
        commits = sum(1 for o in done if o.decision == COMMIT)
        failed = len(outcomes) - len(done)
        if failed:
            _complain(f"{self.name}: {failed} transactions without an outcome in {TIMEOUT_UNITS} U")
        violations = list(report.invariants.violations) if report.invariants else []
        for violation in violations[:5]:
            _complain(f"{self.name}: invariant violation: {violation}")
        for pid, exc in service.runtime.errors[:5]:
            _complain(f"{self.name}: handler error on P{pid}: {exc!r}")
        failed += len(violations) + len(service.runtime.errors)
        extra.update(
            latencies=sorted(latencies),
            lag=sorted(lag),
            aborts=len(done) - commits,
            fallback_msgs=_fallback_messages(by_module),
        )
        return Round(
            wall=wall,
            cpu=cpu,
            ops=len(done),
            txns=len(done),
            commits=commits,
            msgs=msgs,
            overhead_ms=0.0,
            attempted=len(outcomes),
            failed=min(failed, len(outcomes)),
            speed=speed,
            extra=extra,
        )

    def _oracle(self, txns) -> Tuple[float, float]:
        """``(p50 commit latency in U, messages per txn)`` on the simulator."""
        report = run_cluster(
            ClusterConfig(
                num_partitions=PARTITIONS,
                commit_protocol=self.protocol,
                seed=self.seed,
                max_time=1e6,
                trace_level="counters",
            ),
            txns,
        )
        latencies = sorted(report.commit_latencies())
        return percentile(latencies, 50), report.messages_total / len(report.outcomes)

    def _finish(self, result: Round, oracle: Tuple[float, float]) -> Round:
        """Overhead against the oracle, and the message-count gate."""
        oracle_ms = 1000.0 * oracle[0] * UNIT
        result.overhead_ms = 1000.0 * percentile(result.extra["latencies"], 50) - oracle_ms
        msgs_per_txn = result.msgs / result.txns
        if result.extra["aborts"] == 0 and msgs_per_txn != oracle[1]:
            _complain(
                f"{self.name}: {msgs_per_txn} messages per txn, "
                f"the simulator sends {oracle[1]}"
            )
            result.failed = result.txns
        return result

    def execute(self, traced: bool) -> Outcome:
        txns = uniform_workload(
            self.warm_txns + self.measured_txns,
            PARTITIONS,
            keys_per_partition=100000,
            participants_per_txn=2,
            seed=self.seed,
        ).transactions
        base = asyncio.run(self._drive(txns, NullTracer(), None))
        if not self.measured_txns:
            return Outcome(rounds=[])
        oracle = self._oracle(txns[self.warm_txns :][:ORACLE_TXNS])
        base = self._finish(base, oracle)
        latencies = base.extra["latencies"]
        tail_q, tail_ms = tail_percentile(latencies)
        notes = {
            "protocol": self.protocol,
            "clients": self.clients,
            "workers": 1,
            "loop": "closed",
            "unit_s_per_U": UNIT,
            "link_delay_U": LINK_DELAY_UNITS,
            "oracle_p50_U": oracle[0],
            "oracle_msgs_per_txn": oracle[1],
            "latency_floor": "the protocols' round timers (links deliver at once)",
            "latency_samples": len(latencies),
            "latency_ms_p50": 1000.0 * percentile(latencies, 50),
            "tail_percentile": tail_q,
            "latency_ms_tail": 1000.0 * tail_ms,
        }
        if not traced:
            return Outcome(rounds=[base], notes=notes)

        tracer, profile = Tracer(f"{self.name}/{self.seed}"), LayerProfile()
        run = asyncio.run(self._drive(txns, tracer, profile))
        oracle_ms = 1000.0 * oracle[0] * UNIT
        lag = run.extra["lag"]
        per_layer = {f"{layer}.self_share": s for layer, s in profile.shares().items()}
        per_layer.update(
            {
                "trace.overhead_ratio": (run.wall / run.ops) / (base.wall / base.ops),
                "runtime.latency_ms_p50": notes["latency_ms_p50"],
                "runtime.latency_ms_p99": notes["latency_ms_tail"],
                "runtime.overhead_ms_p99": notes["latency_ms_tail"] - oracle_ms,
                "runtime.loop_lag_ms_p50": 1000.0 * percentile(lag, 50),
                "runtime.loop_lag_ms_p99": 1000.0 * tail_percentile(lag)[1],
                "runtime.cpu_util": base.cpu / base.wall,
                "runtime.cluster.start_ms": base.extra["start_ms"],
                "runtime.cluster.shutdown_ms": base.extra["shutdown_ms"],
                "consensus.msgs_share": run.extra["fallback_msgs"] / run.msgs,
                "db.abort_share": run.extra["aborts"] / run.txns,
                **_wal_metrics(profile, run.txns),
            }
        )
        seconds, idle = profile.fold()
        trace = {
            "spans": tracer.spans,
            "span_self_s": tracer.self_seconds(),
            "layer_self_s": seconds,
            "idle_s": idle,
        }
        base.failed += run.failed
        return Outcome(rounds=[base], per_layer=per_layer, notes=notes, trace=trace)


async def _loop_lag(samples: List[float], period: float = 0.005) -> None:
    """Sleep ``period`` over and over, recording how late each wake-up ran.

    5 ms rather than 1 ms: at 1 kHz the probe itself was most of what the
    event loop did on ``rt_light`` and bent the traced run's self-time shares.
    """
    while True:
        start = time.perf_counter()
        await asyncio.sleep(period)
        samples.append(time.perf_counter() - start - period)


async def _speed_probe(samples: List[float]) -> None:
    """One reference loop every ``SPEED_PERIOD_S`` on the measured event loop.

    Each holds the loop for about a millisecond, 0.4 % of its time, and is
    left in the CPU reading: the same on every commit.  A sample starts from
    an idle processor, as the cluster's own handlers do.
    """
    while True:
        await asyncio.sleep(SPEED_PERIOD_S)
        samples.append(reference_loop())


class RtLight(RuntimeWorkload):
    name = "rt_light"
    clients = 4
    full_txns = 1600
    warm_txns = 40


class RtLoaded(RuntimeWorkload):
    name = "rt_loaded"
    clients = 8
    full_txns = 4000
    warm_txns = 100


WORKLOADS = {
    cls.name: cls
    for cls in (SweepLarge, SweepGrid, SweepPoolFull, ClusterSim, RtLight, RtLoaded)
}
