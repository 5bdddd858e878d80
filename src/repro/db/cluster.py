"""Cluster driver: partitions + coordinator + a runtime backend, with reporting.

:func:`run_cluster` wires a set of :class:`~repro.db.partition.PartitionServer`
processes and one :class:`~repro.db.coordinator.ClientCoordinator` onto a
runtime backend, runs a transaction workload with the configured commit
protocol, and returns a :class:`ClusterReport` with per-transaction outcomes,
message statistics and the cluster-invariant battery
(:mod:`repro.db.invariants`) evaluated on the final partition state.  The
database benchmark (experiment E7) runs this once per commit protocol and
compares commit latency and message volume.

Two backends serve the same cluster code:

* ``backend="sim"`` (the default) — the discrete-event scheduler: virtual
  time, deterministic, supports delay models, fault plans and schedule
  controllers.  This is the measurement oracle.
* ``backend="asyncio"`` — the wall-clock transport runtime
  (:func:`repro.runtime.cluster.run_cluster_async`): the *same* partition,
  coordinator and commit-protocol classes on the same scheduler paced by the
  wall clock, with real concurrency.  Delay models, fault plans and schedule
  controllers carry over: they are the one kernel's.

The construction seam is :func:`build_partition`, :func:`build_client`,
:func:`rejoin_partition` and :func:`build_report` — each backend builds the
same processes, installs the same WAL rejoin as its recovery factory and hands
:func:`build_report` the execution record it wrote (a
:class:`~repro.sim.trace.Trace`), which the report's statistics are read from.

A sim run may also be placed under a schedule controller
(:class:`~repro.explore.ScheduleController`, via ``ClusterConfig.controller``):
the controller sees every scheduler event of the cluster — client submissions,
``EXEC`` deliveries, embedded commit-protocol messages and timers — and may
defer deliveries or inject crashes into partitions *and* the client
coordinator, exactly as it does for bare protocol runs.  Applied decisions are
recorded on the report (``schedule_decisions``) together with the trace
fingerprint, so every controlled cluster run replays byte-identically from
its ``(strategy, seed, decisions)`` triple.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.db.coordinator import ClientCoordinator, RetryPolicy, TransactionOutcome
from repro.db.invariants import InvariantReport, check_cluster
from repro.db.partition import PartitionServer
from repro.db.transaction import Transaction
from repro.errors import ConfigurationError
from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol
from repro.sim.faults import FaultPlan
from repro.sim.network import DelayModel, FixedDelay
from repro.sim.runner import Scheduler
from repro.sim.trace import Trace

#: the runtime backends run_cluster can dispatch to
BACKENDS = ("sim", "asyncio")


@dataclass
class ClusterConfig:
    """Configuration of one cluster run."""

    num_partitions: int = 4
    commit_protocol: Union[str, type] = "2PC"
    commit_f: int = 1
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    delay_model: Optional[DelayModel] = None
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    max_time: float = 2000.0
    prepare_margin: float = 1.0
    #: "full" keeps per-message records; "counters" runs the scheduler's
    #: counters level (identical report statistics, no MessageRecord churn)
    trace_level: str = "full"
    #: optional schedule controller (see :mod:`repro.explore`): single-use,
    #: consulted on every scheduler event, may defer deliveries and inject
    #: crashes within the scheduler's fault budget
    controller: Optional[Any] = None
    #: optional client retry policy (idempotent resubmission with bounded
    #: exponential backoff); works on both backends — the jitter draws from
    #: the client's per-process seeded RNG, so sim runs stay deterministic
    retry_policy: Optional[RetryPolicy] = None
    #: optional duck-typed transaction tracer (``begin``/``end``/``complete``
    #: with (pid, txn_id, name, t) — e.g. :class:`repro.obs.tracing.
    #: TraceContext`), handed to the coordinator and every partition on both
    #: backends.  Strictly out of band: span recording never feeds a decision,
    #: a report field or a fingerprint, and this module never imports the obs
    #: package
    tracer: Optional[Any] = None

    def resolve_protocol(self) -> type:
        if isinstance(self.commit_protocol, str):
            return get_protocol(self.commit_protocol).cls
        return self.commit_protocol

    def protocol_label(self) -> str:
        if isinstance(self.commit_protocol, str):
            return self.commit_protocol
        return getattr(self.commit_protocol, "protocol_name", self.commit_protocol.__name__)


@dataclass(frozen=True)
class RecoveryEvent:
    """One partition crash-and-rejoin observed during a cluster run."""

    pid: int
    crashed_at: float
    rejoined_at: float
    #: committed transactions replayed from the WAL into the fresh store
    replayed_transactions: int
    #: transactions still in doubt at the moment of rejoin (before the
    #: termination queries resolved them)
    in_doubt_at_rejoin: Tuple[str, ...] = ()

    @property
    def downtime(self) -> float:
        return self.rejoined_at - self.crashed_at


@dataclass
class ClusterReport:
    """Result of one cluster run."""

    protocol: str
    num_partitions: int
    outcomes: List[TransactionOutcome]
    messages_total: int
    messages_by_module: Dict[str, int]
    end_time: float
    partition_stats: Dict[int, Dict[str, int]]
    store_snapshots: Dict[int, Dict[str, object]]
    #: messages received by the time the last transaction decided (the
    #: paper's best-case accounting); equals messages_total when no
    #: transaction decided
    messages_until_last_decision: int = 0
    #: the run's execution class including schedule-controller effects
    #: (a controller deferring past the bound or injecting crashes upgrades
    #: the class exactly as it does for bare protocol runs)
    execution_class: str = "failure-free"
    #: pid -> crash time for every crash that actually happened, fault-plan
    #: and schedule-injected alike (partitions and the client coordinator)
    crashes: Dict[int, float] = field(default_factory=dict)
    #: the cluster-invariant battery (atomicity / durability / lock safety)
    #: evaluated on the final partition state; see :mod:`repro.db.invariants`
    invariants: Optional[InvariantReport] = None
    #: transaction ids without an outcome at the client, in workload order
    pending_transactions: List[str] = field(default_factory=list)
    #: pid -> transactions prepared on that partition without a logged
    #: outcome (the partitions an anomaly left blocked); empty lists omitted
    in_doubt_by_partition: Dict[int, List[str]] = field(default_factory=dict)
    #: schedule-controller decisions that applied, as (step, kind, arg)
    #: tuples — empty for uncontrolled runs
    schedule_decisions: List[Tuple[int, str, Any]] = field(default_factory=list)
    #: canonical trace fingerprint; only computed for controlled runs, where
    #: it backs the replay-determinism guarantee
    trace_fingerprint: Optional[str] = None
    #: every partition crash-and-rejoin, in rejoin order (empty when no
    #: recovery happened)
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    #: txn id -> resubmissions by the client's retry policy (only
    #: transactions that actually retried appear)
    retry_counts: Dict[str, int] = field(default_factory=dict)
    #: which runtime produced this report ("sim" or "asyncio")
    backend: str = "sim"

    # -- aggregates -------------------------------------------------------- #
    @property
    def committed(self) -> int:
        return sum(1 for o in self.outcomes if o.decision == COMMIT)

    @property
    def aborted(self) -> int:
        return sum(1 for o in self.outcomes if o.completed and o.decision != COMMIT)

    @property
    def incomplete(self) -> int:
        return sum(1 for o in self.outcomes if not o.completed)

    def commit_latencies(self) -> List[float]:
        return [o.commit_latency for o in self.outcomes if o.commit_latency is not None]

    def mean_commit_latency(self) -> Optional[float]:
        latencies = self.commit_latencies()
        return statistics.mean(latencies) if latencies else None

    def p95_commit_latency(self) -> Optional[float]:
        latencies = sorted(self.commit_latencies())
        if not latencies:
            return None
        # round(), not repro.sim.trace.digest_percentile's nearest-rank ceil():
        # left alone, its output is pinned in sweep `extra` rows (bench/pins.json)
        index = max(0, int(round(0.95 * len(latencies))) - 1)
        return latencies[index]

    def messages_per_transaction(self) -> Optional[float]:
        if not self.outcomes:
            return None
        return self.messages_total / len(self.outcomes)

    def summary_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "partitions": self.num_partitions,
            "txns": len(self.outcomes),
            "committed": self.committed,
            "aborted": self.aborted,
            "incomplete": self.incomplete,
            "mean_latency": self.mean_commit_latency(),
            "p95_latency": self.p95_commit_latency(),
            "messages": self.messages_total,
            "msgs_per_txn": self.messages_per_transaction(),
        }


# --------------------------------------------------------------------------- #
# the construction seam shared by every backend
# --------------------------------------------------------------------------- #
def cluster_shape(config: ClusterConfig) -> Tuple[int, int, int]:
    """``(n, f, client_pid)`` of the cluster's process set.

    Partitions are P1..Pk, the client coordinator is P(k+1); ``f = k`` so any
    crash plan over the partitions is admissible.
    """
    partitions = config.num_partitions
    return partitions + 1, partitions, partitions + 1


def build_partition(
    pid: int, n: int, f: int, env: Any, config: ClusterConfig
) -> PartitionServer:
    """One partition server, identically configured on every backend."""
    return PartitionServer(
        pid,
        n,
        f,
        env,
        commit_protocol=config.resolve_protocol(),
        commit_f=config.commit_f,
        protocol_kwargs=config.protocol_kwargs,
        tracer=config.tracer,
    )


def rejoin_partition(
    pid: int,
    scheduler: Scheduler,
    old: Any,
    config: ClusterConfig,
    recovery_events: List[RecoveryEvent],
) -> Optional[PartitionServer]:
    """The recovery factory of both backends: what a crashed pid rejoins with.

    A partition is rebuilt from its durable WAL (the crashed object only
    contributes its log) and its rejoin is appended to ``recovery_events``;
    the client coordinator's outcome log is volatile, so its rejoin is
    refused.  Installed with ``Scheduler.set_recovery_factory``.
    """
    n, f, client_pid = cluster_shape(config)
    if pid == client_pid:
        return None
    server = build_partition(pid, n, f, scheduler.env_for(pid), config)
    replayed = server.recover_from_wal(old.wal, coordinator=client_pid)
    recovery_events.append(
        RecoveryEvent(
            pid=pid,
            crashed_at=scheduler.trace.crashes.get(pid, 0.0),
            rejoined_at=scheduler.clock.time_to_units(scheduler.clock.now),
            replayed_transactions=replayed,
            in_doubt_at_rejoin=tuple(server.wal.in_doubt()),
        )
    )
    return server


def build_client(
    pid: int,
    n: int,
    f: int,
    env: Any,
    config: ClusterConfig,
    transactions: Sequence[Transaction],
) -> ClientCoordinator:
    """The client coordinator, identically configured on every backend."""
    return ClientCoordinator(
        pid,
        n,
        f,
        env,
        workload=list(transactions),
        prepare_margin=config.prepare_margin,
        retry_policy=config.retry_policy,
        tracer=config.tracer,
    )


def build_report(
    config: ClusterConfig,
    client: ClientCoordinator,
    partition_servers: Mapping[int, PartitionServer],
    trace: Trace,
    *,
    execution_class: str,
    schedule_decisions: Sequence[Tuple[int, str, Any]] = (),
    trace_fingerprint: Optional[str] = None,
    recovery_events: Sequence[RecoveryEvent] = (),
    backend: str = "sim",
) -> ClusterReport:
    """Render the backend-independent report: outcomes, state, invariants."""
    messages_total = trace.message_count()
    decide_times = [
        o.decide_time for o in client.outcomes.values() if o.decide_time is not None
    ]
    # the paper's best-case accounting charges what was *received* by the
    # last decision; a wall-clock record keeps no receive times, so there
    # (and when nothing decided) it equals the total
    messages_until_last = (
        trace.messages_received_by(max(decide_times))
        if decide_times and backend == "sim"
        else messages_total
    )
    partition_stats = {
        pid: dict(server.statistics) for pid, server in partition_servers.items()
    }
    store_snapshots = {
        pid: server.store.snapshot() for pid, server in partition_servers.items()
    }
    return ClusterReport(
        protocol=config.protocol_label(),
        num_partitions=config.num_partitions,
        outcomes=list(client.outcomes.values()),
        messages_total=messages_total,
        messages_by_module=trace.module_histogram(),
        end_time=trace.end_time,
        partition_stats=partition_stats,
        store_snapshots=store_snapshots,
        messages_until_last_decision=messages_until_last,
        execution_class=execution_class,
        crashes=dict(trace.crashes),
        invariants=check_cluster(partition_servers),
        pending_transactions=client.pending_transactions(),
        in_doubt_by_partition={
            pid: in_doubt
            for pid, server in partition_servers.items()
            if (in_doubt := server.in_doubt_transactions())
        },
        schedule_decisions=list(schedule_decisions),
        trace_fingerprint=trace_fingerprint,
        recovery_events=list(recovery_events),
        retry_counts=dict(client.retry_counts),
        backend=backend,
    )


def _validate(config: ClusterConfig, transactions: Sequence[Transaction]) -> None:
    if config.num_partitions < 2:
        raise ConfigurationError("a cluster needs at least 2 partitions")
    if not transactions:
        raise ConfigurationError("the workload is empty")


def run_cluster(
    config: ClusterConfig,
    transactions: Sequence[Transaction],
    backend: str = "sim",
) -> ClusterReport:
    """Run a workload of transactions on a cluster, on the chosen backend."""
    if backend == "sim":
        return _run_cluster_sim(config, transactions)
    if backend == "asyncio":
        # imported lazily: the runtime package must stay optional for the
        # deterministic sim path (and the import direction db -> runtime
        # exists only inside this dispatch)
        from repro.runtime.cluster import run_cluster_async

        return run_cluster_async(config, transactions)
    raise ConfigurationError(
        f"unknown cluster backend {backend!r}; known: {', '.join(BACKENDS)}"
    )


def _run_cluster_sim(
    config: ClusterConfig, transactions: Sequence[Transaction]
) -> ClusterReport:
    """The discrete-event backend (virtual time, deterministic)."""
    _validate(config, transactions)
    n, f, client_pid = cluster_shape(config)
    partitions = config.num_partitions
    if config.fault_plan is not None and client_pid in config.fault_plan.recoveries:
        raise ConfigurationError(
            "the client coordinator cannot rejoin: its outcome log is "
            "volatile (only partitions P1..Pk recover by WAL replay)"
        )
    scheduler = Scheduler(
        n=n,
        f=f,  # permits any crash plan over the partitions
        delay_model=config.delay_model or FixedDelay(1.0),
        fault_plan=config.fault_plan,
        seed=config.seed,
        max_time=config.max_time,
        protocol_name=f"db/{config.protocol_label()}",
        trace_level=config.trace_level,
        controller=config.controller,
    )

    for pid in range(1, partitions + 1):
        scheduler.bind_process(
            pid, build_partition(pid, n, f, scheduler.env_for(pid), config)
        )
    client = build_client(
        client_pid, n, f, scheduler.env_for(client_pid), config, transactions
    )
    scheduler.bind_process(client_pid, client)
    for process in scheduler.processes.values():
        process.on_start()
    recovery_events: List[RecoveryEvent] = []
    scheduler.set_recovery_factory(
        functools.partial(
            rejoin_partition, config=config, recovery_events=recovery_events
        )
    )

    scheduler.set_stop_predicate(lambda s: client.all_completed())
    trace = scheduler.run()

    partition_servers = {
        pid: scheduler.processes[pid] for pid in range(1, partitions + 1)
    }
    return build_report(
        config,
        client,
        partition_servers,
        trace,
        execution_class=scheduler.execution_class(),
        schedule_decisions=list(scheduler.applied_schedule_actions),
        # the fingerprint is O(trace); only controlled runs need it (replay
        # determinism), uncontrolled sweeps keep the fast path
        trace_fingerprint=(
            trace.fingerprint() if config.controller is not None else None
        ),
        recovery_events=recovery_events,
        backend="sim",
    )
