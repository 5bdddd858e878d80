"""The transactional cluster: partitions + coordinator on one kernel, reported.

A :class:`Cluster` puts a set of :class:`~repro.db.partition.PartitionServer`
processes and one :class:`~repro.db.coordinator.ClientCoordinator` on a
kernel and renders a :class:`ClusterReport` with per-transaction outcomes,
message statistics and the cluster-invariant battery
(:mod:`repro.db.invariants`) evaluated on the final partition state.
:func:`run_cluster` runs a transaction workload with the configured commit
protocol; the database benchmark (experiment E7) runs it once per commit
protocol and compares commit latency and message volume.

There is one kernel, :class:`~repro.sim.runner.Scheduler`, and two pacings of
it; the cluster is built the same way on both:

* ``backend="sim"`` (the default) — the scheduler run as fast as possible in
  virtual time until every transaction has an outcome: deterministic, the
  measurement oracle.
* ``backend="asyncio"`` — the asyncio runtime, the same scheduler paced by
  the wall clock (:class:`repro.runtime.cluster.AsyncClusterService`, which
  adds live submissions, crash and rejoin by hand and telemetry).  Delay
  models, fault plans and schedule controllers carry over: they are the one
  kernel's.

A run may also be placed under a schedule controller
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

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.db.coordinator import ClientCoordinator, RetryPolicy, TransactionOutcome
from repro.db.invariants import InvariantReport, check_cluster
from repro.db.partition import PartitionServer
from repro.db.transaction import Transaction
from repro.db.wal import WalRecord, in_doubt_of
from repro.errors import ConfigurationError
from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol
from repro.sim.faults import FaultPlan
from repro.sim.network import DelayModel
from repro.sim.runner import Scheduler
from repro.sim.trace import digest_percentile

#: the runtime backends run_cluster can dispatch to
BACKENDS = ("sim", "asyncio")


@dataclass
class ClusterConfig:
    """Configuration of one cluster run."""

    num_partitions: int = 4
    commit_protocol: Union[str, type] = "2PC"
    commit_f: int = 1
    delay_model: Optional[DelayModel] = None
    fault_plan: Optional[FaultPlan] = None
    seed: int = 0
    max_time: float = 2000.0
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

    def __post_init__(self) -> None:
        if self.commit_f < 1:
            raise ConfigurationError(
                f"commit_f must be at least 1, got {self.commit_f}; a transaction "
                f"with fewer participants runs at f = participants - 1"
            )
        if not self.max_time >= 0:  # NaN too: it would leave the run no horizon
            raise ConfigurationError(
                f"max_time must be a number >= 0, got {self.max_time}"
            )

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


@dataclass
class ClusterReport:
    """Result of one cluster run."""

    protocol: str
    num_partitions: int
    outcomes: List[TransactionOutcome]
    messages_total: int
    messages_by_module: Dict[str, int]
    end_time: float
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
    #: schedule-controller decisions that applied, as (step, kind, arg)
    #: tuples — empty for uncontrolled runs
    schedule_decisions: List[Tuple[int, str, Any]] = field(default_factory=list)
    #: canonical trace fingerprint; only computed for controlled runs, where
    #: it backs the replay-determinism guarantee
    trace_fingerprint: Optional[str] = None
    #: every partition crash-and-rejoin, in rejoin order (empty when no
    #: recovery happened)
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    #: pid -> every record of that partition's write-ahead log, in log order
    wal_records: Dict[int, List[WalRecord]] = field(default_factory=dict)
    #: which runtime produced this report ("sim" or "asyncio")
    backend: str = "sim"

    # -- views over the partitions' logs ------------------------------------ #
    @property
    def in_doubt_by_partition(self) -> Dict[int, List[str]]:
        """pid -> transactions prepared on that partition without a logged
        outcome (the partitions an anomaly left blocked); empty lists omitted."""
        return {
            pid: in_doubt
            for pid, records in self.wal_records.items()
            if (in_doubt := in_doubt_of(records))
        }

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

    @property
    def retry_counts(self) -> Dict[str, int]:
        """txn id -> resubmissions (only transactions that retried appear)."""
        return {
            o.txn_id: len(o.sent_times) - 1
            for o in self.outcomes
            if len(o.sent_times) > 1
        }

    def commit_latencies(self) -> List[float]:
        return [o.commit_latency for o in self.outcomes if o.commit_latency is not None]

    def mean_commit_latency(self) -> Optional[float]:
        latencies = self.commit_latencies()
        return statistics.mean(latencies) if latencies else None

    def p95_commit_latency(self) -> Optional[float]:
        latencies = self.commit_latencies()
        return digest_percentile(Counter(latencies), len(latencies), 95)

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


class Cluster:
    """One cluster on one kernel: partitions, client and WAL rejoin.

    The cluster's rules are written here once, whichever kernel paces it:
    partitions P1..Pk and the client coordinator P(k+1) on ``n = k + 1``
    processes with ``f = k`` (so any crash plan over the partitions is
    admissible), the refusals, the binding order, the ``db/<protocol>`` trace
    label and the recovery factory.  ``kernel`` is the scheduler class —
    :class:`~repro.sim.runner.Scheduler`, which :func:`run_cluster` runs as
    fast as possible, or the asyncio runtime, which
    :class:`~repro.runtime.cluster.AsyncClusterService` paces on the event
    loop — built from the config and the ``pacing`` keywords only that class
    takes.
    """

    def __init__(
        self, config: ClusterConfig, kernel: Callable[..., Scheduler], **pacing: Any
    ):
        if config.num_partitions < 2:
            raise ConfigurationError("a cluster needs at least 2 partitions")
        self.config = config
        self.client_pid = config.num_partitions + 1
        if config.fault_plan is not None:
            for pid in config.fault_plan.recoveries:
                self.check_rejoin(pid)
        self.kernel = kernel(
            self.client_pid,
            config.num_partitions,
            seed=config.seed,
            delay_model=config.delay_model,
            fault_plan=config.fault_plan,
            controller=config.controller,
            **pacing,
        )
        self.kernel.trace.protocol = f"db/{config.protocol_label()}"
        self.kernel.set_recovery_factory(self._rejoin)
        self.client: Optional[ClientCoordinator] = None
        #: every partition crash-and-rejoin, in rejoin order
        self.recovery_events: List[RecoveryEvent] = []

    def check_rejoin(self, pid: int) -> None:
        """Refuse a rejoin of the client: its outcome log is volatile."""
        if pid == self.client_pid:
            raise ConfigurationError(
                "the client coordinator cannot rejoin: its outcome log is "
                "volatile (only partitions P1..Pk recover by WAL replay)"
            )

    def _partition(self, pid: int) -> PartitionServer:
        kernel, config = self.kernel, self.config
        return PartitionServer(
            pid,
            kernel.n,
            kernel.f,
            kernel.env_for(pid),
            coordinator=self.client_pid,
            commit_protocol=config.resolve_protocol(),
            commit_f=config.commit_f,
        )

    def bind(self, transactions: Sequence[Transaction] = ()) -> ClientCoordinator:
        """Bind P1..Pk, then the client with its planned workload; start them."""
        kernel, config = self.kernel, self.config
        for pid in range(1, self.client_pid):
            kernel.bind_process(pid, self._partition(pid))
        self.client = ClientCoordinator(
            self.client_pid,
            kernel.n,
            kernel.f,
            kernel.env_for(self.client_pid),
            workload=list(transactions),
            retry_policy=config.retry_policy,
        )
        kernel.bind_process(self.client_pid, self.client)
        kernel.start_processes()
        return self.client

    def _rejoin(
        self, pid: int, kernel: Scheduler, old: Any
    ) -> Optional[PartitionServer]:
        """The recovery factory: what a crashed pid rejoins with.

        A partition is rebuilt from its durable WAL (the crashed object only
        contributes its log) and its rejoin is appended to
        :attr:`recovery_events`.  None refuses the client (see
        :meth:`check_rejoin`), and the kernel then ignores the rejoin.
        """
        if pid == self.client_pid:
            return None
        server = self._partition(pid)
        replayed = server.recover_from_wal(old.wal)
        old.release()  # nothing runs the crashed incarnation again
        self.recovery_events.append(
            RecoveryEvent(
                pid=pid,
                crashed_at=kernel.trace.crashes.get(pid, 0.0),
                rejoined_at=kernel.clock.now,
                replayed_transactions=replayed,
                in_doubt_at_rejoin=tuple(server.wal.in_doubt()),
            )
        )
        return server

    def report(self) -> ClusterReport:
        """Outcomes, state and invariants, read off the cluster and its kernel."""
        kernel, client = self.kernel, self.client
        trace = kernel.trace
        partitions = {pid: kernel.processes[pid] for pid in range(1, self.client_pid)}
        messages_total = trace.message_count()
        decide_times = [
            o.decide_time for o in client.outcomes.values() if o.decide_time is not None
        ]
        # the paper's best-case accounting charges what was *received* by the
        # last decision; a wall-clock record keeps no receive times, so there
        # (and when nothing decided) it equals the total
        messages_until_last = (
            trace.messages_received_by(max(decide_times))
            if decide_times and kernel.backend == "sim"
            else messages_total
        )
        snapshots = {pid: server.store.snapshot() for pid, server in partitions.items()}
        return ClusterReport(
            protocol=self.config.protocol_label(),
            num_partitions=self.config.num_partitions,
            outcomes=list(client.outcomes.values()),
            messages_total=messages_total,
            messages_by_module=trace.module_histogram(),
            end_time=trace.end_time,
            store_snapshots=snapshots,
            messages_until_last_decision=messages_until_last,
            execution_class=kernel.execution_class(),
            crashes=dict(trace.crashes),
            invariants=check_cluster(partitions, snapshots),
            pending_transactions=client.pending_transactions(),
            schedule_decisions=list(kernel.applied_schedule_actions),
            # the fingerprint is O(trace); only controlled runs need it (replay
            # determinism), uncontrolled sweeps keep the fast path
            trace_fingerprint=(
                trace.fingerprint() if self.config.controller is not None else None
            ),
            recovery_events=list(self.recovery_events),
            wal_records={
                pid: server.wal.records() for pid, server in partitions.items()
            },
            backend=kernel.backend,
        )


def run_cluster(
    config: ClusterConfig,
    transactions: Sequence[Transaction],
    backend: str = "sim",
) -> ClusterReport:
    """Run a workload of transactions on a cluster, on the chosen backend.

    The client submits the planned workload from its own timers on either
    backend.  ``"sim"`` runs the scheduler as fast as possible until every
    transaction has an outcome; ``"asyncio"`` paces the same cluster on the
    wall clock (:class:`~repro.runtime.cluster.AsyncClusterService`, at its
    default unit) until then or until ``config.max_time`` units elapsed.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown cluster backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    if not transactions:
        raise ConfigurationError("the workload is empty")
    if backend == "asyncio":
        # imported here only: the deterministic sim path never loads the
        # runtime package (the import direction db -> runtime exists only here)
        import asyncio

        from repro.runtime.cluster import AsyncClusterService

        async def paced() -> ClusterReport:
            service = AsyncClusterService(config)
            await service.start(transactions)
            await service.wait_all_completed(config.max_time)
            return await service.shutdown()

        return asyncio.run(paced())
    cluster = Cluster(
        config, Scheduler, max_time=config.max_time, trace_level=config.trace_level
    )
    kernel = cluster.kernel
    client = cluster.bind(transactions)
    # the outcome that completes the workload stops the run after its event
    client.on_outcome = lambda _: client.all_completed() and kernel.stop()
    kernel.run()
    report = cluster.report()
    kernel.release()
    return report
