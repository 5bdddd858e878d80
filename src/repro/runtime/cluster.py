"""The transactional KV cluster served by the asyncio runtime.

Runs the *same* :class:`~repro.db.partition.PartitionServer` and
:class:`~repro.db.coordinator.ClientCoordinator` classes the simulator runs —
built through the shared construction seam in :mod:`repro.db.cluster` — on
the wall-clock event loop.  Two entry points:

* :func:`run_cluster_async` — batch mode, mirroring
  :func:`repro.db.cluster.run_cluster`: the coordinator submits a planned
  workload from its own timers (the identical code path as under the
  simulator) and the run ends when every transaction has an outcome or the
  time budget expires.  Returns the same :class:`~repro.db.cluster.ClusterReport`.
* :class:`AsyncClusterService` — live mode: ``await service.submit(txn)``
  from any number of concurrent client coroutines, crash partitions mid-run,
  then ``await service.shutdown()`` for the report (invariant battery
  included, evaluated on the surviving state).

The configuration means what it means on the simulator: ``delay_model`` is
the network (default: a zero-delay :class:`~repro.sim.network.LinkDelay`;
per-link delay, jitter, slow factors and outages are its
:class:`~repro.sim.network.LinkPolicy` entries), ``fault_plan`` crashes and
rejoins are the kernel's own entries, a ``controller`` is consulted on every
event as it is there, and a partition rejoins through the WAL replay the
simulator installs too (:func:`repro.db.cluster.rejoin_partition`).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Sequence

from repro.db.cluster import (
    ClusterConfig,
    ClusterReport,
    RecoveryEvent,
    _validate,
    build_client,
    build_partition,
    build_report,
    cluster_shape,
    rejoin_partition,
)
from repro.db.coordinator import ClientCoordinator, TransactionOutcome
from repro.db.transaction import Transaction
from repro.errors import ConfigurationError
from repro.runtime.runtime import AsyncRuntime
from repro.sim.network import LinkDelay
from repro.sim.trace import Trace

#: clusters run a finer clock than bare protocol runs: commit timers span
#: tens of units, so 10 ms per U keeps batch runs short while still dwarfing
#: a turn of the event loop
DEFAULT_CLUSTER_UNIT_SECONDS = 0.01


class TransportView:
    """Read-only message totals over a runtime's record.

    Exists for the perf ledger, which reads ``service.transport`` (the
    benchmark tree is not edited alongside the runtime); the benchmark-tree
    rework in ROADMAP.md (item 7) deletes it.
    """

    def __init__(self, trace: Trace):
        self._trace = trace

    @property
    def messages_total(self) -> int:
        return self._trace.message_count()

    @property
    def messages_by_module(self) -> Dict[str, int]:
        return self._trace.module_histogram()


class AsyncClusterService:
    """A live transactional KV cluster on the asyncio runtime.

    Usage::

        service = AsyncClusterService(ClusterConfig(commit_protocol="INBAC"))
        await service.start()
        outcome = await service.submit(txn)        # from any coroutine
        service.crash_partition(2)                 # fault injection
        report = await service.shutdown()          # invariants included
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        unit: float = DEFAULT_CLUSTER_UNIT_SECONDS,
        metrics: Optional[Any] = None,
        events: Optional[Any] = None,
    ):
        if config.num_partitions < 2:
            raise ConfigurationError("a cluster needs at least 2 partitions")
        if config.fault_plan is not None and cluster_shape(config)[2] in getattr(
            config.fault_plan, "recoveries", {}
        ):
            raise ConfigurationError(
                "the client coordinator cannot rejoin: its outcome log is "
                "volatile; only partitions are recoverable"
            )
        self.config = config
        self.unit = unit
        #: optional duck-typed telemetry sinks, threaded into the default link
        #: model and the runtime and fed by the service's own lifecycle hooks (crash,
        #: rejoin, WAL replay, in-doubt resolution, retries).  Strictly out
        #: of band — never consulted for any decision; this module never
        #: imports the obs package
        self.metrics = metrics
        self.events = events
        n, f, client_pid = cluster_shape(config)
        self.client_pid = client_pid
        self.runtime = AsyncRuntime(
            n, f, unit=unit, seed=config.seed,
            delay_model=config.delay_model or LinkDelay(seed=config.seed, metrics=metrics),
            fault_plan=config.fault_plan, controller=config.controller,
            metrics=metrics,
        )
        self.transport = TransportView(self.runtime.trace)
        self.runtime.trace.protocol = f"db/{config.protocol_label()}"
        self.runtime.on_crash = self._crashed
        self.runtime.set_recovery_factory(self._rejoin)
        self.client: Optional[ClientCoordinator] = None
        self._waiters: Dict[str, asyncio.Future] = {}
        #: set while wait_all_completed() waits; resolved by the outcome that
        #: completes the workload
        self._all_done: Optional[asyncio.Future] = None
        self._recovery_events: list = []
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, workload: Sequence[Transaction] = ()) -> None:
        """Boot partitions and coordinator; optionally preload a workload."""
        n, f, _ = cluster_shape(self.config)
        for pid in range(1, self.config.num_partitions + 1):
            self.runtime.bind_process(
                pid,
                build_partition(pid, n, f, self.runtime.env_for(pid), self.config),
            )
        self.client = build_client(
            self.client_pid,
            n,
            f,
            self.runtime.env_for(self.client_pid),
            self.config,
            workload,
        )
        self.client.on_outcome = self._on_outcome
        self.runtime.bind_process(self.client_pid, self.client)
        await self.runtime.start()
        self._started = True

    def _on_outcome(self, outcome: TransactionOutcome) -> None:
        waiter = self._waiters.pop(outcome.txn_id, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(outcome)
        done = self._all_done
        if done is not None and not done.done() and self.client.all_completed():
            done.set_result(None)

    # ------------------------------------------------------------------ #
    # the client surface
    # ------------------------------------------------------------------ #
    async def submit(
        self, txn: Transaction, *, timeout_units: Optional[float] = None
    ) -> Optional[TransactionOutcome]:
        """Submit one transaction and await its outcome.

        Returns None when no outcome arrived within ``timeout_units``
        (default: the config's ``max_time``) — e.g. because a participant
        partition crashed; the transaction then shows up in the report's
        pending/in-doubt sections.
        """
        if not self._started or self.client is None:
            raise ConfigurationError("service not started")
        if self.runtime.is_down(self.client_pid):
            raise ConfigurationError(
                "the client coordinator has crashed; no new transactions can "
                "be submitted"
            )
        budget = self.config.max_time if timeout_units is None else timeout_units
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[txn.txn_id] = waiter
        self.runtime.call(
            self.client_pid, lambda process: process.submit_transaction(txn)
        )
        try:
            return await asyncio.wait_for(waiter, timeout=budget * self.unit)
        except asyncio.TimeoutError:
            self._waiters.pop(txn.txn_id, None)
            return None

    def crash_partition(self, pid: int) -> None:
        """Crash-stop a partition (or the coordinator) right now."""
        self._check_known_pid(pid)
        self.runtime.crash(pid)

    def recover_partition(self, pid: int) -> RecoveryEvent:
        """Rejoin a crashed partition by WAL replay, right now.

        Rebuilds the partition's :class:`~repro.db.partition.PartitionServer`
        from its surviving write-ahead log — the volatile store, locks and
        pending-transaction state of the old incarnation are discarded, as a
        real restart would — then re-opens its links and resolves any in-doubt
        transactions through termination queries to the coordinator and the
        peer participants recorded in the WAL.  The client coordinator is not
        recoverable (its outcome log is volatile by design).
        """
        self._check_known_pid(pid)
        if pid == self.client_pid:
            raise ConfigurationError(
                "the client coordinator cannot rejoin: its outcome log is "
                "volatile; only partitions are recoverable"
            )
        self.runtime.rejoin(pid)
        return self._recovery_events[-1]

    def _crashed(self, pid: int) -> None:
        """Report a crash, by hand or by plan."""
        if self.metrics is not None:
            self.metrics.inc("cluster.crashes")
        if self.events is not None:
            self.events.emit(
                "cluster.crash", pid=pid, at_units=self.runtime.trace.crashes.get(pid)
            )

    def _rejoin(self, pid: int, runtime: AsyncRuntime, old: Any) -> Any:
        """The recovery factory: the WAL rejoin both backends run, reported."""
        replay_t0 = time.monotonic()
        server = rejoin_partition(pid, runtime, old, self.config, self._recovery_events)
        replay_seconds = time.monotonic() - replay_t0
        event = self._recovery_events[-1]
        if self.metrics is not None:
            self.metrics.inc("cluster.rejoins")
            self.metrics.inc("cluster.in_doubt_at_rejoin", len(event.in_doubt_at_rejoin))
            self.metrics.observe("cluster.wal_replay_seconds", replay_seconds)
        if self.events is not None:
            self.events.emit(
                "cluster.rejoin",
                pid=pid,
                replayed_transactions=event.replayed_transactions,
                in_doubt=len(event.in_doubt_at_rejoin),
                downtime_units=event.downtime,
                wal_replay_seconds=replay_seconds,
            )
        return server

    def _check_known_pid(self, pid: int) -> None:
        if pid not in self.runtime.processes:
            raise ConfigurationError(
                f"unknown process P{pid}: the cluster runs partitions "
                f"P1..P{self.config.num_partitions} and the coordinator "
                f"P{self.client_pid}"
            )

    async def wait_all_completed(self, timeout_units: float) -> bool:
        """Wait until the coordinator has an outcome for every transaction."""
        if self.client is None:
            raise ConfigurationError("service not started")
        if self.client.all_completed():
            return True
        self._all_done = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._all_done, timeout=timeout_units * self.unit)
        except asyncio.TimeoutError:
            return False
        finally:
            self._all_done = None
        return True

    # ------------------------------------------------------------------ #
    # tear-down and reporting
    # ------------------------------------------------------------------ #
    async def shutdown(self) -> ClusterReport:
        """Stop the runtime and render the report from the surviving state."""
        if self.client is None:
            raise ConfigurationError("service not started")
        await self.runtime.stop()
        trace = self.runtime.trace
        for waiter in self._waiters.values():
            if not waiter.done():
                waiter.cancel()
        self._waiters.clear()
        partition_servers = {
            pid: self.runtime.processes[pid]
            for pid in range(1, self.config.num_partitions + 1)
        }
        if self.metrics is not None or self.events is not None:
            # in-doubt resolution: queried at rejoin minus still unresolved now
            queried = sum(
                len(e.in_doubt_at_rejoin) for e in self._recovery_events
            )
            unresolved = sum(
                len(server.in_doubt_transactions())
                for server in partition_servers.values()
            )
            resolved = max(0, queried - unresolved)
            retries = sum(self.client.retry_counts.values())
            if self.metrics is not None:
                self.metrics.inc("cluster.in_doubt_resolved", resolved)
                self.metrics.inc("cluster.retries", retries)
            if self.events is not None:
                self.events.emit(
                    "cluster.shutdown",
                    end_units=trace.end_time,
                    transactions=len(self.client.outcomes),
                    in_doubt_resolved=resolved,
                    retries=retries,
                    crashes=len(trace.crashes),
                )
        return build_report(
            self.config,
            self.client,
            partition_servers,
            trace,
            execution_class=self.runtime.execution_class(),
            schedule_decisions=list(self.runtime.applied_schedule_actions),
            trace_fingerprint=(
                trace.fingerprint() if self.config.controller is not None else None
            ),
            recovery_events=list(self._recovery_events),
            backend="asyncio",
        )


def run_cluster_async(
    config: ClusterConfig,
    transactions: Sequence[Transaction],
    *,
    unit: float = DEFAULT_CLUSTER_UNIT_SECONDS,
    timeout_units: Optional[float] = None,
    metrics: Optional[Any] = None,
    events: Optional[Any] = None,
) -> ClusterReport:
    """Batch counterpart of :func:`repro.db.cluster.run_cluster` on asyncio.

    The coordinator submits the planned workload from its own timers —
    exactly the code path the simulator drives — and the run ends when every
    transaction has an outcome or ``timeout_units`` (default: the config's
    ``max_time``) of scaled wall-clock time elapsed.
    """
    _validate(config, transactions)
    budget = config.max_time if timeout_units is None else timeout_units

    async def _main() -> ClusterReport:
        service = AsyncClusterService(
            config,
            unit=unit,
            metrics=metrics,
            events=events,
        )
        await service.start(workload=transactions)
        await service.wait_all_completed(budget)
        return await service.shutdown()

    return asyncio.run(_main())


__all__ = [
    "AsyncClusterService",
    "DEFAULT_CLUSTER_UNIT_SECONDS",
    "run_cluster_async",
]
