"""The transactional KV cluster, paced by the asyncio runtime.

:class:`AsyncClusterService` is a :class:`repro.db.cluster.Cluster` whose
kernel is :class:`~repro.runtime.runtime.AsyncRuntime` — the simulator's
scheduler paced by the wall clock.  The cluster itself (the *same*
:class:`~repro.db.partition.PartitionServer` and
:class:`~repro.db.coordinator.ClientCoordinator` classes the simulator runs,
its shape, refusals, binding order, WAL rejoin and report) is the one
:mod:`repro.db.cluster` builds on both backends; the service only adds what
pacing it live needs:

* ``await service.submit(txn)`` from any number of concurrent client
  coroutines;
* ``crash_partition(pid)`` and ``recover_partition(pid)`` by hand, mid-run;
* ``await service.shutdown()`` for the report (invariant battery included,
  evaluated on the surviving state);
* the ``cluster.*`` counters (crash, rejoin, WAL replay time, in-doubt
  resolution, retries) when handed a duck-typed ``metrics=`` registry.

What happened — each crash, rejoin and outcome — is the report's
(:class:`~repro.db.cluster.ClusterReport`); the registry holds only what it
cost, summed across runs.

Its batch form is :func:`repro.db.cluster.run_cluster` with
``backend="asyncio"``: the coordinator submits a planned workload from its
own timers, the identical code path as under the simulator.

The configuration means what it means on the simulator: ``delay_model`` is
the network (default: a zero-delay :class:`~repro.sim.network.LinkDelay`;
per-link delay, jitter, slow factors and outages are its
:class:`~repro.sim.network.LinkPolicy` entries), ``fault_plan`` crashes and
rejoins are the kernel's own entries, and a ``controller`` is consulted on
every event as it is there.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.db.cluster import Cluster, ClusterConfig, ClusterReport, RecoveryEvent
from repro.db.coordinator import TransactionOutcome
from repro.db.partition import PartitionServer
from repro.db.transaction import Transaction
from repro.errors import ConfigurationError
from repro.runtime.runtime import AsyncRuntime
from repro.sim.trace import Trace

#: clusters run a finer clock than bare protocol runs: commit timers span
#: tens of units, so 10 ms per U keeps batch runs short while still dwarfing
#: a turn of the event loop
DEFAULT_CLUSTER_UNIT_SECONDS = 0.01


class TransportView:
    """Read-only message totals over a runtime's record.

    Exists for the perf ledger, which reads ``service.transport`` (the
    benchmark tree is not edited alongside the runtime); the benchmark-tree
    rework in ROADMAP.md (item 11) deletes it.
    """

    def __init__(self, trace: Trace):
        self._trace = trace

    @property
    def messages_total(self) -> int:
        return self._trace.message_count()

    @property
    def messages_by_module(self) -> Dict[str, int]:
        return self._trace.module_histogram()


class AsyncClusterService(Cluster):
    """A live transactional KV cluster on the asyncio runtime.

    Usage::

        service = AsyncClusterService(ClusterConfig(commit_protocol="INBAC"))
        await service.start()
        outcome = await service.submit(txn)        # from any coroutine
        service.crash_partition(2)                 # fault injection
        report = await service.shutdown()          # invariants included

    It starts once; after :meth:`shutdown` nothing more can be submitted,
    crashed or rejoined.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        unit: float = DEFAULT_CLUSTER_UNIT_SECONDS,
        metrics: Optional[Any] = None,
    ):
        super().__init__(config, AsyncRuntime, unit=unit, metrics=metrics)
        self.runtime: AsyncRuntime = self.kernel
        self.unit = unit
        #: optional duck-typed metrics registry, threaded into the default link
        #: model and the runtime and fed by the service's own lifecycle hooks
        #: (crash, rejoin, WAL replay, in-doubt resolution, retries).  Strictly
        #: out of band — never consulted for any decision; this module never
        #: imports the obs package
        self.metrics = metrics
        self.transport = TransportView(self.runtime.trace)
        self.runtime.on_crash = self._crashed
        #: one future per caller awaiting each transaction id, resolved
        #: together by _on_outcome
        self._waiters: Dict[str, List[asyncio.Future]] = {}
        #: ``(pid, txn_id)`` of each participant of a completed transaction
        #: whose WAL does not hold the outcome yet
        self._unlogged: Set[Tuple[int, str]] = set()
        #: pending while wait_all_completed() callers wait, shared by all of
        #: them; resolved and dropped once the workload is settled (see _settled)
        self._all_done: Optional[asyncio.Future] = None
        self._started = False
        self._shut_down = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, workload: Sequence[Transaction] = ()) -> None:
        """Boot partitions and coordinator; optionally preload a workload."""
        if self._started:
            raise ConfigurationError("service already started")
        self.bind(workload).on_outcome = self._on_outcome
        await self.runtime.start()
        self._started = True

    def _check_running(self) -> None:
        if not self._started:
            raise ConfigurationError("service not started")
        if self._shut_down:
            raise ConfigurationError("service already shut down")

    def _partition(self, pid: int) -> PartitionServer:
        server = super()._partition(pid)
        server.on_logged = self._logged
        return server

    def _on_outcome(self, outcome: TransactionOutcome) -> None:
        for waiter in self._waiters.pop(outcome.txn_id, ()):
            if not waiter.done():
                waiter.set_result(outcome)
        # the outcome completes on the first DONE; the other participants
        # may still be deciding
        processes = self.runtime.processes
        for pid in outcome.participants:
            if processes[pid].wal.outcome_of(outcome.txn_id) is None:
                self._unlogged.add((pid, outcome.txn_id))
        self._check_settled()

    def _logged(self, pid: int, txn_id: str) -> None:
        self._unlogged.discard((pid, txn_id))
        self._check_settled()

    def _settled(self) -> bool:
        """No submit is unresolved, and every transaction has an outcome,
        logged by every live participant.

        An unresolved submit counts even before its call reaches the
        coordinator, whose ``all_completed()`` holds vacuously until then.
        """
        return (
            not self._waiters
            and self.client.all_completed()
            and not any(self._will_log(pid, txn_id) for pid, txn_id in self._unlogged)
        )

    def _will_log(self, pid: int, txn_id: str) -> bool:
        """Whether a participant yet to log ``txn_id`` is waited for.

        Not while it is down; once it has crashed, only for what its WAL
        prepared: an EXEC it lost is not sent again for a completed
        transaction.
        """
        runtime = self.runtime
        if runtime.is_down(pid):
            return False
        if pid not in runtime.trace.crashes:
            return True
        return runtime.processes[pid].wal.prepare_record_of(txn_id) is not None

    def _check_settled(self) -> None:
        done = self._all_done
        if done is not None and self._settled():
            self._all_done = None
            done.set_result(None)

    # ------------------------------------------------------------------ #
    # the client surface
    # ------------------------------------------------------------------ #
    async def submit(
        self, txn: Transaction, *, timeout_units: Optional[float] = None
    ) -> Optional[TransactionOutcome]:
        """Submit one transaction and await its outcome.

        Returns None when no outcome arrived within ``timeout_units``
        (default: the config's ``max_time``; a value that is not positive is
        refused) — e.g. because a participant partition crashed; the
        transaction then shows up in the report's pending/in-doubt sections.
        A transaction id that already completed returns its recorded outcome
        at once and is not sent again, nor is one another caller's submit
        still awaits: every caller gets the outcome.  An id already used by
        a transaction with other operations is refused.
        """
        self._check_running()
        if timeout_units is not None and not timeout_units > 0:
            raise ConfigurationError(
                f"timeout_units must be positive, got {timeout_units}"
            )
        if self.runtime.is_down(self.client_pid):
            raise ConfigurationError(
                "the client coordinator has crashed; no new transactions can "
                "be submitted"
            )
        # registered now, not when the kernel handles the submit, so a
        # conflicting id is refused even while this one is still queued
        self.client.register(txn)
        known = self.client.outcomes.get(txn.txn_id)
        if known is not None and known.completed:
            return known
        budget = self.config.max_time if timeout_units is None else timeout_units
        waiter = asyncio.get_running_loop().create_future()
        waiters = self._waiters.setdefault(txn.txn_id, [])
        if not waiters:
            # the first caller posts the submit; one whose id is in flight waits
            self.runtime.call(
                self.client_pid, lambda process: process.submit_transaction(txn)
            )
        waiters.append(waiter)
        # awaited directly, the waiter wakes this task in the loop step after
        # the kernel's, ahead of any wake-up due then; a relay through a
        # second future would cost another step
        try:
            async with asyncio.timeout(budget * self.unit):
                outcome = await waiter
        except TimeoutError:
            waiters = self._waiters.get(txn.txn_id, [])
            if waiter in waiters:
                waiters.remove(waiter)
                if not waiters:
                    del self._waiters[txn.txn_id]
            self._check_settled()
            return None
        if self.metrics is not None:
            self.metrics.observe(
                "cluster.outcome_late_seconds",
                (self.runtime.now_units() - outcome.ack_time) * self.unit,
            )
        return outcome

    def crash_partition(self, pid: int) -> None:
        """Crash-stop a partition (or the coordinator) right now."""
        self._check_running()
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
        self._check_running()
        self._check_known_pid(pid)
        self.check_rejoin(pid)
        self.runtime.rejoin(pid)
        return self.recovery_events[-1]

    def _crashed(self, pid: int) -> None:
        """Count a crash, by hand or by plan."""
        if self.metrics is not None:
            self.metrics.inc("cluster.crashes")
        self._check_settled()

    def _rejoin(
        self, pid: int, runtime: AsyncRuntime, old: Any
    ) -> Optional[PartitionServer]:
        """The cluster's recovery factory, with the WAL replay timed and counted."""
        replay_t0 = time.monotonic()
        server = super()._rejoin(pid, runtime, old)
        replay_seconds = time.monotonic() - replay_t0
        if server is None:
            return None
        event = self.recovery_events[-1]
        if self.metrics is not None:
            self.metrics.inc("cluster.rejoins")
            self.metrics.inc("cluster.in_doubt_at_rejoin", len(event.in_doubt_at_rejoin))
            self.metrics.observe("cluster.wal_replay_seconds", replay_seconds)
        return server

    def _check_known_pid(self, pid: int) -> None:
        if pid not in self.runtime.processes:
            raise ConfigurationError(
                f"unknown process P{pid}: the cluster runs partitions "
                f"P1..P{self.config.num_partitions} and the coordinator "
                f"P{self.client_pid}"
            )

    async def wait_all_completed(self, timeout_units: float) -> bool:
        """Wait until every submit has resolved, the coordinator has an
        outcome for every transaction and every live participant of each
        has logged it.

        The coordinator completes a transaction on its *first* DONE, so the
        other participants may still be deciding.  A crashed participant is
        not waited for, nor a rejoined one for what it never prepared.  Any
        number of callers may wait at once.  False when ``timeout_units``
        pass first.
        """
        self._check_running()
        if self._settled():
            return True
        if self._all_done is None:
            self._all_done = asyncio.get_running_loop().create_future()
        try:
            async with asyncio.timeout(timeout_units * self.unit):
                # shared by every caller: one caller's timeout must not
                # cancel it for the others
                await asyncio.shield(self._all_done)
        except TimeoutError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # tear-down and reporting
    # ------------------------------------------------------------------ #
    async def shutdown(self) -> ClusterReport:
        """Stop the runtime and render the report from the surviving state."""
        if not self._started:
            raise ConfigurationError("service not started")
        self._shut_down = True
        await self.runtime.stop()
        for waiters in self._waiters.values():
            for waiter in waiters:
                if not waiter.done():
                    waiter.cancel()
        self._waiters.clear()
        report = self.report()
        if self.metrics is not None:
            # in-doubt resolution: queried at rejoin minus still unresolved now
            queried = sum(len(e.in_doubt_at_rejoin) for e in report.recovery_events)
            unresolved = sum(map(len, report.in_doubt_by_partition.values()))
            self.metrics.inc("cluster.in_doubt_resolved", max(0, queried - unresolved))
            self.metrics.inc("cluster.retries", sum(report.retry_counts.values()))
        return report


__all__ = [
    "AsyncClusterService",
    "DEFAULT_CLUSTER_UNIT_SECONDS",
]
