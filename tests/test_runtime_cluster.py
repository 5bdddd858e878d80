"""The asyncio runtime serving real commits and the transactional cluster.

Everything here runs on the wall clock (marker: ``runtime``); the conftest
SIGALRM guard turns a deadlock into a failure instead of a hang.  The
protocol, partition and coordinator classes under test are byte-for-byte the
ones the simulator runs — that is the point.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.db.cluster import BACKENDS, ClusterConfig, run_cluster
from repro.db.coordinator import RetryPolicy
from repro.db.transaction import Operation, Transaction
from repro.env.conformance import ObservingProcess
from repro.errors import ConfigurationError
from repro.explore.strategies import make_strategy
from repro.obs import MetricsRegistry
from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol
from repro.runtime import AsyncClusterService, run_commit
from repro.runtime.runtime import AsyncRuntime
from repro.sim.faults import FaultPlan
from repro.sim.network import FixedDelay, LinkDelay, LinkPolicy
from repro.sim.runner import Scheduler
from repro.workloads.transactions import bank_transfer_workload, uniform_workload

pytestmark = pytest.mark.runtime


# --------------------------------------------------------------------------- #
# bare commit instances
# --------------------------------------------------------------------------- #
class TestRunCommit:
    def test_crash_of_one_participant_inbac_still_terminates(self):
        # INBAC is non-blocking for f=1: the surviving three must decide
        result = run_commit(
            "INBAC", 4, 1, [1, 1, 1, 1], crash_at={3: 0.5}, timeout_units=120.0
        )
        assert not result.timed_out
        assert result.errors == []
        assert 3 in result.trace.crashes
        survivors = {pid: d for pid, d in result.decisions.items() if pid != 3}
        assert len(survivors) == 3
        assert len(set(survivors.values())) == 1

    def test_message_counts_at_least_the_nice_execution_bound(self):
        # fault-free runs are message-driven: at least the registry's
        # best-case count flows (exactly, unless a loaded host lets a
        # failure-detection timer fire)
        for name in ("2PC", "INBAC"):
            info = get_protocol(name)
            result = run_commit(name, 4, 1, [1, 1, 1, 1])
            assert not result.timed_out
            assert result.trace.message_count() >= info.expected_messages(4, 1)

    def test_vote_validation_and_decide_once_surface_as_errors(self):
        with pytest.raises(ConfigurationError):
            run_commit("2PC", 4, 1, [1, 1, 1])  # wrong vote count

    def test_link_policy_validation(self):
        with pytest.raises(ConfigurationError):
            LinkPolicy(delay_units=-1.0)
        with pytest.raises(ConfigurationError):
            LinkDelay(u=0.0)


# --------------------------------------------------------------------------- #
# batch cluster runs (run_cluster backend dispatch)
# --------------------------------------------------------------------------- #
class TestBatchCluster:
    def test_backends_registry(self):
        assert BACKENDS == ("sim", "asyncio")
        with pytest.raises(ConfigurationError):
            run_cluster(ClusterConfig(), [object()], backend="threads")

    def test_asyncio_backend_matches_sim_outcomes_fault_free(self):
        workload = uniform_workload(num_transactions=5, num_partitions=3, seed=7)
        config = ClusterConfig(
            num_partitions=3, commit_protocol="2PC", seed=7, max_time=400.0
        )
        sim_report = run_cluster(config, workload.transactions)
        rt_report = run_cluster(config, workload.transactions, backend="asyncio")
        assert sim_report.backend == "sim"
        assert rt_report.backend == "asyncio"
        assert rt_report.committed == sim_report.committed
        assert rt_report.aborted == sim_report.aborted
        assert rt_report.incomplete == 0
        assert rt_report.execution_class == "failure-free"
        assert rt_report.invariants is not None and rt_report.invariants.holds
        # both backends applied the same committed writes
        assert rt_report.store_snapshots == sim_report.store_snapshots

    def test_a_delay_model_is_the_network_on_both_backends(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=1
        )
        config = ClusterConfig(
            num_partitions=2, delay_model=FixedDelay(1.0), seed=1, max_time=200.0
        )
        sim = run_cluster(config, workload.transactions)
        rt = run_cluster(config, workload.transactions, backend="asyncio")
        assert [o.decision for o in rt.outcomes] == [o.decision for o in sim.outcomes]
        assert rt.messages_total == sim.messages_total
        assert rt.execution_class == "failure-free"

    def test_a_controller_runs_on_the_asyncio_backend(self):
        """Fails at the parent, which refused controllers on this backend: a
        crash point is applied by the one kernel and recorded in the report."""
        workload = uniform_workload(
            num_transactions=3, num_partitions=3, participants_per_txn=2, seed=4
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3, commit_protocol="2PC", seed=4, max_time=100.0,
                controller=make_strategy("crash-point", pid=2, point=1),
            ),
            workload.transactions,
            backend="asyncio",
        )
        assert [kind for _, kind, _ in report.schedule_decisions] == ["crash"]
        assert [arg for _, _, arg in report.schedule_decisions] == [2]
        assert 2 in report.crashes
        assert report.execution_class == "crash-failure"
        assert report.trace_fingerprint is not None
        assert report.invariants is not None and report.invariants.holds

    def test_a_random_walk_defers_deliveries_on_the_asyncio_backend(self):
        workload = uniform_workload(
            num_transactions=3, num_partitions=3, participants_per_txn=2, seed=4
        )
        report = run_cluster(
            ClusterConfig(
                num_partitions=3, commit_protocol="2PC", seed=4, max_time=100.0,
                controller=make_strategy("random-walk", seed=1, defer_prob=0.3),
            ),
            workload.transactions,
            backend="asyncio",
        )
        kinds = {kind for _, kind, _ in report.schedule_decisions}
        assert "defer" in kinds
        assert report.invariants is not None and report.invariants.holds

    def test_fault_plan_crashes_carry_over(self):
        workload = uniform_workload(num_transactions=4, num_partitions=3, seed=3)
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="INBAC",
            seed=3,
            max_time=200.0,
            fault_plan=FaultPlan.crash(2, at=0.0),
        )
        report = run_cluster(
            config, workload.transactions, backend="asyncio"
        )
        assert 2 in report.crashes
        assert report.execution_class == "crash-failure"
        assert report.invariants is not None and report.invariants.holds


# --------------------------------------------------------------------------- #
# the live service: concurrent clients, mid-run crashes, fault injection
# --------------------------------------------------------------------------- #
class TestLiveService:
    def test_concurrent_clients_commit(self):
        workload = bank_transfer_workload(
            num_transfers=6, num_partitions=3, seed=11
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=3, commit_protocol="INBAC", seed=11,
                    max_time=300.0,
                )
            )
            await service.start()
            outcomes = await asyncio.gather(
                *(
                    service.submit(txn, timeout_units=120.0)
                    for txn in workload.transactions
                )
            )
            report = await service.shutdown()
            return outcomes, report

        outcomes, report = asyncio.run(drive())
        # concurrent transfers contend on account locks (no-wait locking):
        # every transaction completes — committed or cleanly aborted — and
        # the progress guarantee means at least one acquirer wins
        assert all(o is not None for o in outcomes)
        assert report.incomplete == 0
        assert report.committed + report.aborted == 6
        assert report.committed >= 1
        assert report.invariants is not None and report.invariants.holds

    def test_partition_crash_mid_run_keeps_survivors_consistent(self):
        workload = bank_transfer_workload(
            num_transfers=8, num_partitions=3, seed=5
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=3, commit_protocol="2PC", seed=5,
                    max_time=300.0,
                )
            )
            await service.start()
            results = []
            for index, txn in enumerate(workload.transactions):
                if index == 4:
                    service.crash_partition(2)
                results.append(await service.submit(txn, timeout_units=30.0))
            report = await service.shutdown()
            return results, report

        results, report = asyncio.run(drive())
        assert report.execution_class == "crash-failure"
        assert 2 in report.crashes
        # some transaction touching P2 after the crash must have hung
        assert any(r is None for r in results)
        # the invariant battery still holds on the surviving state
        assert report.invariants is not None and report.invariants.holds
        # every unfinished transaction is accounted for
        assert set(report.pending_transactions) == {
            workload.transactions[i].txn_id
            for i, r in enumerate(results)
            if r is None
        }

    def test_a_dead_network_classifies_as_network_failure(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=9
        )
        # a dead network: an outage that outlasts the run holds every EXEC
        network = LinkDelay(LinkPolicy(outages=((0.0, 10_000.0),)))

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", seed=9,
                    max_time=100.0, delay_model=network,
                ),
            )
            await service.start()
            outcomes = [
                await service.submit(txn, timeout_units=10.0)
                for txn in workload.transactions
            ]
            report = await service.shutdown()
            return outcomes, report

        outcomes, report = asyncio.run(drive())
        assert outcomes == [None, None]
        assert network.late > 0
        assert report.execution_class == "network-failure"
        assert report.incomplete == 2
        # nothing prepared, so the surviving (empty) state is consistent
        assert report.invariants is not None and report.invariants.holds

    def test_submit_before_start_rejected(self):
        async def drive():
            service = AsyncClusterService(ClusterConfig(num_partitions=2))
            workload = uniform_workload(
                num_transactions=1, num_partitions=2, participants_per_txn=2,
                seed=0,
            )
            with pytest.raises(ConfigurationError):
                await service.submit(workload.transactions[0])

        asyncio.run(drive())


# --------------------------------------------------------------------------- #
# crash recovery: rejoin by WAL replay, retry, fault-surface validation
# --------------------------------------------------------------------------- #
def spaced_transfers():
    """Multi-partition transactions with a quiet window between them."""
    return [
        Transaction.of(
            "t-early",
            [Operation.write(1, "a", 10), Operation.write(2, "b", 20)],
            submit_time=0.0,
        ),
        Transaction.of(
            "t-after-rejoin",
            [Operation.write(2, "b", 21), Operation.write(3, "c", 30)],
            submit_time=60.0,
        ),
        Transaction.of(
            "t-late",
            [Operation.write(1, "a", 11), Operation.write(2, "d", 40)],
            submit_time=100.0,
        ),
    ]


class TestRecovery:
    def test_fault_surface_raises_clear_configuration_errors(self):
        workload = uniform_workload(
            num_transactions=1, num_partitions=2, participants_per_txn=2, seed=0
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=2, max_time=100.0)
            )
            await service.start()
            with pytest.raises(ConfigurationError, match="unknown process"):
                service.crash_partition(99)
            with pytest.raises(ConfigurationError, match="unknown process"):
                service.recover_partition(99)
            with pytest.raises(ConfigurationError, match="nothing to recover"):
                service.recover_partition(1)
            with pytest.raises(ConfigurationError, match="client coordinator"):
                service.recover_partition(service.client_pid)
            service.crash_partition(1)
            with pytest.raises(ConfigurationError, match="already crashed"):
                service.crash_partition(1)
            service.crash_partition(service.client_pid)
            with pytest.raises(ConfigurationError, match="client coordinator"):
                await service.submit(workload.transactions[0])
            await service.shutdown()

        asyncio.run(drive())

    def test_client_rejoin_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="client coordinator"):
            AsyncClusterService(
                ClusterConfig(
                    num_partitions=2,
                    # pid 3 is the client of a 2-partition cluster
                    fault_plan=FaultPlan.crash_recover(3, at=5.0, rejoin_at=9.0),
                )
            )

    def test_crash_and_rejoin_commits_the_fault_free_transaction_set(self):
        # the acceptance scenario on the wall clock: P2 crashes in a quiet
        # window and rejoins by WAL replay before the next transaction that
        # needs it; with a retry policy absorbing unlucky timing, the run
        # commits exactly the fault-free set and the invariant battery holds
        # on the recovered store
        base = dict(
            num_partitions=3,
            commit_protocol="INBAC",
            commit_f=1,
            seed=5,
            max_time=400.0,
            retry_policy=RetryPolicy(max_attempts=4, timeout_units=25.0),
        )
        free = run_cluster(
            ClusterConfig(**base), spaced_transfers(), backend="asyncio"
        )
        recovered = run_cluster(
            ClusterConfig(
                **base,
                fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
            ),
            spaced_transfers(),
            backend="asyncio",
        )
        committed = lambda report: {
            o.txn_id for o in report.outcomes if o.decision == COMMIT
        }
        assert committed(free) == committed(recovered) == {
            "t-early", "t-after-rejoin", "t-late"
        }
        assert recovered.incomplete == 0
        assert recovered.invariants is not None and recovered.invariants.holds
        assert recovered.store_snapshots == free.store_snapshots
        [event] = recovered.recovery_events
        assert event.pid == 2
        assert event.rejoined_at > event.crashed_at
        assert event.replayed_transactions >= 1  # t-early was durable on P2
        assert 2 in recovered.crashes
        assert recovered.execution_class == "crash-failure"

    def test_live_recover_partition_returns_the_event(self):
        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_f=1, max_time=200.0)
            )
            await service.start()
            service.crash_partition(2)
            await asyncio.sleep(service.unit * 2)
            event = service.recover_partition(2)
            report = await service.shutdown()
            return event, report

        event, report = asyncio.run(drive())
        assert event.pid == 2
        assert event.downtime > 0
        assert report.recovery_events == [event]
        assert report.invariants is not None and report.invariants.holds

    def test_outage_windows_hold_and_heal(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=9
        )
        # every link is down for the first 50 units, then heals
        network = LinkDelay(LinkPolicy(outages=((0.0, 50.0),)))

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", seed=9,
                    max_time=100.0, delay_model=network,
                ),
            )
            await service.start()
            first = await service.submit(
                workload.transactions[0], timeout_units=10.0
            )
            while service.runtime.now_units() < 52.0:
                await asyncio.sleep(service.unit)
            second = await service.submit(
                workload.transactions[1], timeout_units=30.0
            )
            report = await service.shutdown()
            return first, second, report

        first, second, report = asyncio.run(drive())
        assert first is None  # submitted into the outage window
        assert second is not None and second.completed  # after the heal
        assert network.late > 0  # held past the bound, not lost
        assert report.execution_class == "network-failure"

    def test_slow_factor_scales_link_delay(self):
        policy = LinkPolicy(delay_units=2.0, jitter_units=1.0, slow_factor=3.0)
        model = LinkDelay(links={(1, 2): policy}, seed=4)
        draws = [model.delay(1, 2, None, 0.0) for _ in range(50)]
        assert all(6.0 <= d <= 9.0 for d in draws)
        assert model.delay(2, 1, None, 0.0) == 0.0  # the zero-delay default
        assert model.late == 50
        with pytest.raises(ConfigurationError):
            LinkPolicy(slow_factor=0.0)
        with pytest.raises(ConfigurationError):
            LinkPolicy(outages=((5.0, 3.0),))




# --------------------------------------------------------------------------- #
# one kernel: the simulator's queue and loop, paced by the wall clock
# --------------------------------------------------------------------------- #
def _probe_runtime(unit=0.005, factory=ObservingProcess, **kwargs):
    runtime = AsyncRuntime(2, 1, unit=unit, **kwargs)
    runtime.bind_processes(factory)
    return runtime


def _live_handles(runtime):
    """The runtime's loop handles still scheduled on the running loop."""
    loop = asyncio.get_running_loop()
    return [
        handle
        for handle in [*loop._scheduled, *loop._ready]
        if not handle.cancelled()
        and getattr(handle._callback, "__self__", None) is runtime
    ]


@contextlib.contextmanager
def _created_tasks():
    """Names of the coroutines handed to the running loop's ``create_task``."""
    loop = asyncio.get_running_loop()
    created = []

    def counting_create_task(coro, **kwargs):
        created.append(coro.__qualname__)
        return type(loop).create_task(loop, coro, **kwargs)

    loop.create_task = counting_create_task
    try:
        yield created
    finally:
        del loop.create_task


def _seen(process):
    return [(kind, detail) for kind, detail, _ in process.observations]


class TestOneQueue:
    """The runtime's events are the kernel's queue entries, handled by
    ``Scheduler.run()`` in ``(time, kind, post order)`` with stamped times."""

    def test_handlers_never_nest_and_events_are_handled_in_queue_order(self):
        """Carried over unchanged: a past deadline fires after the handler
        that armed it returns, and a self-send is handled after the handler,
        in send order — now at the handler's own instant, deliveries before
        the expiry as Appendix A orders them."""

        class Busy(ObservingProcess):
            def on_propose(self, value):
                self.send(self.pid, "self-send")
                self.set_timer(self.now() - 1.0, name="past")
                self.send(2, "to-peer")
                self.send_many([self.pid], "self-send-many")
                self.note("handler-end")

        async def drive():
            runtime = _probe_runtime(factory=Busy)
            await runtime.start()
            runtime.propose(1, "go")
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        assert runtime.errors == []
        assert _seen(runtime.processes[1]) == [
            ("handler-end", None),
            ("deliver", (1, "self-send")),
            ("deliver", (1, "self-send-many")),
            ("timeout", "past"),
        ]
        assert _seen(runtime.processes[2]) == [("deliver", (1, "to-peer"))]
        [proposed] = {at for _, _, at in runtime.processes[1].observations}
        assert {at for _, _, at in runtime.processes[2].observations} == {proposed}

    def test_a_zero_delay_chain_runs_in_one_turn_in_stamped_order(self):
        """Removed on purpose: one loop turn per hop.  A zero-delay chain now
        runs in one turn, in stamped order, and a loop callback a handler
        schedules runs after it."""
        order = []

        class Chain(ObservingProcess):
            def on_deliver(self, src, payload):
                super().on_deliver(src, payload)
                order.append(payload)
                if payload < 3:
                    asyncio.get_running_loop().call_soon(order.append, f"loop-{payload}")
                    self.send(self.pid, payload + 1)

        async def drive():
            runtime = _probe_runtime(factory=Chain)
            await runtime.start()
            runtime.call(1, lambda process: process.send(1, 1))
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        assert order == [1, 2, 3, "loop-1", "loop-2"]
        assert len({at for _, _, at in runtime.processes[1].observations}) == 1

    def test_events_of_a_crashed_pid_are_skipped(self):
        """A down pid's events are skipped, and a message sent to it is
        counted at send time and ignored at delivery."""

        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.propose(1, "lost")
            runtime.propose(2, "kept")
            runtime.set_timer(1, 0.5, "lost-too")
            runtime.crash(1)  # the same instant: the crash is handled first
            runtime.call(2, lambda process: process.send(1, "to-the-dead"))
            await asyncio.sleep(2.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime, table

        runtime, table = asyncio.run(drive())
        assert _seen(runtime.processes[1]) == []
        assert _seen(runtime.processes[2]) == [("propose", "kept")]
        assert table == {}  # the dead pid's expiry took its entry
        assert runtime.trace.message_count() == 1  # counted at send time

    def test_a_message_to_a_down_pid_is_drawn_then_ignored_at_delivery(self):
        """The simulator's rule, now the runtime's: a message to a pid that is
        down draws its delay like any other — the seeded stream advances once
        per message — and is ignored when it lands.  A draw within the bound
        is not late, so the run stays ``crash-failure``."""
        network = LinkDelay(LinkPolicy(jitter_units=0.3), seed=1)
        stream = network._rng.getstate()

        async def drive():
            runtime = _probe_runtime(delay_model=network)
            await runtime.start()
            runtime.crash(2)
            runtime.call(1, lambda process: [process.send(2, i) for i in range(200)])
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        assert runtime.errors == []
        assert runtime.trace.message_count() == 200  # counted at send time
        assert network._rng.getstate() != stream  # drawn
        assert runtime.processes[2].of("deliver") == []  # ignored
        assert network.late == 0
        assert runtime.execution_class() == "crash-failure"

    def test_a_delayed_message_arriving_while_its_destination_is_down_is_lost(self):
        """Carried over unchanged: a delayed message that lands while its
        destination is down is lost; one sent after the rejoin arrives, at
        its send time plus the link delay."""

        class Sender(ObservingProcess):
            def on_start(self):
                if self.pid == 1:
                    self.send(2, "lands-while-down")  # lands at 2.0
                    self.set_timer(3.5, name="later")

            def on_timeout(self, name):
                self.send(2, "after-rejoin")

        network = LinkDelay(LinkPolicy(delay_units=2.0))

        async def drive():
            runtime = _probe_runtime(
                factory=Sender, delay_model=network,
                fault_plan=FaultPlan.crash_recover(2, at=1.0, rejoin_at=3.0),
            )
            await runtime.start()
            await asyncio.sleep(7.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        assert runtime.errors == []
        assert runtime.processes[2].of("deliver") == [
            ("deliver", (1, "after-rejoin"), 5.5)
        ]
        assert runtime.trace.crashes == {2: 1.0}
        assert runtime.trace.recoveries == {2: 3.0}
        assert network.late == 2

    def test_stop_handles_what_is_queued_then_cancels_and_goes_quiet(self):
        """Carried over unchanged: ``stop()`` handles what is due — here 40
        submits posted in the same loop step — then goes quiet: no loop
        handle of the runtime is live, and a post or an arm after it is
        never handled."""
        workload = uniform_workload(
            num_transactions=40, num_partitions=4, participants_per_txn=2,
            keys_per_partition=100_000, seed=5,
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=4, commit_protocol="2PC", seed=5, max_time=400.0
                ),
                unit=0.002,
            )
            await service.start()
            runtime = service.runtime
            for txn in workload:
                runtime.call(
                    service.client_pid,
                    lambda client, txn=txn: client.submit_transaction(txn),
                )
            await service.shutdown()
            assert _live_handles(runtime) == []
            late = []
            runtime.set_timer(1, runtime.now_units() + 1.0, "late")
            runtime.call(1, lambda process: late.append(process))
            await asyncio.sleep(3 * service.unit)
            assert late == [] and _live_handles(runtime) == []
            return service

        service = asyncio.run(drive())
        # events due when stop() was called were handled, in order
        assert list(service.client.outcomes) == [txn.txn_id for txn in workload]
        assert service.runtime.errors == []

    def test_a_planned_crash_that_raises_lands_in_errors_not_in_the_loop(self):
        """Carried over unchanged: a planned crash that raises lands in
        ``errors`` under its pid, never in the loop's exception handler —
        here the plan's crash of a pid already crashed by hand."""

        async def drive():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, fault_plan=FaultPlan.crash(2, at=1.0)
                ),
                unit=0.005,
            )
            await service.start()
            service.crash_partition(2)  # before the plan fires
            await asyncio.sleep(3.0 * service.unit)
            await service.shutdown()
            return service.runtime, escaped

        runtime, escaped = asyncio.run(drive())
        assert escaped == []
        [(pid, exc)] = runtime.errors
        assert pid == 2 and isinstance(exc, ConfigurationError)
        assert "already crashed" in str(exc)
        assert runtime.trace.crashes.keys() == {2}  # the first crash, once
        assert runtime.trace.crashes[2] < 1.0


# --------------------------------------------------------------------------- #
# timers: entries in the kernel's token table, fired at their stamped time
# --------------------------------------------------------------------------- #
class TestTimerHandles:
    """A timer is the kernel's ``(pid, name) -> token`` entry and its queued
    expiry; no loop handle per timer.  A handler's ``now()`` at an expiry is
    the deadline itself."""

    def test_rearm_before_fire_fires_once_at_the_new_deadline(self):
        """Carried over unchanged: a rearm supersedes, and the
        ``runtime.timer_set`` / ``runtime.timer_rearm`` counts."""
        metrics = MetricsRegistry()

        def arm(process):
            process.set_timer(1.0, name="re")
            process.set_timer(3.0, name="re")

        async def drive():
            runtime = _probe_runtime(metrics=metrics)
            await runtime.start()
            runtime.call(1, arm)
            await asyncio.sleep(5.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime.processes[1].of("timeout"), table

        fires, table = asyncio.run(drive())
        assert fires == [("timeout", "re", 3.0)]
        assert table == {}  # a handled expiry leaves nothing behind
        assert metrics.counter_value("runtime.timer_set") == 1
        assert metrics.counter_value("runtime.timer_rearm") == 1

    def test_cancel_of_a_fired_or_never_armed_timer_is_a_noop(self):
        """Carried over unchanged: and ``runtime.timer_cancel`` counts
        neither."""
        metrics = MetricsRegistry()

        async def drive():
            runtime = _probe_runtime(metrics=metrics)
            await runtime.start()
            runtime.cancel_timer(1, "never-armed")
            runtime.call(1, lambda process: process.set_timer(0.5, name="once"))
            await asyncio.sleep(2.0 * runtime.unit)
            assert runtime._timers == {}
            runtime.cancel_timer(1, "once")  # already fired and handled
            assert runtime._timers == {}
            await runtime.stop()
            return runtime.processes[1].of("timeout")

        fires = asyncio.run(drive())
        assert fires == [("timeout", "once", 0.5)]
        assert metrics.counter_value("runtime.timer_cancel") == 0

    def test_cancel_then_rearm_beats_the_expiry_still_queued(self):
        """Carried over unchanged: the stale expiry is still queued when the
        cancel and the rearm land, and tokens are never reused, so it cannot
        pass for the new arm."""

        def rearm(process):
            process.set_timer(process.now(), name="t")  # expiry queued at once
            process.env.cancel_timer(name="t")
            process.set_timer(process.now() + 2.0, name="t")
            process.note("rearmed")

        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.call(1, rearm)
            await asyncio.sleep(4.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime.processes[1], table

        probe, table = asyncio.run(drive())
        [(_, _, rearmed_at)] = probe.of("rearmed")
        assert probe.of("timeout") == [("timeout", "t", rearmed_at + 2.0)]
        assert table == {}

    def test_recover_cancels_only_the_crashed_pids_timers(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.set_timer(1, 1.0, "mine")
            runtime.set_timer(2, 1.0, "theirs")
            runtime.crash(1)
            runtime.rejoin(1)
            assert list(runtime._timers) == [(2, "theirs")]
            await asyncio.sleep(3.0 * runtime.unit)
            await runtime.stop()
            return {pid: runtime.processes[pid].of("timeout") for pid in (1, 2)}

        fires = asyncio.run(drive())
        assert fires[1] == [] and fires[2] == [("timeout", "theirs", 1.0)]


class TestTimerTableStaysSmall:
    """What the kernel holds is what is in flight, and the loop holds at most
    one handle of the runtime."""

    def test_a_quiesced_run_leaves_no_timers_handles_or_per_timer_tasks(self):
        """Carried over unchanged: the token table is bounded by what is
        armed, one task per client coroutine, and no handle after shutdown."""
        clients, per_client = 6, 40
        workload = uniform_workload(
            num_transactions=clients * per_client, num_partitions=4,
            participants_per_txn=2, keys_per_partition=100_000, seed=5,
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=4, commit_protocol="2PC", seed=5,
                    max_time=400.0,
                ),
                unit=0.002,
            )
            await service.start()
            runtime = service.runtime

            async def client(index):
                mine = workload[index * per_client:(index + 1) * per_client]
                return [await service.submit(txn) for txn in mine]

            with _created_tasks() as created:
                outcomes = await asyncio.gather(*(client(i) for i in range(clients)))
            armed_in_flight = len(runtime._timers)
            # every 2PC timer (two round starts, one vote collection) is
            # within 2 U of its submit: let the stragglers fire
            await asyncio.sleep(4.0 * service.unit)
            quiesced = dict(runtime._timers)
            report = await service.shutdown()
            return outcomes, created, armed_in_flight, quiesced, _live_handles(runtime), report

        outcomes, created, in_flight, quiesced, ours, report = asyncio.run(drive())
        assert all(o is not None and o.completed for batch in outcomes for o in batch)
        assert report.committed + report.aborted == clients * per_client
        # one task per client coroutine, none per timer or per transaction
        assert len(created) == clients
        # bounded by what is in flight, not by the 3 x 240 names ever armed
        assert in_flight <= 3 * clients
        assert quiesced == {}
        assert ours == []

    def test_timers_delayed_deliveries_and_a_planned_rejoin_share_the_table(self):
        """Carried over unchanged: protocol timers, a delayed delivery per
        message and a fault plan's crash and rejoin share one structure — the
        kernel's queue, no longer a table of loop handles — with one task per
        client coroutine and none per message, crash or rejoin.  The plan's
        crash and rejoin happen at their planned times exactly."""
        clients, per_client = 4, 5
        # partitions 1..3 carry the workload; P4 crashes and rejoins by plan,
        # so every transaction is fault-free and must commit
        workload = uniform_workload(
            num_transactions=clients * per_client, num_partitions=3,
            participants_per_txn=2, keys_per_partition=100_000, seed=5,
        ).transactions

        metrics = MetricsRegistry()

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=4, commit_protocol="2PC", seed=5,
                    max_time=400.0,
                    fault_plan=FaultPlan.crash_recover(4, at=2.0, rejoin_at=6.0),
                    # a worst case of 0.4 U leaves a vote 12 ms of slack
                    # against 2PC's 1 U collection timer on a loaded host
                    delay_model=LinkDelay(
                        LinkPolicy(delay_units=0.2, jitter_units=0.2),
                        seed=5, metrics=metrics,
                    ),
                ),
                unit=0.02,
            )
            runtime = service.runtime
            handles = []

            async def client(index):
                outcomes = []
                for txn in workload[index * per_client:(index + 1) * per_client]:
                    outcomes.append(await service.submit(txn))
                    handles.append(len(_live_handles(runtime)))
                return outcomes

            with _created_tasks() as created:
                await service.start()
                queued_at_start = len(runtime._queue)
                outcomes = await asyncio.gather(*(client(i) for i in range(clients)))
            report = await service.shutdown()
            return outcomes, created, queued_at_start, handles, _live_handles(runtime), report, service

        outcomes, created, queued_at_start, handles, live, report, service = asyncio.run(drive())
        assert all(
            o is not None and o.decision == COMMIT for batch in outcomes for o in batch
        )
        [event] = report.recovery_events
        assert (event.pid, event.crashed_at, event.rejoined_at) == (4, 2.0, 6.0)
        # every message took the delayed path (the last DONE may be unsent)
        delayed = metrics.counter_value("transport.delayed")
        assert delayed == service.transport.messages_total > 5 * len(workload)
        # one task per client coroutine: none per message, crash or rejoin
        assert len(created) == clients
        assert queued_at_start == 2  # the plan's crash and rejoin
        assert max(handles) <= 1 and live == []


# --------------------------------------------------------------------------- #
# posts from outside every handler, and what a handler may not do
# --------------------------------------------------------------------------- #
class TestOutsidePosts:
    def test_a_timer_armed_from_outside_wakes_the_kernel(self):
        """Fails at the parent: the expiry was queued but nothing armed the
        loop handle, so it fired only when something else woke the kernel."""

        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            await asyncio.sleep(runtime.unit)  # the start-up turn is over
            runtime.set_timer(1, runtime.now_units() + 0.5, "outside")
            await asyncio.sleep(3.0 * runtime.unit)
            fires = runtime.processes[1].of("timeout")
            await runtime.stop()
            return fires

        [(_, name, _)] = asyncio.run(drive())
        assert name == "outside"

    def test_a_send_from_outside_wakes_the_kernel(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            await asyncio.sleep(runtime.unit)
            runtime.env_for(1).send(2, "outside")
            await asyncio.sleep(2.0 * runtime.unit)
            seen = _seen(runtime.processes[2])
            await runtime.stop()
            return seen

        assert asyncio.run(drive()) == [("deliver", (1, "outside"))]

    @pytest.mark.parametrize("what", ["crash", "rejoin"])
    def test_crash_or_rejoin_inside_a_delivery_handler_is_refused(self, what):
        class Nester(ObservingProcess):
            def on_deliver(self, src, payload):
                getattr(self.env._scheduler, what)(2)

        async def drive():
            runtime = _probe_runtime(factory=Nester)
            await runtime.start()
            if what == "rejoin":
                runtime.crash(2)
            runtime.call(2 if what == "crash" else 1, lambda p: p.send(1, "go"))
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        [(pid, exc)] = runtime.errors
        assert pid == 1 and isinstance(exc, ConfigurationError)
        assert f"{what}(P2)" in str(exc) and "inside a handler" in str(exc)
        assert runtime.is_down(2) == (what == "rejoin")  # nothing happened

    def test_crash_inside_a_call_is_refused(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.call(1, lambda process: runtime.crash(2))
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()
            return runtime

        runtime = asyncio.run(drive())
        [(pid, exc)] = runtime.errors
        assert pid == 1 and isinstance(exc, ConfigurationError)
        assert "crash(P2)" in str(exc)
        assert not runtime.is_down(2)


class TestHandlerErrors:
    def test_the_culprit_reads_the_run_loops_locals_by_these_names(self):
        # _culprit reads Scheduler.run's frame locals ``entry`` and ``kind``:
        # renaming either breaks error attribution on the runtime
        assert {"entry", "kind"} <= set(Scheduler.run.__code__.co_varnames)

    def test_a_raising_delivery_timer_and_call_land_under_their_pids(self):
        class Raises(ObservingProcess):
            def on_deliver(self, src, payload):
                raise RuntimeError("delivery")

            def on_timeout(self, name):
                raise RuntimeError("timer")

        def boom(process):
            raise RuntimeError("call")

        async def drive():
            runtime = _probe_runtime(factory=Raises)
            await runtime.start()
            runtime.call(1, lambda process: process.send(2, "x"))
            runtime.call(1, lambda process: process.set_timer(process.now() + 0.5, "t"))
            runtime.call(2, boom)
            await asyncio.sleep(3.0 * runtime.unit)
            await runtime.stop()
            return runtime.errors

        errors = asyncio.run(drive())
        assert sorted((pid, str(exc)) for pid, exc in errors) == [
            (1, "timer"), (2, "call"), (2, "delivery"),
        ]
