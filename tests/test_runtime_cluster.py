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
from repro.obs import MetricsRegistry
from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol
from repro.runtime import (
    AsyncClusterService,
    LinkPolicy,
    LocalTransport,
    run_commit,
)
from repro.runtime.runtime import AsyncRuntime
from repro.sim.faults import FaultPlan
from repro.sim.network import FixedDelay
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
            LinkPolicy(drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            LocalTransport(unit=0.0)


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

    def test_simulator_only_features_are_rejected(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=1
        )
        with pytest.raises(ConfigurationError, match="simulator-only"):
            run_cluster(
                ClusterConfig(num_partitions=2, delay_model=FixedDelay(1.0)),
                workload.transactions,
                backend="asyncio",
            )
        with pytest.raises(ConfigurationError, match="simulator-only"):
            run_cluster(
                ClusterConfig(num_partitions=2, controller=object()),
                workload.transactions,
                backend="asyncio",
            )

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

    def test_drop_policy_classifies_as_network_failure(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=9
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", seed=9,
                    max_time=100.0,
                ),
                # a dead network: every EXEC is dropped at the link
                default_link_policy=LinkPolicy(drop_probability=1.0),
            )
            await service.start()
            outcomes = [
                await service.submit(txn, timeout_units=10.0)
                for txn in workload.transactions
            ]
            report = await service.shutdown()
            return outcomes, report, service.transport.dropped

        outcomes, report, dropped = asyncio.run(drive())
        assert outcomes == [None, None]
        assert dropped > 0
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

    def test_outage_windows_drop_and_heal(self):
        workload = uniform_workload(
            num_transactions=2, num_partitions=2, participants_per_txn=2, seed=9
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", seed=9,
                    max_time=100.0,
                ),
                # every link is down for the first 50 units, then heals
                default_link_policy=LinkPolicy(outages=((0.0, 50.0),)),
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
            return first, second, report, service.transport.outage_dropped

        first, second, report, outage_dropped = asyncio.run(drive())
        assert first is None  # submitted into the outage window
        assert second is not None and second.completed  # after the heal
        assert outage_dropped > 0
        assert report.execution_class == "network-failure"

    def test_slow_factor_scales_link_delay(self):
        policy = LinkPolicy(delay_units=2.0, jitter_units=1.0, slow_factor=3.0)
        assert policy.max_delay_units == 9.0
        assert policy.faulty
        with pytest.raises(ConfigurationError):
            LinkPolicy(slow_factor=0.0)
        with pytest.raises(ConfigurationError):
            LinkPolicy(outages=((5.0, 3.0),))


# --------------------------------------------------------------------------- #
# one event queue, one dispatcher, one table of armed deadlines
# --------------------------------------------------------------------------- #
def _probe_runtime(unit=0.005, metrics=None, transport=None, factory=ObservingProcess):
    runtime = AsyncRuntime(2, 1, unit=unit, metrics=metrics, transport=transport)
    runtime.bind_processes(factory)
    return runtime


def _live_handles(runtime):
    """The runtime's timer handles still scheduled on the running loop."""
    return [
        handle
        for handle in asyncio.get_running_loop()._scheduled
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
    def test_handlers_never_nest_and_events_are_handled_in_queue_order(self):
        class Busy(ObservingProcess):
            """One handler makes every kind of event for itself."""

            def on_propose(self, value):
                if value != "go":
                    return super().on_propose(value)
                runtime = self.env._runtime
                self.send(self.pid, "self-send")
                self.set_timer(self.now() - 1.0, name="past")
                runtime.propose(self.pid, "proposal")
                runtime.call(self.pid, lambda process: process.note("call"))
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
        # everything after the handler returned; queue order, the expiry one
        # loop turn behind (its handle has to run first)
        assert _seen(runtime.processes[1]) == [
            ("handler-end", None),
            ("deliver", (1, "self-send")),
            ("propose", "proposal"),
            ("call", None),
            ("deliver", (1, "self-send-many")),
            ("timeout", "past"),
        ]
        assert _seen(runtime.processes[2]) == [("deliver", (1, "to-peer"))]

    def test_a_turn_handles_only_what_was_queued_when_it_began(self):
        order = []

        class Chain(ObservingProcess):
            def on_deliver(self, src, payload):
                order.append(payload)
                if payload < 3:
                    # the loop callback is scheduled first: a dispatcher that
                    # drained to empty would run the next link ahead of it
                    asyncio.get_running_loop().call_soon(order.append, f"loop-{payload}")
                    self.send(self.pid, payload + 1)

        async def drive():
            runtime = _probe_runtime(factory=Chain)
            await runtime.start()
            runtime.transport.send(1, 1, 1)
            await asyncio.sleep(2.0 * runtime.unit)
            await runtime.stop()

        asyncio.run(drive())
        assert order == [1, "loop-1", 2, "loop-2", 3]

    def test_events_of_a_crashed_pid_are_skipped(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.propose(1, "lost")
            runtime.propose(2, "kept")
            runtime.set_timer(1, 0.5, "lost-too")
            runtime.crash(1)  # before the dispatcher's turn
            runtime.transport.send(2, 1, "to-the-dead")
            await asyncio.sleep(2.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime, table

        runtime, table = asyncio.run(drive())
        assert _seen(runtime.processes[1]) == []
        assert _seen(runtime.processes[2]) == [("propose", "kept")]
        assert table == {}  # the dead pid's expiry dropped its entry
        assert runtime.transport.messages_total == 1  # counted at send time

    def test_a_delayed_message_arriving_while_its_destination_is_down_is_lost(self):
        async def drive():
            transport = LocalTransport(unit=0.005)
            transport.set_default_policy(LinkPolicy(delay_units=2.0))
            runtime = _probe_runtime(transport=transport)
            await runtime.start()
            transport.send(1, 2, "lands-while-down")
            assert len(runtime._timers) == 1  # one handle, no task
            runtime.call_at(1.0, runtime.crash, 2)
            runtime.call_at(3.0, runtime.recover, 2)
            runtime.call_at(3.5, transport.send, 1, 2, "after-rejoin")
            await asyncio.sleep(7.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime, table

        runtime, table = asyncio.run(drive())
        assert runtime.errors == []
        assert [d for k, d in _seen(runtime.processes[2]) if k == "deliver"] == [
            (1, "after-rejoin")
        ]
        assert table == {}  # every one-shot dropped its entry when it ran
        assert runtime.transport.delayed == 2

    def test_stop_handles_what_is_queued_then_cancels_and_goes_quiet(self):
        """Fails at the parent: ``stop()`` cleared the timer table first and
        drained the inboxes second, so the drained handlers' timers (60
        entries, 58 live handles for these 40 submits) survived it."""
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
            assert runtime._timers == {} and _live_handles(runtime) == []
            # after stop() an arm or a post is inert
            runtime.set_timer(1, runtime.now_units() + 1.0, "late")
            runtime.call_at(runtime.now_units() + 1.0, runtime.crash, 1)
            runtime.call(1, lambda process: process.on_start())
            assert runtime._timers == {} and not runtime._events
            return service

        service = asyncio.run(drive())
        # events queued when stop() was called were handled, in order
        assert list(service.client.outcomes) == [txn.txn_id for txn in workload]
        assert service.runtime.errors == []


    def test_a_planned_crash_that_raises_lands_in_errors_not_in_the_loop(self):
        """Fails at the parent: ``call_at`` callbacks ran outside the fault
        boundary, so the ``ConfigurationError`` reached the loop's exception
        handler and ``runtime.errors`` stayed empty."""

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


# --------------------------------------------------------------------------- #
# timers: one loop handle per armed timer, a table of armed timers only
# --------------------------------------------------------------------------- #


class TestTimerHandles:
    def test_rearm_before_fire_fires_once_at_the_new_deadline(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.set_timer(1, 1.0, "re")
            first = runtime._timers[(1, "re")]
            runtime.set_timer(1, 3.0, "re")
            assert first[1].cancelled()
            assert list(runtime._timers) == [(1, "re")]
            assert runtime._timers[(1, "re")][0] != first[0]
            await asyncio.sleep(5.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime.processes[1].of("timeout"), table

        fires, table = asyncio.run(drive())
        assert [name for _, name, _ in fires] == ["re"]
        assert fires[0][2] >= 3.0
        assert table == {}  # a handled expiry leaves nothing behind

    def test_cancel_of_a_fired_or_never_armed_timer_is_a_noop(self):
        metrics = MetricsRegistry()

        async def drive():
            runtime = _probe_runtime(metrics=metrics)
            await runtime.start()
            runtime.cancel_timer(1, "never-armed")
            runtime.set_timer(1, 0.5, "once")
            await asyncio.sleep(2.0 * runtime.unit)
            assert runtime._timers == {}
            runtime.cancel_timer(1, "once")  # already fired and handled
            assert runtime._timers == {}
            await runtime.stop()
            return runtime.processes[1].of("timeout")

        fires = asyncio.run(drive())
        assert [name for _, name, _ in fires] == ["once"]
        assert metrics.counter_value("runtime.timer_cancel") == 0

    def test_cancel_then_rearm_beats_the_expiry_still_queued(self):
        """A per-name generation would restart at 1 once the entry is
        dropped, and the stale expiry would pass for the new arm."""

        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.set_timer(1, 0.0, "t")
            for _ in range(50):
                if runtime._events:
                    break
                await asyncio.sleep(0)
            # the handle ran and queued the expiry; the dispatcher has not
            # handled it yet
            assert len(runtime._events) == 1 and (1, "t") in runtime._timers
            runtime.cancel_timer(1, "t")
            rearmed_at = runtime.now_units()
            runtime.set_timer(1, rearmed_at + 2.0, "t")
            await asyncio.sleep(4.0 * runtime.unit)
            table = dict(runtime._timers)
            await runtime.stop()
            return runtime.processes[1].of("timeout"), rearmed_at, table

        fires, rearmed_at, table = asyncio.run(drive())
        assert [name for _, name, _ in fires] == ["t"]
        assert fires[0][2] >= rearmed_at + 2.0
        assert table == {}

    def test_recover_cancels_only_the_crashed_pids_timers(self):
        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            runtime.set_timer(1, 1.0, "mine")
            runtime.set_timer(2, 1.0, "theirs")
            runtime.crash(1)
            runtime.recover(1)
            assert list(runtime._timers) == [(2, "theirs")]
            await asyncio.sleep(3.0 * runtime.unit)
            await runtime.stop()
            return {pid: runtime.processes[pid].of("timeout") for pid in (1, 2)}

        fires = asyncio.run(drive())
        assert fires[1] == [] and len(fires[2]) == 1


class TestTimerTableStaysSmall:
    def test_a_quiesced_run_leaves_no_timers_handles_or_per_timer_tasks(self):
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
        """The runtime's whole deadline surface in one run: protocol timers,
        a delayed delivery per message, a fault plan's crash and rejoin."""
        clients, per_client = 4, 5
        # partitions 1..3 carry the workload; P4 crashes and rejoins by plan,
        # so every transaction is fault-free and must commit
        workload = uniform_workload(
            num_transactions=clients * per_client, num_partitions=3,
            participants_per_txn=2, keys_per_partition=100_000, seed=5,
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=4, commit_protocol="2PC", seed=5,
                    max_time=400.0,
                    fault_plan=FaultPlan.crash_recover(4, at=2.0, rejoin_at=6.0),
                ),
                unit=0.02,
                # a worst case of 0.4 U leaves a vote 12 ms of slack against
                # 2PC's 1 U collection timer on a loaded host
                default_link_policy=LinkPolicy(delay_units=0.2, jitter_units=0.2),
            )
            runtime = service.runtime
            sizes = []

            async def client(index):
                outcomes = []
                for txn in workload[index * per_client:(index + 1) * per_client]:
                    outcomes.append(await service.submit(txn))
                    sizes.append(len(runtime._timers))
                return outcomes

            with _created_tasks() as created:
                await service.start()  # arms the plan's crash and rejoin
                sizes.append(len(runtime._timers))
                outcomes = await asyncio.gather(*(client(i) for i in range(clients)))
            report = await service.shutdown()
            return outcomes, created, sizes, _live_handles(runtime), report, service

        outcomes, created, sizes, live, report, service = asyncio.run(drive())
        assert all(
            o is not None and o.decision == COMMIT for batch in outcomes for o in batch
        )
        [event] = report.recovery_events
        assert event.pid == 4 and event.rejoined_at >= 6.0
        transport, runtime = service.transport, service.runtime
        # every message took the delayed path (the last DONE may be unsent)
        assert transport.delayed == transport.messages_total > 5 * len(workload)
        # one task per client coroutine: none per message, crash or rejoin
        assert len(created) == clients
        # per transaction in flight at most its 3 timers and 6 messages, plus
        # the plan's two entries — against some 9 x 20 + 2 deadlines ever
        # armed (the same slack as above: shutdown may beat the last DONEs)
        assert sizes[0] == 2
        assert max(sizes) <= 9 * clients + 2
        assert next(runtime._tokens) > 8 * len(workload) + 2
        assert runtime._timers == {} and live == []
