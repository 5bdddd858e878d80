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

from conformance import ObservingProcess
from conftest import wal_kinds
from repro.db.cluster import BACKENDS, ClusterConfig, run_cluster
from repro.db.coordinator import RetryPolicy
from repro.db.transaction import Operation, Transaction
from repro.errors import ConfigurationError
from repro.exp.spec import coerce_axis
from repro.obs import MetricsRegistry
from repro.protocols.base import ABORT, COMMIT
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
        assert not result.scheduler.timed_out
        assert result.scheduler.errors == []
        assert 3 in result.trace.crashes
        survivors = {pid: d for pid, d in result.decisions().items() if pid != 3}
        assert len(survivors) == 3
        assert len(set(survivors.values())) == 1

    def test_message_counts_at_least_the_nice_execution_bound(self):
        # fault-free runs are message-driven: at least the registry's
        # best-case count flows (exactly, unless a loaded host lets a
        # failure-detection timer fire)
        for name in ("2PC", "INBAC"):
            info = get_protocol(name)
            result = run_commit(name, 4, 1, [1, 1, 1, 1])
            assert not result.scheduler.timed_out
            assert result.trace.message_count() >= info.expected_messages(4, 1)

    def test_vote_validation_and_decide_once_surface_as_errors(self):
        with pytest.raises(ConfigurationError):
            run_commit("2PC", 4, 1, [1, 1, 1])  # wrong vote count

    def test_link_policy_validation(self):
        with pytest.raises(ConfigurationError):
            LinkPolicy(delay_units=-1.0)
        with pytest.raises(ConfigurationError):
            LinkPolicy(slow_factor=0.0)


# --------------------------------------------------------------------------- #
# batch cluster runs (run_cluster backend dispatch)
# --------------------------------------------------------------------------- #
class TestBatchCluster:
    def test_backends_registry(self):
        assert BACKENDS == ("sim", "asyncio")
        with pytest.raises(ConfigurationError):
            run_cluster(ClusterConfig(), [object()], backend="threads")

    @pytest.mark.parametrize("protocol", ["2PC", "3PC", "INBAC", "PaxosCommit"])
    def test_asyncio_backend_matches_sim_outcomes_fault_free(self, protocol):
        workload = uniform_workload(num_transactions=5, num_partitions=3, seed=7)
        config = ClusterConfig(
            num_partitions=3, commit_protocol=protocol, seed=7, max_time=400.0
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

        # one client submitting sequentially meets no other client's locks:
        # it commits exactly the simulator's set
        async def sequential_client():
            service = AsyncClusterService(config)
            await service.start()
            outcomes = [await service.submit(txn) for txn in workload.transactions]
            return outcomes, await service.shutdown()

        outcomes, report = asyncio.run(sequential_client())
        committed = {o.txn_id for o in outcomes if o.decision == COMMIT}
        assert committed == {
            o.txn_id for o in sim_report.outcomes if o.decision == COMMIT
        }
        assert report.incomplete == 0
        assert report.invariants is not None and report.invariants.holds

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
                controller=coerce_axis(
                    "schedules", ("crash-point", "crash-point", {"pid": 2, "point": 1})
                ).build(0),
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
                controller=coerce_axis(
                    "schedules", ("random-walk", "random-walk", {"defer_prob": 0.3})
                ).build(1),
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
async def _until_submitted(service):
    """Yield until the coordinator holds a transaction without an outcome."""
    while service.client.all_completed():
        await asyncio.sleep(0)


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

    def test_resubmitting_a_completed_transaction_returns_its_outcome(self):
        """A completed id used to be appended to the workload again: the
        second submit waited out its whole timeout and returned None, and
        all_completed() never held again."""
        txns = uniform_workload(
            num_transactions=2, num_partitions=3, participants_per_txn=3, seed=4
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            first = await service.submit(txns[0])
            again = await service.submit(txns[0], timeout_units=100.0)
            settled = await service.wait_all_completed(50)
            completed = service.client.all_completed()
            return first, again, settled, completed, await service.shutdown()

        first, again, settled, completed, report = asyncio.run(drive())
        assert first is not None and again is first
        assert settled and completed
        assert report.pending_transactions == []
        # not sent again: one submission, one PREPARE per participant
        [outcome] = report.outcomes
        assert len(outcome.submissions) == 1
        assert report.retry_counts == {}
        assert [len(records) for records in report.wal_records.values()] == [2, 2, 2]

    def test_a_transaction_id_with_a_slash_commits(self):
        """The propose timer "txn/orders/1/__propose__" used to be routed to a
        transaction "orders" and dropped, so the submit returned None."""
        txn = Transaction.of(
            "orders/1", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="INBAC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            outcome = await service.submit(txn)
            return outcome, await service.shutdown()

        outcome, report = asyncio.run(drive())
        assert outcome is not None and outcome.decision == COMMIT
        assert report.in_doubt_by_partition == {}
        assert report.store_snapshots[1]["a"] == 1

    def test_a_used_id_with_other_operations_is_refused(self):
        """A different transaction under a used id used to be sent as a retry
        of the first: silently lost where the first was prepared."""
        first = Transaction.of(
            "t", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )
        other = Transaction.of(
            "t", [Operation.write(2, "b", 3), Operation.write(3, "c", 3)]
        )
        equal = Transaction.of("t", list(first.operations))

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            outcome = await service.submit(first)
            with pytest.raises(ConfigurationError, match="'t' is already used"):
                await service.submit(other)
            # re-submitting an equal transaction stays idempotent
            again = await service.submit(equal)
            return outcome, again, await service.shutdown()

        outcome, again, report = asyncio.run(drive())
        assert outcome is not None and again is outcome
        assert [o.txn_id for o in report.outcomes] == ["t"]
        assert "c" not in report.store_snapshots[3]
        assert report.store_snapshots[2]["b"] == 2

    def test_concurrent_submits_of_one_id_all_get_its_outcome(self):
        """Two concurrent submits of one id used to share one waiter slot: the
        second overwrote the first's future, so the first waited out its
        whole budget and returned None although the transaction committed."""
        txn = Transaction.of(
            "t", [Operation.write(p, f"k{p}", "a") for p in (1, 2, 3)]
        )
        unit = 0.002

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=unit,
            )
            await service.start()
            loop = asyncio.get_running_loop()
            began = loop.time()
            outcomes = await asyncio.gather(service.submit(txn), service.submit(txn))
            return outcomes, loop.time() - began, await service.shutdown()

        outcomes, took, report = asyncio.run(drive())
        first, second = outcomes
        assert first is not None and second is first
        assert first.decision == COMMIT
        assert took < 300 * unit / 4
        # the second caller posted nothing: one submission, one EXEC round
        [outcome] = report.outcomes
        assert len(outcome.submissions) == 1
        assert [len(records) for records in report.wal_records.values()] == [2, 2, 2]

    def test_a_used_id_is_refused_while_its_first_submit_is_queued(self):
        """Until the coordinator handled the first submit, the id check passed
        a second transaction under the same id: it was reported committed,
        and the stores held only the first one's writes."""
        first = Transaction.of(
            "t", [Operation.write(p, f"k{p}", "a") for p in (1, 2, 3)]
        )
        other = Transaction.of(
            "t", [Operation.write(p, f"k{p}", "b") for p in (1, 2, 3)]
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            results = await asyncio.gather(
                service.submit(first), service.submit(other), return_exceptions=True
            )
            return results, await service.shutdown()

        (outcome, refused), report = asyncio.run(drive())
        assert outcome.decision == COMMIT
        assert isinstance(refused, ConfigurationError)
        assert "'t' is already used" in str(refused)
        assert [o.txn_id for o in report.outcomes] == ["t"]
        for p in (1, 2, 3):
            assert report.store_snapshots[p][f"k{p}"] == "a"

    @pytest.mark.parametrize("timeout", [0.0, -5.0, float("nan")])
    def test_a_timeout_that_is_not_positive_is_refused(self, timeout):
        """Such a submit used to return None at once while the transaction
        went on to commit: a caller retrying under a new id applied the
        writes twice."""
        txn = Transaction.of("t", [Operation.write(1, "k1", "a")])

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=2, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            with pytest.raises(ConfigurationError, match="timeout_units"):
                await service.submit(txn, timeout_units=timeout)
            settled = await service.wait_all_completed(20)
            return settled, await service.shutdown()

        settled, report = asyncio.run(drive())
        assert settled
        assert report.outcomes == [] and report.pending_transactions == []
        assert "k1" not in report.store_snapshots[1]

    def test_wait_all_completed_waits_for_every_live_participant_to_log(self):
        """The outcome completes on the first DONE: P1 decides at once, P2
        only once the decision crosses the slow link, and a shutdown right
        after the wait used to find P2 in doubt."""
        txn = Transaction.of(
            "t1", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", max_time=300.0,
                    delay_model=LinkDelay(links={(1, 2): LinkPolicy(delay_units=0.8)}),
                )
            )
            await service.start()
            outcome = await service.submit(txn)
            settled = await service.wait_all_completed(50)
            return outcome, settled, await service.shutdown()

        outcome, settled, report = asyncio.run(drive())
        assert outcome.decision == COMMIT
        assert settled
        assert report.in_doubt_by_partition == {}
        assert [wal_kinds(log)["COMMIT"] for log in report.wal_records.values()] == [1, 1]

    def test_wait_all_completed_does_not_wait_for_a_crashed_participant(self):
        txn = Transaction.of(
            "t1", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", max_time=300.0,
                    delay_model=LinkDelay(links={(1, 2): LinkPolicy(delay_units=0.8)}),
                )
            )
            await service.start()
            await service.submit(txn)
            # P2 is still waiting for the decision across the slow link
            service.crash_partition(2)
            loop = asyncio.get_running_loop()
            began = loop.time()
            settled = await service.wait_all_completed(50)
            return settled, loop.time() - began, await service.shutdown()

        settled, waited, report = asyncio.run(drive())
        assert settled
        assert waited < 50 * 0.01 / 2
        assert report.in_doubt_by_partition == {2: ["t1"]}

    def test_wait_all_completed_does_not_wait_for_what_a_rejoined_participant_lost(self):
        """P2 is down when its EXEC arrives, so its rejoined incarnation never
        prepares the transaction P1 aborted without its vote."""
        txn = Transaction.of(
            "t1", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )
        unit = 0.01

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", max_time=300.0,
                    delay_model=LinkDelay(links={(3, 2): LinkPolicy(delay_units=3.0)}),
                ),
                unit=unit,
            )
            await service.start()
            submitted = asyncio.ensure_future(service.submit(txn))
            await asyncio.sleep(0.5 * unit)  # the EXECs are out
            service.crash_partition(2)
            outcome = await submitted
            await asyncio.sleep(2 * unit)  # past the arrival of P2's EXEC
            service.recover_partition(2)
            loop = asyncio.get_running_loop()
            began = loop.time()
            settled = await service.wait_all_completed(50)
            return outcome, settled, loop.time() - began, await service.shutdown()

        outcome, settled, waited, report = asyncio.run(drive())
        assert outcome.decision == ABORT
        assert settled
        assert waited < 50 * unit / 2
        assert wal_kinds(report.wal_records[2])["PREPARE"] == 0
        assert report.in_doubt_by_partition == {}

    def test_concurrent_wait_all_completed_callers_all_see_the_settle(self):
        """A second caller used to replace the first one's future: the first
        then waited out its whole budget and returned False."""
        txns = uniform_workload(
            num_transactions=4, num_partitions=3, participants_per_txn=2, seed=6
        ).transactions
        unit = 0.01

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=unit,
            )
            await service.start()
            submits = [asyncio.ensure_future(service.submit(txn)) for txn in txns]
            await _until_submitted(service)
            loop = asyncio.get_running_loop()
            began = loop.time()
            settled = await asyncio.gather(
                service.wait_all_completed(200), service.wait_all_completed(200)
            )
            waited = loop.time() - began
            outcomes = await asyncio.gather(*submits)
            return settled, waited, outcomes, await service.shutdown()

        settled, waited, outcomes, report = asyncio.run(drive())
        assert settled == [True, True]
        assert waited < 200 * unit / 2
        assert all(outcome is not None for outcome in outcomes)
        assert report.pending_transactions == []

    def test_one_callers_timeout_does_not_cancel_the_wait_of_another(self):
        txn = Transaction.of(
            "t1", [Operation.write(1, "a", 1), Operation.write(2, "b", 2)]
        )

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(
                    num_partitions=2, commit_protocol="2PC", max_time=300.0,
                    delay_model=LinkDelay(links={(3, 1): LinkPolicy(delay_units=0.8)}),
                ),
                unit=0.01,
            )
            await service.start()
            submitted = asyncio.ensure_future(service.submit(txn))
            await _until_submitted(service)
            settled = await asyncio.gather(
                service.wait_all_completed(0.1), service.wait_all_completed(200)
            )
            return settled, await submitted, await service.shutdown()

        settled, outcome, report = asyncio.run(drive())
        assert settled == [False, True]
        assert outcome.decision == COMMIT
        assert report.in_doubt_by_partition == {}

    def test_wait_all_completed_waits_for_a_submit_still_in_the_queue(self):
        """A submit whose call has not reached the coordinator yet left
        all_completed() holding vacuously (0 outcomes for 0 transactions),
        and the wait returned True at once."""
        txns = uniform_workload(
            num_transactions=2, num_partitions=3, participants_per_txn=2, seed=8
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=3, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            submits = [asyncio.ensure_future(service.submit(txn)) for txn in txns]
            await asyncio.sleep(0)  # the submits are posted, not yet handled
            queued = service.client.all_completed()
            settled = await service.wait_all_completed(200)
            completed = [submit.done() for submit in submits]
            outcomes = await asyncio.gather(*submits)
            return queued, settled, completed, outcomes, await service.shutdown()

        queued, settled, completed, outcomes, report = asyncio.run(drive())
        assert queued  # what the wait used to stop on
        assert settled
        assert completed == [True, True]
        assert all(outcome is not None for outcome in outcomes)
        assert report.pending_transactions == []

    def test_a_submit_that_times_out_settles_the_wait(self):
        """The coordinator crashes before the submit's call reaches it: the
        call is skipped, and the wait ends when the submit gives up."""
        [txn] = uniform_workload(
            num_transactions=1, num_partitions=2, participants_per_txn=2, seed=5
        ).transactions
        unit = 0.01

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=2, commit_protocol="2PC", max_time=300.0),
                unit=unit,
            )
            await service.start()
            submitted = asyncio.ensure_future(service.submit(txn, timeout_units=5.0))
            await asyncio.sleep(0)  # the call is posted, not yet handled
            service.crash_partition(service.client_pid)
            loop = asyncio.get_running_loop()
            began = loop.time()
            settled = await service.wait_all_completed(200)
            return settled, loop.time() - began, await submitted, await service.shutdown()

        settled, waited, outcome, report = asyncio.run(drive())
        assert outcome is None
        assert settled
        assert waited < 200 * unit / 2
        assert report.outcomes == []

    def test_a_decided_outcome_reaches_its_client_in_one_loop_step(self):
        """The client resumes in the loop step after the kernel records the
        outcome, ahead of anything that step's callbacks schedule; a relay
        through a second future (wait_for on 3.11) resumed it one step later."""
        [txn] = uniform_workload(
            num_transactions=1, num_partitions=2, participants_per_txn=2, seed=3
        ).transactions

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=2, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
            )
            await service.start()
            loop = asyncio.get_running_loop()
            marks = []
            handler = service.client.on_outcome

            def on_outcome(outcome):
                handler(outcome)
                loop.call_soon(marks.append, "next step")

            service.client.on_outcome = on_outcome
            outcome = await service.submit(txn)
            marks.append("client")
            await asyncio.sleep(0)
            await service.shutdown()
            return outcome, marks

        outcome, marks = asyncio.run(drive())
        assert outcome.decision == COMMIT
        assert marks == ["client", "next step"]

    def test_submit_observes_how_late_an_outcome_reaches_its_client(self):
        txns = uniform_workload(
            num_transactions=3, num_partitions=2, participants_per_txn=2, seed=2
        ).transactions
        metrics = MetricsRegistry()

        async def drive():
            service = AsyncClusterService(
                ClusterConfig(num_partitions=2, commit_protocol="2PC", max_time=300.0),
                unit=0.002,
                metrics=metrics,
            )
            await service.start()
            outcomes = [await service.submit(txn) for txn in txns]
            await service.shutdown()
            return outcomes

        assert all(outcome is not None for outcome in asyncio.run(drive()))
        late = metrics.histogram("cluster.outcome_late_seconds")
        assert late.total == 3
        assert min(late.counts) >= 0.0

    def test_a_second_start_is_refused_before_it_touches_the_cluster(self):
        """A second start used to rebind fresh, empty partitions and a new
        client before the runtime refused it."""
        [txn] = uniform_workload(
            num_transactions=1, num_partitions=3, participants_per_txn=2, seed=0
        ).transactions

        async def drive():
            service = AsyncClusterService(ClusterConfig(num_partitions=3, seed=0))
            await service.start()
            client = service.client
            assert (await service.submit(txn, timeout_units=60.0)).decision == COMMIT
            with pytest.raises(ConfigurationError, match="already started"):
                await service.start()
            assert service.client is client
            return await service.shutdown()

        report = asyncio.run(drive())
        assert report.committed == 1
        assert [pid for pid, store in report.store_snapshots.items() if store] == sorted(
            txn.participants()
        )

    def test_submit_crash_and_rejoin_after_shutdown_are_refused(self):
        """A submit after shutdown used to wait out its whole budget for None,
        and a crash was a silent no-op."""
        [txn] = uniform_workload(
            num_transactions=1, num_partitions=2, participants_per_txn=2, seed=0
        ).transactions

        async def drive():
            service = AsyncClusterService(ClusterConfig(num_partitions=2))
            await service.start()
            await service.shutdown()
            with pytest.raises(ConfigurationError, match="shut down"):
                await asyncio.wait_for(service.submit(txn), timeout=1.0)
            for by_hand in (service.crash_partition, service.recover_partition):
                with pytest.raises(ConfigurationError, match="shut down"):
                    by_hand(1)
            return service

        service = asyncio.run(drive())
        assert not service.runtime.is_down(1)
        assert service.client.outcomes == {}

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
    """Multi-partition transactions with a quiet window between them.

    P2's key ``e`` is written once, before the crash window: after a rejoin
    only the replayed log holds it.
    """
    return [
        Transaction.of(
            "t-early",
            [
                Operation.write(1, "a", 10),
                Operation.write(2, "b", 20),
                Operation.write(2, "e", 25),
            ],
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


def outage_transfers():
    """Two-partition transactions, ``t2`` submitted while P2 is down (20-40).

    P2's key ``g`` is written once, by ``t0``: after the rejoin only the
    replayed log holds it.
    """
    return [
        Transaction.of(
            "t0",
            [
                Operation.write(1, "a", 10),
                Operation.write(2, "b", 20),
                Operation.write(2, "g", 25),
            ],
            submit_time=0.0,
        ),
        Transaction.of(
            "t1",
            [Operation.write(2, "b", 21), Operation.write(3, "c", 30)],
            submit_time=8.0,
        ),
        Transaction.of(
            "t2",
            [Operation.write(1, "a", 11), Operation.write(2, "d", 40)],
            submit_time=26.0,
        ),
        Transaction.of(
            "t3",
            [Operation.write(2, "b", 22), Operation.write(3, "e", 50)],
            submit_time=55.0,
        ),
        Transaction.of(
            "t4",
            [Operation.write(1, "a", 12), Operation.write(2, "f", 60)],
            submit_time=75.0,
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
            with pytest.raises(ConfigurationError, match="client coordinator cannot rejoin"):
                service.recover_partition(service.client_pid)
            service.crash_partition(1)
            with pytest.raises(ConfigurationError, match="already crashed"):
                service.crash_partition(1)
            service.crash_partition(service.client_pid)
            with pytest.raises(ConfigurationError, match="client coordinator"):
                await service.submit(workload.transactions[0])
            await service.shutdown()

        asyncio.run(drive())

    def test_crash_and_rejoin_commits_the_fault_free_transaction_set(self):
        # the acceptance scenario on the wall clock: P2 crashes in a quiet
        # window and rejoins by WAL replay before the next transaction that
        # needs it; with a retry policy absorbing unlucky timing, the run
        # commits exactly the fault-free set, the invariant battery holds on
        # the recovered store, and the simulator running the same plan agrees
        base = dict(
            num_partitions=3,
            commit_protocol="INBAC",
            commit_f=1,
            seed=5,
            max_time=400.0,
            retry_policy=RetryPolicy(max_attempts=4, timeout_units=25.0),
        )
        recover = ClusterConfig(
            **base, fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0)
        )
        free = run_cluster(
            ClusterConfig(**base), spaced_transfers(), backend="asyncio"
        )
        recovered = run_cluster(recover, spaced_transfers(), backend="asyncio")
        oracle = run_cluster(recover, spaced_transfers(), backend="sim")
        committed = lambda report: {
            o.txn_id for o in report.outcomes if o.decision == COMMIT
        }
        assert committed(free) == committed(recovered) == committed(oracle) == {
            "t-early", "t-after-rejoin", "t-late"
        }
        assert recovered.incomplete == oracle.incomplete == 0
        assert (
            recovered.store_snapshots
            == oracle.store_snapshots
            == free.store_snapshots
        )
        for report in (recovered, oracle):
            assert report.invariants is not None and report.invariants.holds
            [event] = report.recovery_events
            assert event.pid == 2
            assert event.rejoined_at > event.crashed_at
            assert event.replayed_transactions >= 1  # t-early was durable on P2
            assert 2 in report.crashes
            assert report.execution_class == "crash-failure"

    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy(3, 15.0)], ids=["no-retry", "retry-3x15"]
    )
    def test_a_transaction_in_the_outage_decides_alike_on_both_backends(
        self, retry
    ):
        # t2 is submitted while P2 is down: without a retry INBAC leaves it
        # undecided, holding P1's lock on ``a`` so t4 aborts; with one, the
        # resubmission after the rejoin decides it.  The wall clock must
        # reach the simulator's outcome either way.
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="INBAC",
            commit_f=1,
            seed=5,
            max_time=150.0,
            fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
            retry_policy=retry,
        )
        recovered = run_cluster(config, outage_transfers(), backend="asyncio")
        oracle = run_cluster(config, outage_transfers(), backend="sim")
        committed = lambda report: {
            o.txn_id for o in report.outcomes if o.decision == COMMIT
        }
        assert committed(recovered) == committed(oracle)
        assert recovered.incomplete == oracle.incomplete
        assert recovered.store_snapshots == oracle.store_snapshots
        if retry is None:
            assert oracle.incomplete == 1 and oracle.retry_counts == {}
            assert committed(oracle) == {"t0", "t1", "t3"}
            assert oracle.store_snapshots[2] == {"b": 22, "g": 25}
        else:
            assert oracle.incomplete == 0
            assert recovered.retry_counts == oracle.retry_counts == {"t2": 1}
            assert committed(oracle) == {"t0", "t1", "t3", "t4"}
            assert oracle.store_snapshots[2] == {"b": 22, "f": 60, "g": 25}
        for report in (recovered, oracle):
            assert report.invariants is not None and report.invariants.holds
            [event] = report.recovery_events
            assert event.pid == 2
            assert event.rejoined_at > event.crashed_at
            assert event.replayed_transactions == 2  # t0 and t1

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
        assert event.rejoined_at > event.crashed_at
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
    runtime.start_processes()
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
        assert metrics.snapshot().counters.get("runtime.timer_set", 0) == 1
        assert metrics.snapshot().counters.get("runtime.timer_rearm", 0) == 1

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
        assert metrics.snapshot().counters.get("runtime.timer_cancel", 0) == 0

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
        delayed = metrics.snapshot().counters.get("transport.delayed", 0)
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

    def test_a_message_to_self_from_outside_wakes_the_kernel(self):
        """It used to be queued at the kernel's last time with nothing arming
        the loop handle, so it was never delivered."""

        async def drive():
            runtime = _probe_runtime()
            await runtime.start()
            await asyncio.sleep(runtime.unit)
            runtime.env_for(1).send(1, "outside")
            await asyncio.sleep(2.0 * runtime.unit)
            seen = _seen(runtime.processes[1])
            await runtime.stop()
            return seen, runtime

        seen, runtime = asyncio.run(drive())
        assert seen == [("deliver", (1, "outside"))]
        assert runtime.trace.message_count() == 0  # a message to self is uncounted

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
