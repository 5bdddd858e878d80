"""Crash-recovery and graceful degradation: WAL rejoin, retry, gray failures.

The tentpole contract: a partition crashed mid-run can rejoin by replaying
its write-ahead log, resolve its in-doubt transactions through termination
queries, and resume serving — and none of it perturbs a single byte of the
recovery-free fingerprints.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.db import ClusterConfig, LockMode, RetryPolicy, run_cluster
from repro.db.cluster import Cluster
from repro.db.partition import PartitionServer
from repro.db.transaction import Operation, Transaction
from repro.db.wal import ABORT as WAL_ABORT
from repro.db.wal import COMMIT as WAL_COMMIT
from repro.db.wal import PREPARE as WAL_PREPARE
from repro.db.wal import WriteAheadLog
from repro.errors import ConfigurationError
from repro.exp import GridSpec, run_sweep
from repro.exp.spec import coerce_axis
from repro.explore.driver import explore
from repro.explore.schedule import ScheduleTrace
from repro.protocols.base import ABORT, COMMIT
from repro.sim.faults import FaultPlan
from repro.sim.network import FlakyLinkDelay
from repro.sim.runner import Scheduler
from repro.workloads.transactions import (
    bank_transfer_workload,
    hotspot_workload,
    uniform_workload,
)


# --------------------------------------------------------------------------- #
# fault-plan surface
# --------------------------------------------------------------------------- #
class TestFaultPlanRecovery:
    def test_crash_recover_constructor(self):
        plan = FaultPlan.crash_recover(2, at=5.0, rejoin_at=12.0)
        assert plan.crashes == {2: 5.0}
        assert plan.recoveries == {2: 12.0}
        plan.validate(n=3, f=1)

    def test_rejoin_must_follow_the_crash(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.crash_recover(2, at=5.0, rejoin_at=5.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.crash_recover(2, at=5.0, rejoin_at=3.0)

    def test_validate_rejects_recovery_without_a_crash(self):
        plan = FaultPlan(recoveries={2: 9.0})
        with pytest.raises(ConfigurationError, match="no matching crash"):
            plan.validate(n=3, f=1)

    def test_validate_rejects_rejoin_before_the_crash(self):
        plan = FaultPlan(crashes={2: 9.0}, recoveries={2: 4.0})
        with pytest.raises(ConfigurationError, match="rejoins"):
            plan.validate(n=3, f=1)

    def test_merged_with_carries_recoveries(self):
        merged = FaultPlan.crash_recover(1, at=2.0, rejoin_at=8.0).merged_with(
            FaultPlan.crash(2, at=3.0)
        )
        assert merged.crashes == {1: 2.0, 2: 3.0}
        assert merged.recoveries == {1: 8.0}


# --------------------------------------------------------------------------- #
# sim-side rejoin: the acceptance scenario
# --------------------------------------------------------------------------- #
def spaced_transfers():
    """Three multi-partition transactions with a quiet gap between them."""
    return [
        Transaction.of(
            "t-early",
            [Operation.write(1, "a", 10), Operation.write(2, "b", 20)],
            submit_time=0.0,
        ),
        Transaction.of(
            "t-after-rejoin",
            [Operation.write(2, "b", 21), Operation.write(3, "c", 30)],
            submit_time=45.0,
        ),
        Transaction.of(
            "t-late",
            [Operation.write(1, "a", 11), Operation.write(2, "d", 40)],
            submit_time=70.0,
        ),
    ]


class TestSimRejoin:
    def base_config(self, **overrides):
        params = dict(
            num_partitions=3,
            commit_protocol="INBAC",
            commit_f=1,
            seed=5,
            max_time=400.0,
        )
        params.update(overrides)
        return ClusterConfig(**params)

    def test_rejoined_run_commits_the_fault_free_transaction_set(self):
        # P2 crashes in a quiet window and rejoins before the next submission
        # that needs it: every transaction of the fault-free run still commits,
        # and the invariant battery passes on the recovered store
        free = run_cluster(self.base_config(), spaced_transfers())
        rejoined = run_cluster(
            self.base_config(
                fault_plan=FaultPlan.crash_recover(2, at=15.0, rejoin_at=30.0)
            ),
            spaced_transfers(),
        )
        committed = lambda report: {
            o.txn_id for o in report.outcomes if o.decision == COMMIT
        }
        assert committed(free) == committed(rejoined) == {
            "t-early", "t-after-rejoin", "t-late"
        }
        assert rejoined.incomplete == 0
        assert rejoined.invariants is not None and rejoined.invariants.holds
        assert rejoined.store_snapshots == free.store_snapshots
        [event] = rejoined.recovery_events
        assert event.pid == 2
        assert event.crashed_at == 15.0
        assert event.rejoined_at == 30.0
        assert event.rejoined_at - event.crashed_at == 15.0
        assert event.replayed_transactions == 1  # t-early was durable
        assert event.in_doubt_at_rejoin == ()
        # the crash still happened: classification does not regress
        assert rejoined.execution_class == "crash-failure"

    def test_no_votes_are_counted_across_a_rejoin(self):
        # the counts are read off the WAL, whose PREPARE records keep their
        # vote; a ledger rebuilt at the rejoin used to restart vote_no at 0
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="2PC",
            fault_plan=FaultPlan.crash_recover(2, at=9.0, rejoin_at=30.0),
            seed=1,
            max_time=3000,
        )
        workload = hotspot_workload(12, 3, participants_per_txn=2, seed=1)
        report = run_cluster(config, workload.transactions)
        [event] = report.recovery_events
        assert event.pid == 2
        no_votes = [
            r.txn_id
            for r in report.wal_records[2]
            if r.kind == WAL_PREPARE and r.vote == 0 and r.timestamp < 9.0
        ]
        assert len(no_votes) == 1  # cast before the crash
        assert [r.vote for r in report.wal_records[2] if r.kind == WAL_PREPARE].count(0) == 1

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_client_coordinator_is_not_recoverable(self, backend):
        config = self.base_config(
            # pid 4 is the client in a 3-partition cluster
            fault_plan=FaultPlan.crash_recover(4, at=5.0, rejoin_at=10.0),
            commit_f=2,
        )
        with pytest.raises(
            ConfigurationError, match="the client coordinator cannot rejoin"
        ):
            run_cluster(config, spaced_transfers(), backend)

    def test_retry_policy_resubmits_through_the_outage(self):
        workload = bank_transfer_workload(
            num_transfers=8, num_partitions=3, seed=5
        )
        config = self.base_config(
            fault_plan=FaultPlan.crash_recover(2, at=10.0, rejoin_at=25.0),
            retry_policy=RetryPolicy(max_attempts=4, timeout_units=15.0),
        )
        report = run_cluster(config, workload.transactions)
        # the transaction submitted into the outage was retried...
        assert report.retry_counts
        assert all(count >= 1 for count in report.retry_counts.values())
        # ...and every transaction reached a decision (commit or clean abort)
        assert report.incomplete == 0
        assert report.invariants is not None and report.invariants.holds

    @pytest.mark.parametrize(
        "fields",
        [{"max_attempts": 0}, {"timeout_units": 0.0}, {"timeout_units": math.nan}],
        ids=["no-attempt", "zero-timeout", "nan-timeout"],
    )
    def test_retry_policy_validation(self, fields):
        # NaN fails every comparison: a check written as ``<= 0`` passes it
        with pytest.raises(ConfigurationError):
            RetryPolicy(**fields)

    def test_backoff_is_bounded_and_grows(self):
        # the fixed schedule: 2, 4, 8, then 16 U, each plus one draw of
        # [0, 0.5) U from the coordinator's RNG (a mirror stream in lockstep)
        policy = RetryPolicy()
        rng, mirror = random.Random(0), random.Random(0)
        for retry, base in ((1, 2.0), (2, 4.0), (3, 8.0), (4, 16.0), (9, 16.0)):
            wait = policy.backoff(retry, rng)
            assert wait == base + mirror.random() * 0.5
            assert base <= wait < base + 0.5


# --------------------------------------------------------------------------- #
# WAL rejoin edge cases at the runtime boundary
# --------------------------------------------------------------------------- #
class _StubEnv:
    """Minimal ProcessEnv recording sends; enough to drive recovery paths."""

    def __init__(self, seed: int = 0):
        self.sent = []
        self.random = random.Random(seed)

    def send(self, dst, payload, module="main"):
        self.sent.append((dst, payload))

    def send_many(self, dsts, payload, module="main"):
        for dst in dsts:
            self.send(dst, payload, module)

    def set_timer(self, at_units, name="timer"):
        pass

    def cancel_timer(self, name="timer"):
        pass

    def decide(self, value):
        pass

    def now(self):
        return 0.0


def make_server(env=None):
    env = env if env is not None else _StubEnv()
    return PartitionServer(2, 3, 1, env, coordinator=9)


def wal_with_history():
    """Committed t1, aborted t2, in-doubt t3 (prepared, no outcome)."""
    wal = WriteAheadLog()
    wal.append(WAL_PREPARE, "t1", writes={"a": 1}, participants=(1, 2))
    wal.append(WAL_COMMIT, "t1", writes={"a": 1})
    wal.append(WAL_PREPARE, "t2", writes={"b": 2}, participants=(2, 3))
    wal.append(WAL_ABORT, "t2")
    wal.append(WAL_PREPARE, "t3", writes={"c": 3}, participants=(1, 2, 3))
    return wal


class TestWalRejoinEdgeCases:
    def test_recover_twice_is_idempotent(self):
        wal = wal_with_history()
        first = make_server()
        replayed_first = first.recover_from_wal(wal)
        snapshot = first.store.snapshot()
        log = wal.records()
        second = make_server()
        replayed_second = second.recover_from_wal(wal)
        assert replayed_first == replayed_second == 1
        assert second.store.snapshot() == snapshot == {"a": 1}
        # recovery reads the log and writes nothing to it
        assert wal.records() == log
        # and replaying again on the *same* server reaches the same state
        assert first.recover_from_wal(wal) == 1
        assert first.store.snapshot() == snapshot

    def test_recovery_reinstalls_locks_for_in_doubt_writes(self):
        server = make_server()
        server.recover_from_wal(wal_with_history())
        # t3 is in doubt: its write set must be locked against newcomers
        assert not server.locks.try_acquire("intruder", "c", LockMode.EXCLUSIVE)
        # resolved keys are free
        assert server.locks.try_acquire("intruder", "a", LockMode.EXCLUSIVE)

    def test_rejoin_over_a_torn_tail(self):
        wal = wal_with_history()
        wal.append(WAL_COMMIT, "t3", writes={"c": 3})
        wal.tear_final_record()  # crash mid-append of t3's commit record
        server = make_server()
        server.recover_from_wal(wal)
        # the torn commit is invisible: t3 is back in doubt, its write absent
        assert "c" not in server.store.snapshot()
        assert "t3" in server.wal.in_doubt()
        assert not server.locks.try_acquire("intruder", "c", LockMode.EXCLUSIVE)

    def test_in_doubt_resolution_round_trip(self):
        env = _StubEnv()
        server = PartitionServer(2, 3, 1, env, coordinator=9)
        server.recover_from_wal(wal_with_history())
        server.on_recover()
        # termination queries go to the coordinator and t3's peer participants
        queries = [(dst, p) for dst, p in env.sent if p[0] == "OUTCOME?"]
        assert (9, ("OUTCOME?", "t3")) in queries
        assert (1, ("OUTCOME?", "t3")) in queries
        assert (3, ("OUTCOME?", "t3")) in queries
        assert all(dst != 2 for dst, _ in queries)  # never queries itself
        # a COMMIT answer applies the prepared writes and releases the locks
        server.on_deliver(9, ("OUTCOME", "t3", COMMIT))
        assert server.store.snapshot()["c"] == 3
        assert server.wal.outcome_of("t3") == WAL_COMMIT
        assert server.locks.try_acquire("intruder", "c", LockMode.EXCLUSIVE)
        # the resolution is acked to the coordinator
        assert (9, ("DONE", "t3", COMMIT, 0.0)) in env.sent
        # duplicate answers are idempotent (no double apply, no new record)
        records_before = len(server.wal)
        server.on_deliver(1, ("OUTCOME", "t3", COMMIT))
        server.on_deliver(3, ("OUTCOME", "t3", ABORT))
        assert len(server.wal) == records_before
        assert server.store.snapshot()["c"] == 3

    def test_abort_answer_discards_the_prepared_writes(self):
        env = _StubEnv()
        server = PartitionServer(2, 3, 1, env, coordinator=9)
        server.recover_from_wal(wal_with_history())
        server.on_deliver(9, ("OUTCOME", "t3", ABORT))
        assert "c" not in server.store.snapshot()
        assert server.wal.outcome_of("t3") == WAL_ABORT
        assert server.locks.try_acquire("intruder", "c", LockMode.EXCLUSIVE)

    def test_outcome_query_answered_only_when_known(self):
        env = _StubEnv()
        server = PartitionServer(2, 3, 1, env, coordinator=9)
        server.recover_from_wal(wal_with_history())
        server.on_deliver(1, ("OUTCOME?", "t1"))  # committed here
        server.on_deliver(1, ("OUTCOME?", "t3"))  # in doubt here too
        answers = [(dst, p) for dst, p in env.sent if p[0] == "OUTCOME"]
        assert answers == [(1, ("OUTCOME", "t1", COMMIT))]

    def test_a_rejoined_partition_keeps_no_messages_for_what_its_log_prepared(self):
        # an earlier incarnation prepared t1 (committed), t2 (aborted) and t3
        # (in doubt): no instance of this one will ever take their commit
        # messages, so none is buffered; t9, never prepared here, keeps its
        # buffer for the EXEC that may still come
        env = _StubEnv()
        server = PartitionServer(2, 3, 1, env, coordinator=9)
        server.recover_from_wal(wal_with_history())
        for txn in ("t1", "t2", "t3", "t9"):
            server.on_deliver(1, ("__txn__", txn, ("VOTE", 1)))
        assert list(server._early_messages) == ["t9"]
        # a duplicate EXEC answered from the log buffers nothing either
        server.on_deliver(9, ("EXEC", "t1", 1.0, (1, 2), (), {"a": 1}))
        assert (9, ("DONE", "t1", COMMIT, 0.0)) in env.sent
        # nor does a message arriving after the in-doubt one is resolved
        server.on_deliver(9, ("OUTCOME", "t3", COMMIT))
        server.on_deliver(1, ("__txn__", "t3", ("VOTE", 1)))
        assert list(server._early_messages) == ["t9"]
        # t9's EXEC prepares it here and takes its buffered message
        server.on_deliver(9, ("EXEC", "t9", 1.0, (1, 2), (), {"z": 1}))
        assert server._early_messages == {}

    def test_crash_recover_runs_leave_no_buffer_for_a_prepared_transaction(self):
        # P2 crashes at t and rejoins at t + 6: commit messages for what its
        # log prepared used to stay buffered for good (with INBAC and Paxos
        # Commit at t = 2, for a transaction its log commits)
        workload = uniform_workload(40, 4, participants_per_txn=3, seed=0)
        for protocol in ("2PC", "INBAC", "PaxosCommit"):
            for at in (2.0, 3.0, 5.0, 8.0, 12.0, 20.0):
                config = ClusterConfig(
                    num_partitions=4,
                    commit_protocol=protocol,
                    fault_plan=FaultPlan.crash_recover(2, at=at, rejoin_at=at + 6),
                    max_time=400.0,
                )
                cluster = Cluster(config, Scheduler, max_time=config.max_time)
                client = cluster.bind(workload.transactions)
                kernel = cluster.kernel
                client.on_outcome = lambda _: client.all_completed() and kernel.stop()
                kernel.run()
                rejoined = kernel.processes[2]
                kept = [
                    txn
                    for txn in rejoined._early_messages
                    if rejoined.wal.prepare_record_of(txn) is not None
                ]
                assert kept == [], (protocol, at)
                kernel.release()


class _CountingList(list):
    """A record list that counts how often anything walks all of it."""

    full_iterations = 0

    def __iter__(self):
        self.full_iterations += 1
        return super().__iter__()

    def __reversed__(self):
        self.full_iterations += 1
        return super().__reversed__()


def test_exec_to_done_never_walks_the_whole_log():
    """The recovery questions ``_prepare`` asks on every EXEC (decided by a
    previous incarnation? in doubt from one?) are answered from that
    transaction's own records: counted here, because a log scan per EXEC
    shows in no assertion, only in CPU per transaction growing with run
    length."""
    cycles = 2500
    env = _StubEnv()
    server = PartitionServer(1, 3, 1, env, coordinator=3)
    server.wal._records = _CountingList()
    for index in range(cycles):
        txn = f"t{index}"
        exec_request = ("EXEC", txn, 1.0, (1, 2), (f"r{index}",), {f"k{index}": index})
        server.deliver(3, exec_request)
        server.on_commit_decision(txn, COMMIT)
        server.deliver(3, exec_request)  # client retry: DONE is re-sent
    assert len(server.wal) == 2 * cycles
    assert sum(p[0] == "DONE" for _, p in env.sent) == 2 * cycles
    assert server.wal._records.full_iterations == 0
    # what recovery and the end-of-run report ask costs one pass, not one
    # per prepared transaction
    assert server.wal.in_doubt() == []
    assert server.wal._records.full_iterations == 1
    assert sum(r.kind == WAL_COMMIT for r in server.wal.records()) == cycles


# --------------------------------------------------------------------------- #
# gray failures: the flaky-link delay model
# --------------------------------------------------------------------------- #
class TestFlakyLinkDelay:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlakyLinkDelay(jitter=1.0)  # jitter must stay below U
        with pytest.raises(ConfigurationError):
            FlakyLinkDelay(slow_pairs={(1, 2): 0.0})
        with pytest.raises(ConfigurationError):
            FlakyLinkDelay(outages=((1, 2, 5.0, 3.0),))

    def test_asymmetric_slow_pairs(self):
        model = FlakyLinkDelay(slow_pairs={(1, 2): 4.0})
        assert model.delay(1, 2, None, 0.0) == 4.0  # slow direction
        assert model.delay(2, 1, None, 0.0) == 1.0  # nominal direction

    def test_outage_window_holds_messages_until_heal(self):
        model = FlakyLinkDelay(outages=((1, 2, 4.0, 8.0),))
        # sent mid-window: arrives one nominal delay after the heal
        assert model.delay(1, 2, None, 5.0) == (8.0 - 5.0) + 1.0
        # outside the window, and on other links, delays are nominal
        assert model.delay(1, 2, None, 8.0) == 1.0
        assert model.delay(2, 1, None, 5.0) == 1.0

    def test_seeded_jitter_is_reproducible(self):
        a = [FlakyLinkDelay(jitter=0.3, seed=7).delay(1, 2, None, t) for t in range(6)]
        b = [FlakyLinkDelay(jitter=0.3, seed=7).delay(1, 2, None, t) for t in range(6)]
        assert a == b
        assert all(0.7 <= d <= 1.0 for d in a)


# --------------------------------------------------------------------------- #
# fingerprint determinism with the recovery axes enabled
# --------------------------------------------------------------------------- #
def recovery_grid(**overrides):
    params = dict(
        protocols=["INBAC", "2PC"],
        systems=[(3, 1)],
        delays=[None, "flaky-link"],
        faults=[None, "rejoin"],
        workloads=[
            ("bank", bank_transfer_workload(num_transfers=4, num_partitions=3, seed=13))
        ],
        seeds=[0, 1],
        max_time=2000.0,
    )
    params.update(overrides)
    return GridSpec(**params)


class TestRecoveryDeterminism:
    def test_registry_axes_resolve(self):
        grid = recovery_grid()
        labels = {t.fault.label for t in grid.trials()}
        assert labels == {"failure-free", "rejoin"}
        assert {t.delay.label for t in grid.trials()} == {"U=1", "flaky-link"}

    def test_aggregate_fingerprints_across_levels_and_workers(self):
        serial_full = run_sweep(
            recovery_grid(), workers=1, mode="aggregate", trace_level="full"
        )
        serial_counters = run_sweep(
            recovery_grid(), workers=1, mode="aggregate", trace_level="counters"
        )
        parallel = run_sweep(recovery_grid(), workers=2, mode="aggregate")
        in_memory = run_sweep(recovery_grid(), workers=1)
        assert (
            serial_full.aggregate_fingerprint()
            == serial_counters.aggregate_fingerprint()
            == parallel.aggregate_fingerprint()
            == in_memory.aggregate_fingerprint()
        )

    def test_retry_and_recovery_runs_are_bit_stable(self):
        def one_run():
            config = ClusterConfig(
                num_partitions=3,
                commit_protocol="INBAC",
                commit_f=1,
                seed=5,
                max_time=400.0,
                fault_plan=FaultPlan.crash_recover(2, at=10.0, rejoin_at=25.0),
                retry_policy=RetryPolicy(max_attempts=4, timeout_units=15.0),
            )
            workload = bank_transfer_workload(
                num_transfers=8, num_partitions=3, seed=5
            )
            return run_cluster(config, workload.transactions)

        a, b = one_run(), one_run()
        assert a.summary_row() == b.summary_row()
        assert a.retry_counts == b.retry_counts
        assert a.recovery_events == b.recovery_events
        assert [(o.txn_id, o.decision, o.ack_time) for o in a.outcomes] == [
            (o.txn_id, o.decision, o.ack_time) for o in b.outcomes
        ]


# --------------------------------------------------------------------------- #
# schedule exploration over the recovery surface
# --------------------------------------------------------------------------- #
class TestExploreRecovery:
    def test_recover_decisions_normalise_and_describe(self):
        trace = ScheduleTrace(
            strategy="crash-point", decisions=[(3, "crash", 2), (9, "recover", 2)]
        )
        assert trace.decisions == [(3, "crash", 2), (9, "recover", 2)]
        assert "rejoin P2 from its WAL" in trace.describe()[1]
        restored = ScheduleTrace.from_json(trace.to_json())
        assert restored.decisions == trace.decisions

    def test_crash_point_recover_after_validation(self):
        with pytest.raises(ConfigurationError):
            coerce_axis(
                "schedules",
                ("crash-point", "crash-point", {"pid": 1, "point": 0, "recover_after": 0}),
            ).build(0)

    def test_controller_crash_and_rejoin_on_a_cluster_run(self):
        workload = bank_transfer_workload(
            num_transfers=6, num_partitions=3, seed=11
        )
        config = ClusterConfig(
            num_partitions=3,
            commit_protocol="INBAC",
            commit_f=1,
            seed=11,
            max_time=4000.0,
            controller=coerce_axis(
                "schedules",
                ("crash-point", "crash-point", {"pid": 2, "point": 2, "recover_after": 3}),
            ).build(0),
        )
        report = run_cluster(config, workload.transactions)
        kinds = [kind for _, kind, _ in report.schedule_decisions]
        assert kinds.count("crash") == 1
        assert kinds.count("recover") == 1
        [event] = report.recovery_events
        assert event.pid == 2
        assert event.rejoined_at > event.crashed_at
        assert report.invariants is not None and report.invariants.holds

    def test_cluster_rejoin_preset_explores_partitions_only(self):
        report = explore(
            "INBAC",
            3,
            1,
            budget=6,
            preset="cluster-rejoin",
            workload="uniform",
            max_time=4000.0,
        )
        assert report.errors == []
        assert report.schedules_run == 6
        assert report.strategy == "cluster-rejoin"
        assert report.meta["preset"] == "cluster-rejoin"
        # the safety invariants hold under every crash-and-rejoin schedule
        assert not report.found
