"""The ProcessEnv contract, executed against both runtimes.

Three layers:

* every conformance scenario passes on the simulator leg (the reference) and
  on the asyncio leg — one ``Simulation`` of the same probe processes, run or
  paced, and the same checkers;
* the suite itself is falsifiable: an inert environment that ignores timers
  and accepts double decides fails multiple scenarios;
* sim-vs-runtime agreement: every registered commit protocol, run unmodified
  on both runtimes with the same votes, reaches the same decision — and the
  runtime's execution record is judged by the readers the simulator's is
  (``check_nbac`` / ``evaluate_problem``), failure-free, with one crash and
  over a late link; under the same delay model and seed the two backends
  decide the same values at the same times, and a paced record carries the
  simulator's metadata;
* the runtime's record stays bounded: no per-message entry however long a
  service runs, and a receive-time query on it raises instead of answering 0.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.checker import check_nbac, evaluate_problem
from repro.core.lattice import Prop, PropertyPair
from repro.core.metrics import messages_until_last_decision
from repro.errors import SimulationError
from repro.protocols.registry import get_protocol, protocol_names
from repro.runtime import (
    DEFAULT_UNIT_SECONDS,
    AsyncClusterService,
    run_commit,
    run_paced,
)
from repro.sim.faults import FaultPlan
from repro.sim.network import FixedDelay, LinkDelay, LinkPolicy
from repro.sim.runner import Scheduler, Simulation

from conformance import SCENARIOS, run_conformance, run_scenario
from conftest import run_protocol

LEGS = {"sim": Simulation.run, "asyncio": run_paced}


def _leg_params():
    # the asyncio leg runs on the wall clock: mark it `runtime` so the
    # SIGALRM guard covers it
    return [
        pytest.param("sim", id="sim"),
        pytest.param("asyncio", id="asyncio", marks=pytest.mark.runtime),
    ]


# --------------------------------------------------------------------------- #
# the contract holds on both runtimes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("leg", _leg_params())
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_passes(leg, scenario):
    assert run_scenario(scenario, LEGS[leg]) == []


@pytest.mark.runtime
def test_full_conformance_both_runtimes():
    assert run_conformance() == []
    assert run_conformance(run_paced) == []


# --------------------------------------------------------------------------- #
# the suite can fail: an environment that breaks the contract is caught
# --------------------------------------------------------------------------- #
class _InertEnv:
    """Deliberately broken: timers never fire, decide never raises."""

    def __init__(self, trace, pid):
        self._trace = trace
        self._pid = pid

    def send(self, dst, payload, module="main"):
        pass

    def send_many(self, dsts, payload, module="main"):
        pass

    def set_timer(self, at_units, name="timer"):
        pass

    def cancel_timer(self, name="timer"):
        pass

    def decide(self, value):
        self._trace.record_decision(self._pid, value, 0.0)  # accepts duplicates

    def now(self):
        return 0.0


class _InertKernel(Scheduler):
    """The kernel with an inert env per pid, writing to the kernel's record."""

    def __init__(self, n, f, **kwargs):
        super().__init__(n, f, **kwargs)
        self.envs = {pid: _InertEnv(self.trace, pid) for pid in self.envs}


def _inert(simulation, votes):
    # nothing ever runs: no timer is armed and nothing is sent
    return simulation.run_on(_InertKernel, lambda kernel: None, votes)


def test_conformance_suite_catches_a_broken_environment():
    failures = run_conformance(_inert)
    text = "\n".join(failures)
    # no timer ever fires: rearm, cancel-sentinel and monotonic all complain
    assert "timer-rearm" in text
    assert "sentinel" in text
    # double decide was silently accepted and the last value stuck
    assert "decide-once" in text
    # nothing it is handed ever arrives
    assert "send-many" in text
    assert "self-send-deferred" in text
    assert "timer-cancel-then-rearm" in text
    assert "timer-past-deadline" in text


# --------------------------------------------------------------------------- #
# the embedding adapter: a commit instance's broadcast through its host
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("protocol", ["INBAC", "PaxosCommit", "3PC"])
def test_embedded_env_send_many_equals_loop_of_sends(protocol, monkeypatch):
    from repro.db import ClusterConfig, run_cluster
    from repro.db.partition import EmbeddedCommitEnv
    from repro.explore.schedule import ScheduleController
    from repro.sim.network import UniformDelay
    from repro.workloads import uniform_workload

    def run():
        config = ClusterConfig(
            num_partitions=4,
            commit_protocol=protocol,
            commit_f=1,
            delay_model=UniformDelay(0.3, 1.0, seed=5),
            seed=5,
            # a controller (here: the do-nothing one) makes the report
            # carry the full trace fingerprint
            controller=ScheduleController(),
        )
        workload = uniform_workload(
            num_transactions=12, num_partitions=4, participants_per_txn=3, seed=5
        )
        return run_cluster(config, workload.transactions)

    batched = run()

    def loop_of_sends(self, dsts, payload, module="main"):
        for dst in dsts:
            self.send(dst, payload, module)

    monkeypatch.setattr(EmbeddedCommitEnv, "send_many", loop_of_sends)
    looped = run()
    assert batched.committed == looped.committed == 12
    assert batched.trace_fingerprint == looped.trace_fingerprint
    assert batched.messages_by_module == looped.messages_by_module
    # the module tag of a broadcast survives the embedding
    assert batched.messages_by_module["commit:main"] > 0


# --------------------------------------------------------------------------- #
# sim-vs-runtime agreement: every protocol, unmodified, judged by one checker
# --------------------------------------------------------------------------- #
AGREEMENT_N, AGREEMENT_F = 4, 1


def _sim_decision(name: str, votes):
    info = get_protocol(name)
    result = run_protocol(info.cls, AGREEMENT_N, AGREEMENT_F, votes)
    assert check_nbac(result.trace).solves_nbac(), f"sim run of {name}"
    return result.trace.decisions[1].value


def _cell(name):
    # 2PC is not in Table 1; its registry note claims agreement + validity
    return get_protocol(name).cell or PropertyPair.of("AV", "AV")


def _run_commit(name, votes, terminates=True, **kwargs):
    result = run_commit(name, AGREEMENT_N, AGREEMENT_F, list(votes), **kwargs)
    runtime = result.scheduler
    assert not (terminates and runtime.timed_out), f"{name} timed out on asyncio"
    assert runtime.errors == []
    return result


@pytest.mark.runtime
@pytest.mark.parametrize("name", protocol_names())
@pytest.mark.parametrize(
    "votes", [(1, 1, 1, 1), (1, 0, 1, 1)], ids=["all-yes", "one-no"]
)
def test_sim_and_runtime_agree(name, votes):
    expected = _sim_decision(name, list(votes))
    trace = _run_commit(name, votes).trace
    assert trace.votes() == dict(enumerate(votes, start=1))
    report = check_nbac(trace)
    assert report.execution_class == "failure-free"
    # fault-free: all three properties, so all-yes commits and a no aborts
    assert report.solves_nbac(), f"{name}: {report.violations()}"
    assert [rec.value for _, rec in sorted(trace.decisions.items())] == [
        expected
    ] * AGREEMENT_N


def _decided(trace):
    return {pid: (rec.value, rec.time) for pid, rec in trace.decisions.items()}


@pytest.mark.runtime
@pytest.mark.parametrize("name", protocol_names())
@pytest.mark.parametrize("votes", [(1, 1, 1, 1), (0, 1, 1, 1)], ids=["all-yes", "one-no:1"])
def test_one_network_model_decides_the_same_values_at_the_same_times(name, votes):
    """The same delay model and seed on both backends: one kernel, one
    network, so the wall clock changes when a run decides, not what or at
    which stamped time."""
    runtime = _run_commit(
        name, votes, delay_model=FixedDelay(1.0), seed=5, unit=0.002,
        timeout_units=60.0,
    )
    sim = Simulation(
        AGREEMENT_N, AGREEMENT_F, process_class=get_protocol(name).cls,
        delay_model=FixedDelay(1.0), seed=5,
    ).run(list(votes))
    assert _decided(runtime.trace) == _decided(sim.trace)
    assert runtime.trace.message_count() == sim.trace.message_count()


@pytest.mark.runtime
@pytest.mark.parametrize("crash_at", [{}, {3: 0.5}], ids=["failure-free", "P3-crashed"])
def test_a_paced_record_carries_the_simulators_metadata(crash_at):
    """One run, built once: ``run_commit`` stamps its record with what
    ``Simulation.run`` stamps for the same votes and crashes."""
    votes = [1, 0, 1, 1]
    paced = _run_commit("INBAC", votes, crash_at=crash_at, timeout_units=40.0)
    sim = Simulation(
        AGREEMENT_N, AGREEMENT_F, process_class=get_protocol("INBAC").cls,
        fault_plan=FaultPlan.crashes_at(crash_at) if crash_at else None,
    ).run(votes)
    keys = ("votes", "fault_plan", "execution_class")
    assert {key: paced.trace.metadata[key] for key in keys} == {
        key: sim.trace.metadata[key] for key in keys
    }
    assert paced.trace.protocol == sim.trace.protocol == "INBAC"


@pytest.mark.runtime
@pytest.mark.parametrize("name", protocol_names())
def test_a_crashed_run_is_classed_by_its_record_and_judged_by_its_cell(name):
    cell = _cell(name)
    # a cell without T under crashes may block: judge what it did decide
    trace = _run_commit(
        name, (1, 1, 1, 1), terminates=Prop.TERMINATION in cell.cf,
        crash_at={3: 0.5}, timeout_units=40.0,
    ).trace
    assert 3 in trace.crashes
    assert trace.metadata["execution_class"] == "crash-failure"
    evaluation = evaluate_problem(trace, cell)
    assert evaluation.execution_class == "crash-failure"
    assert evaluation.satisfied, f"{name}: {evaluation.failures}"


@pytest.mark.runtime
def test_a_late_link_is_classed_network_failure():
    # agreement and validity hold whichever votes this seed's draws make late
    network = LinkDelay(LinkPolicy(delay_units=0.5, jitter_units=1.0), seed=3)
    result = run_commit(
        "2PC", AGREEMENT_N, AGREEMENT_F, [1] * AGREEMENT_N,
        delay_model=network, seed=3, timeout_units=30.0,
    )
    assert network.late > 0
    assert result.trace.metadata["execution_class"] == "network-failure"
    evaluation = evaluate_problem(result.trace, _cell("2PC"))
    assert evaluation.satisfied, evaluation.failures


# --------------------------------------------------------------------------- #
# a stalled event loop changes when a run decides, not what it decides
# --------------------------------------------------------------------------- #
class _Stalls(asyncio.DefaultEventLoopPolicy):
    """Every loop it makes is blocked with ``time.sleep`` for ``length`` U
    every ``period`` U from ``phase`` U on (``count`` times; None: forever):
    a host that stalls the event loop."""

    def __init__(self, unit, phase, length=2.0, period=4.0, count=None):
        super().__init__()
        self.unit, self.phase, self.length = unit, phase, length
        self.period, self.count = period, count

    def new_event_loop(self):
        loop = super().new_event_loop()
        left = [self.count]

        def stall():
            time.sleep(self.length * self.unit)
            if left[0] is not None:
                left[0] -= 1
                if not left[0]:
                    return
            loop.call_later((self.period - self.length) * self.unit, stall)

        loop.call_later(self.phase * self.unit, stall)
        return loop


#: small enough to keep 117 stalled runs to a few seconds: on the paced
#: kernel what a run decides does not depend on the unit
STALL_UNIT = 0.002
STALL_CASES = [
    ((1, 1, 1, 1), {}),
    ((1, 0, 1, 1), {}),
    ((1, 1, 1, 1), {3: 0.5}),
]


def _stalled_run_commit(name, votes, crash_at, stalls):
    asyncio.set_event_loop_policy(stalls)
    try:
        return run_commit(
            name, AGREEMENT_N, AGREEMENT_F, list(votes), crash_at=crash_at,
            unit=stalls.unit, timeout_units=40.0,
        )
    finally:
        asyncio.set_event_loop_policy(None)


@pytest.mark.runtime
@pytest.mark.parametrize("name", protocol_names())
def test_a_stalled_loop_does_not_change_what_a_run_decides(name):
    """Fails at the parent: its runtime handled overdue events in loop-handle
    order, so a 2 U stall every 4 U made 15 of these 117 runs decide other
    than the simulator or break their Table 1 cell.  The paced kernel handles
    them in ``(time, kind)`` order with their own stamps: every stall phase
    records the same decisions, values and times."""
    cls, cell = get_protocol(name).cls, _cell(name)
    for votes, crash_at in STALL_CASES:
        expected = run_protocol(
            cls, AGREEMENT_N, AGREEMENT_F, list(votes),
            fault_plan=FaultPlan(crashes=crash_at),
        ).decisions()
        records = set()
        for phase in (0.5, 1.5, 2.5):
            result = _stalled_run_commit(
                name, votes, crash_at, _Stalls(STALL_UNIT, phase)
            )
            case = f"{name} {votes} crash_at={crash_at} phase={phase}"
            assert result.scheduler.errors == [], case
            assert result.decisions() == expected, case
            evaluation = evaluate_problem(result.trace, cell)
            assert evaluation.satisfied, f"{case}: {evaluation.failures}"
            records.add(
                tuple(sorted((p, d.value, d.time) for p, d in result.trace.decisions.items()))
            )
        assert len(records) == 1, (name, votes, crash_at, records)


@pytest.mark.runtime
def test_one_long_stall_no_longer_splits_n_minus_1_plus_f_nbac():
    """Fails at the parent, which decided ``{1: 0, 2: 1, 4: 0}``: one 4 U
    stall from 2.5 U collapsed deadlines a message apart into one loop turn."""
    result = _stalled_run_commit(
        "(n-1+f)NBAC", (1, 1, 1, 1), {3: 0.5},
        _Stalls(DEFAULT_UNIT_SECONDS, phase=2.5, length=4.0, count=1),
    )
    assert result.scheduler.errors == []
    assert result.decisions() == {1: 0, 2: 0, 4: 0}


# --------------------------------------------------------------------------- #
# the runtime's record is bounded on the wall clock, and loud about it
# --------------------------------------------------------------------------- #
@pytest.mark.runtime
def test_receive_time_queries_on_a_runtime_record_raise():
    trace = _run_commit("2PC", (1, 1, 1, 1)).trace
    assert trace.message_count() == sum(trace.module_histogram().values()) > 0
    with pytest.raises(SimulationError, match="receive times"):
        trace.messages_received_by(trace.last_decision_time())
    with pytest.raises(SimulationError, match="receive times"):
        messages_until_last_decision(trace)
    with pytest.raises(SimulationError, match="per-message records"):
        trace.counted_messages()


@pytest.mark.runtime
def test_the_record_of_a_400_transaction_service_holds_no_per_message_entry():
    from repro.db import ClusterConfig
    from repro.workloads import uniform_workload

    workload = uniform_workload(
        num_transactions=400, num_partitions=4, participants_per_txn=2,
        keys_per_partition=100_000, seed=9,
    ).transactions

    async def drive():
        service = AsyncClusterService(
            ClusterConfig(num_partitions=4, commit_protocol="2PC", seed=9),
            unit=0.001,
        )
        await service.start()
        for start in range(0, len(workload), 8):  # 8 concurrent clients
            await asyncio.gather(
                *(service.submit(txn) for txn in workload[start:start + 8])
            )
        report = await service.shutdown()
        return service.runtime.trace, report

    trace, report = asyncio.run(drive())
    assert report.committed + report.aborted == 400
    assert trace.message_count() == report.messages_total > 400
    assert report.messages_until_last_decision == report.messages_total
    assert len(trace.recv_time_counts) == 0
    assert len(trace.decisions) <= trace.n
    assert trace.end_time == report.end_time > 0
