"""The ProcessEnv contract, executed against both runtimes.

Three layers:

* every conformance scenario passes on the simulator harness (the reference)
  and on the asyncio harness — the same probe processes, the same checkers;
* the suite itself is falsifiable: an inert environment that ignores timers
  and accepts double decides fails multiple scenarios;
* sim-vs-runtime agreement: every registered commit protocol, run unmodified
  and fault-free on both runtimes with the same votes, reaches the same
  decision.
"""

from __future__ import annotations

import pytest

from repro.env.conformance import (
    SCENARIOS,
    HarnessResult,
    SimHarness,
    run_conformance,
    run_scenario,
)
from repro.protocols.base import ABORT, COMMIT
from repro.protocols.registry import get_protocol, protocol_names
from repro.runtime import AsyncHarness, run_commit

from conftest import run_protocol

HARNESSES = {
    "sim": lambda: SimHarness(),
    "asyncio": lambda: AsyncHarness(),
}


def _harness_params():
    # the asyncio harness runs on the wall clock: mark it `runtime` so the
    # SIGALRM guard covers it
    return [
        pytest.param("sim", id="sim"),
        pytest.param("asyncio", id="asyncio", marks=pytest.mark.runtime),
    ]


# --------------------------------------------------------------------------- #
# the contract holds on both runtimes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("harness_name", _harness_params())
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_scenario_passes(harness_name, scenario):
    harness = HARNESSES[harness_name]()
    assert run_scenario(harness, scenario) == []


@pytest.mark.runtime
def test_full_conformance_both_runtimes():
    assert run_conformance(SimHarness()) == []
    assert run_conformance(AsyncHarness()) == []


# --------------------------------------------------------------------------- #
# the suite can fail: an environment that breaks the contract is caught
# --------------------------------------------------------------------------- #
class _InertEnv:
    """Deliberately broken: timers never fire, decide never raises."""

    def __init__(self, decisions, pid):
        self._decisions = decisions
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
        self._decisions[self._pid] = value  # silently accepts duplicates

    def now(self):
        return 0.0


class _InertHarness:
    name = "inert"
    tolerance_units = 0.0

    def run(self, factories, n, f, *, duration_units, proposals=None):
        decisions = {}
        processes = {}
        for pid in range(1, n + 1):
            factory = factories[pid]
            processes[pid] = factory(pid, n, f, _InertEnv(decisions, pid))
        for pid in range(1, n + 1):
            processes[pid].on_start()
        return HarnessResult(processes=processes, decisions=decisions)


def test_conformance_suite_catches_a_broken_environment():
    failures = run_conformance(_InertHarness())
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
# sim-vs-runtime agreement: every protocol, unmodified, fault-free
# --------------------------------------------------------------------------- #
AGREEMENT_N, AGREEMENT_F = 4, 1


def _sim_decision(name: str, votes):
    info = get_protocol(name)
    result = run_protocol(info.cls, AGREEMENT_N, AGREEMENT_F, votes)
    values = {rec.value for rec in result.trace.decisions.values()}
    assert len(values) == 1, f"sim split decision for {name}: {values}"
    return next(iter(values))


@pytest.mark.runtime
@pytest.mark.parametrize("name", protocol_names())
@pytest.mark.parametrize(
    "votes", [(1, 1, 1, 1), (1, 0, 1, 1)], ids=["all-yes", "one-no"]
)
def test_sim_and_runtime_agree(name, votes):
    expected = _sim_decision(name, list(votes))
    # The timer-driven protocols terminate only while the synchronous-model
    # assumption (delay <= 1 U) holds; a long event-loop stall on a loaded
    # host violates it, and the paper then permits non-termination.  The
    # harness answer to that wall-clock reality is a bounded retry, not a
    # wider timeout.
    for _ in range(3):
        result = run_commit(name, AGREEMENT_N, AGREEMENT_F, list(votes))
        if not result.timed_out:
            break
    assert not result.timed_out, f"{name} timed out on the asyncio runtime"
    assert result.errors == []
    assert result.all_agree, f"{name} split decision: {result.decisions}"
    assert result.decision == expected
    # fault-free all-yes must commit; any no-vote must abort (validity)
    if all(votes):
        assert result.decision == COMMIT
    else:
        assert result.decision == ABORT
    assert len(result.decisions) == AGREEMENT_N
