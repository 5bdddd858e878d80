"""One kernel, no task per event: the runtime's shape, guarded by an AST walk.

``repro.runtime`` hosts synchronous handlers on one thread, and its
``AsyncRuntime`` *is* the simulator's ``Scheduler``: the scheduler's own
queue and loop, re-entered from one loop handle armed for the earliest
queued time (docs/runtime.md, "The paced kernel").  The mechanisms that
design replaced — an ``asyncio.Queue`` and a consumer ``Task`` per process, a
``Task`` + ``asyncio.sleep`` per delayed message, crash or rejoin, then a
second kernel of its own (a ``deque`` of events, a ``_dispatch`` switch, a
table of loop handles, an env class), then a second network (a transport with
its own drop/jitter/outage logic, its own posting path and its own
classification rule) — each came back as a few innocent-looking lines, so
they are refused by name here rather than noticed in a profile later.  So is a second ledger: what happened in a run is written
once, into ``runtime.trace`` (docs/runtime.md, "What the runtime records").
And so is ``wait_for``'s relay between a decided outcome and its client
(docs/runtime.md, "The paced kernel": a decided outcome reaches its client in
one loop step).
And so is a second cluster: partitions, client, WAL rejoin and report are
``repro.db.cluster.Cluster``'s, which the service only paces.  And a second
bare run: processes, votes, the decided stop and the record's metadata are
``repro.sim.runner.Simulation.run_on``'s, which ``run_paced`` only paces.
"""

from __future__ import annotations

import ast
import asyncio
import os

import pytest

from conformance import ObservingProcess
import repro.runtime
import repro.runtime.runtime as runtime_module
from repro.db.cluster import ClusterConfig
from repro.obs import MetricsRegistry
from repro.runtime import AsyncClusterService, run_commit
from repro.runtime.runtime import _LOOP_GRAIN_S, AsyncRuntime
from repro.sim.faults import FaultPlan
from repro.sim.network import LinkDelay, LinkPolicy
from repro.sim.runner import Scheduler
from repro.workloads.transactions import uniform_workload

PACKAGE = os.path.dirname(repro.runtime.__file__)

#: module -> the one call it may make, and why.  None: the wait for a
#: conformance scenario's horizon is run_paced's wait for decisions, which
#: ends on the stop or the timeout — no task sleeps, and the runtime's one
#: sleep is the rest of a wake-up (SLEEP below), never one per event
ALLOWED = {}

#: the only place that arms a loop handle: the one wake-up method
WAKE_UP = ("runtime.py", "_wake")
LOOP_ARMS = ("call_soon", "call_later", "call_at")

#: the only sleep: the turn that the handle, armed one grain early, runs
SLEEP = ("runtime.py", "_turn")


def _modules():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
                yield filename, ast.parse(handle.read(), filename)


def _refused_uses():
    found = {}
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = ast.unparse(node)
            if name in ("asyncio.Queue", "asyncio.sleep"):
                use = name
            elif name.split(".")[-1] == "wait_for":
                use = "wait_for"
            elif name.endswith(("create_task", "ensure_future")):
                use = "create_task"
            elif name.split(".")[-1] in ("deque", "_dispatch", "AsyncEnv"):
                use = name.split(".")[-1]
            else:
                continue
            found[(filename, use)] = found.get((filename, use), 0) + 1
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in (
                "_dispatch", "AsyncEnv",
            ):
                found[(filename, node.name)] = found.get((filename, node.name), 0) + 1
    return found


def test_no_queue_per_process_and_no_task_or_sleep_per_event():
    assert _refused_uses() == ALLOWED


def test_no_second_kernel():
    # the runtime is the scheduler and runs the scheduler's loop
    assert issubclass(AsyncRuntime, Scheduler)
    assert AsyncRuntime.run is Scheduler.run
    assert not os.path.exists(os.path.join(PACKAGE, "node.py"))


def test_the_wake_up_method_is_the_only_place_a_loop_handle_is_armed():
    arms = []
    for filename, tree in _modules():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arms.extend(
                (filename, function.name, node.attr)
                for node in ast.walk(function)
                if isinstance(node, ast.Attribute) and node.attr in LOOP_ARMS
            )
    assert [(filename, name) for filename, name, _ in arms] == [WAKE_UP]


def test_the_turn_is_the_only_place_the_runtime_sleeps():
    sleeps = []
    for filename, tree in _modules():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sleeps.extend(
                (filename, function.name)
                for node in ast.walk(function)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func).split(".")[-1] == "sleep"
            )
    assert sleeps == [SLEEP]


class _Clock:
    """The ``time`` the runtime module reads: moved by hand, and by a sleep."""

    def __init__(self):
        self.now = 100.0
        self.slept = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


class _Loop:
    """Records what is armed; the test fires it by hand."""

    def __init__(self):
        self.armed = []

    def call_later(self, delay, callback):
        self.armed.append((delay, callback))
        return self  # the handle: only its cancel() is called

    def cancel(self):
        pass


def test_the_handle_is_armed_a_grain_early_and_the_turn_sleeps_the_rest(monkeypatch):
    clock, loop = _Clock(), _Loop()
    monkeypatch.setattr(runtime_module, "time", clock)
    runtime = AsyncRuntime(2, 1, unit=0.01)
    runtime.bind_processes(ObservingProcess)
    runtime.start_processes()
    runtime._loop, runtime._t0 = loop, clock.now

    runtime.set_timer(1, 5.0, "early")  # due 50 ms after t0
    [(delay, turn)] = loop.armed
    assert delay == pytest.approx(0.05 - _LOOP_GRAIN_S)
    # the selector gets to it 0.4 ms after it was armed for
    clock.now += delay + 0.0004
    turn()
    assert clock.slept == [pytest.approx(_LOOP_GRAIN_S - 0.0004)]
    assert clock.now == pytest.approx(runtime._t0 + 0.05)
    assert runtime.processes[1].of("timeout") == [("timeout", "early", 5.0)]

    runtime.set_timer(1, 10.0, "late")  # due 100 ms after t0
    delay, turn = loop.armed[-1]
    assert clock.now + delay == pytest.approx(runtime._t0 + 0.1 - _LOOP_GRAIN_S)
    clock.now = runtime._t0 + 0.102  # a loop that is already late
    turn()
    assert len(clock.slept) == 1
    assert runtime.processes[1].of("timeout")[-1] == ("timeout", "late", 10.0)


@pytest.mark.runtime
@pytest.mark.parametrize("protocol", ["2PC", "INBAC", "PaxosCommit"])
def test_no_wake_is_handled_before_its_deadline(protocol, monkeypatch):
    metrics = MetricsRegistry()

    class Observed(AsyncRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, metrics=metrics, **kwargs)

    monkeypatch.setattr(runtime_module, "AsyncRuntime", Observed)
    result = run_commit(
        protocol, 4, 1, [1, 1, 1, 1], unit=0.005,
        delay_model=LinkDelay(LinkPolicy(delay_units=0.2, jitter_units=0.3), seed=7),
    )
    assert not result.scheduler.timed_out
    digest = metrics.snapshot().histograms["runtime.wake_late_seconds"]
    assert sum(digest.values()) > 1
    assert min(digest) >= -1e-6


def test_no_second_network():
    # a message is posted by Scheduler.send_many and classed by
    # Scheduler.execution_class on both backends
    assert not os.path.exists(os.path.join(PACKAGE, "transport.py"))
    assert AsyncRuntime.send_many is Scheduler.send_many
    assert AsyncRuntime.execution_class is Scheduler.execution_class
    assert not hasattr(AsyncRuntime, "arrive")


def test_no_second_cluster():
    # the cluster is put together and reported once, by repro.db.cluster's
    # Cluster; the service only paces it, and the batch run is run_cluster's
    calls = sorted(
        (filename, ast.unparse(node.func).split(".")[-1])
        for filename, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1]
        in ("bind_process", "set_recovery_factory", "ClusterReport")
    )
    assert calls == []
    assert not hasattr(repro.runtime, "run_cluster_async")
    assert "run_cluster_async" not in repro.runtime.__all__


def test_no_second_run():
    # a bare protocol run is put together once, by Simulation.run_on, on
    # either kernel; run_commit and the conformance leg only pace it, and
    # its result is the simulator's SimulationResult
    calls = sorted(
        (filename, ast.unparse(node.func).split(".")[-1])
        for filename, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1]
        in ("bind_processes", "stop_when_all_correct_decided")
    )
    assert calls == []
    assert not os.path.exists(os.path.join(PACKAGE, "conformance.py"))
    # no result type or harness of its own, exported or not
    assert [
        name for name in dir(repro.runtime) if name.endswith(("Result", "Harness"))
    ] == []


@pytest.mark.runtime
def test_at_most_one_loop_handle_of_the_runtime_is_live():
    """Checked once per loop iteration over a service run with timers,
    delayed deliveries, a planned crash and rejoin and concurrent clients."""
    workload = uniform_workload(
        num_transactions=24, num_partitions=3, participants_per_txn=2,
        keys_per_partition=100_000, seed=3,
    ).transactions

    async def drive():
        loop = asyncio.get_running_loop()
        service = AsyncClusterService(
            ClusterConfig(
                num_partitions=4, commit_protocol="2PC", seed=3, max_time=400.0,
                fault_plan=FaultPlan.crash_recover(4, at=1.0, rejoin_at=3.0),
                delay_model=LinkDelay(LinkPolicy(delay_units=0.2, jitter_units=0.2)),
            ),
            unit=0.005,
        )
        runtime = service.runtime
        most = []

        def probe():
            most.append(
                sum(
                    not handle.cancelled()
                    and getattr(handle._callback, "__self__", None) is runtime
                    for handle in [*loop._scheduled, *loop._ready]
                )
            )
            loop.call_soon(probe)

        loop.call_soon(probe)
        await service.start()
        for start in range(0, len(workload), 4):  # 4 concurrent clients
            await asyncio.gather(*(service.submit(txn) for txn in workload[start:start + 4]))
        report = await service.shutdown()
        return max(most), len(most), report

    most, samples, report = asyncio.run(drive())
    assert report.committed + report.aborted == len(workload)
    assert samples > 100
    assert most == 1


#: what the execution record (``runtime.trace``, the simulator's ``Trace``)
#: holds: who decided what, who crashed and rejoined when, how many messages
#: per module.  An attribute of one of these names is a second ledger.
RECORD_FIELDS = {
    "decisions", "decision_times", "crashes", "recoveries",
    "messages_total", "messages_by_module",
}


def test_nothing_under_runtime_keeps_a_second_ledger():
    found = []
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found.extend(
                f"{filename}:{node.lineno} self.{target.attr}"
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in RECORD_FIELDS
            )
    assert found == []
