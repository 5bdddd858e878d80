"""Executable conformance suite for the :class:`~repro.env.ProcessEnv` contract.

The contract in :mod:`repro.env` is stated in prose; this module makes it
executable.  A *harness* adapts one runtime to a tiny common driver surface:

.. code-block:: python

    class EnvHarness(Protocol):
        name: str
        tolerance_units: float          # timer-fire slack the runtime claims

        def run(self, factories, n, f, *, duration_units, proposals=None)
            -> HarnessResult

``factories`` maps pid -> ``factory(pid, n, f, env) -> Process``; the harness
builds an environment per pid, runs every process for ``duration_units`` units
of (virtual or scaled wall-clock) time and returns the live process objects
plus the decisions the environment recorded.  The simulator harness
(:class:`SimHarness`, defined here) and the asyncio harness
(:class:`repro.runtime.conformance.AsyncHarness`) both drive exactly the same
probe processes through :func:`run_conformance`; the scenarios cover the
clauses runtimes most easily get wrong:

* ``timer-rearm`` — re-arming a pending timer supersedes it (one fire, at the
  last requested deadline);
* ``timer-cancel`` — a cancelled timer never fires;
* ``timer-cancel-after-fire`` — cancelling a fired timer is a silent no-op;
* ``module-envelope`` — component messages route to the peer component,
  main-channel messages to the process, component timers to the component;
* ``decide-once`` — the second ``decide`` raises
  :class:`~repro.errors.ProtocolViolationError` and the first value sticks;
* ``now-monotonic`` — ``now()`` never goes backwards and timers never fire
  early (beyond the harness' stated tolerance);
* ``send-many`` — ``send_many`` is the loop of ``send`` it is defined as: each
  listed destination gets the payload once per listing, a link delivers in
  send order, the message to self arrives and is not counted, and a
  component's broadcast keeps its module tag.

``run_conformance(harness)`` returns a list of human-readable failures; an
empty list means the runtime honours the contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.env import Process, ProcessComponent
from repro.errors import ProtocolViolationError

#: how long every scenario runs, in units of U — all probe timers fire
#: strictly before this horizon
SCENARIO_DURATION_UNITS = 4.0


@dataclass
class HarnessResult:
    """What one harness run exposes to the scenario checkers."""

    processes: Dict[int, Process]
    decisions: Dict[int, Any] = field(default_factory=dict)
    #: unexpected handler exceptions the runtime swallowed, as strings
    errors: List[str] = field(default_factory=list)
    #: counted (non-self) messages per module tag, as the runtime tallied
    #: them; None when a harness cannot tell
    messages_by_module: Optional[Dict[str, int]] = None


class EnvHarness(Protocol):
    """Adapter driving probe processes on one runtime."""

    name: str
    #: slack allowed on timer fire times / now() samples, in units of U
    #: (0 for the simulator; scheduling jitter for wall-clock runtimes)
    tolerance_units: float

    def run(
        self,
        factories: Dict[int, Callable[[int, int, int, Any], Process]],
        n: int,
        f: int,
        *,
        duration_units: float,
        proposals: Optional[Dict[int, Any]] = None,
    ) -> HarnessResult:
        ...  # pragma: no cover


# --------------------------------------------------------------------------- #
# probe processes
# --------------------------------------------------------------------------- #
class ObservingProcess(Process):
    """Base probe: records ``(kind, detail, now)`` observations."""

    def __init__(self, pid: int, n: int, f: int, env):
        super().__init__(pid, n, f, env)
        self.observations: List[Tuple[str, Any, float]] = []

    def note(self, kind: str, detail: Any = None) -> None:
        self.observations.append((kind, detail, self.now()))

    def of(self, kind: str) -> List[Tuple[str, Any, float]]:
        return [obs for obs in self.observations if obs[0] == kind]

    # passive defaults so a probe only overrides what it exercises
    def on_propose(self, value: Any) -> None:
        self.note("propose", value)

    def on_deliver(self, src: int, payload: Any) -> None:
        self.note("deliver", (src, payload))

    def on_timeout(self, name: str) -> None:
        self.note("timeout", name)


class _RearmProbe(ObservingProcess):
    """Arms a timer at 1.0 then immediately re-arms it at 2.5."""

    def on_start(self) -> None:
        self.set_timer(1.0, name="re")
        self.set_timer(2.5, name="re")


class _CancelProbe(ObservingProcess):
    """Arms a timer then cancels it; a sentinel timer keeps the run alive."""

    def on_start(self) -> None:
        self.set_timer(1.0, name="gone")
        self.env.cancel_timer(name="gone")
        self.set_timer(2.0, name="sentinel")


class _CancelAfterFireProbe(ObservingProcess):
    """Cancels a timer *after* it fired — must be a silent no-op."""

    def on_start(self) -> None:
        self.set_timer(1.0, name="once")

    def on_timeout(self, name: str) -> None:
        super().on_timeout(name)
        if name == "once":
            try:
                self.env.cancel_timer(name="once")
                self.note("cancel-after-fire-ok")
            except Exception as exc:  # noqa: BLE001 - the defect under test
                self.note("cancel-after-fire-raised", repr(exc))


class _EchoComponent(ProcessComponent):
    """Replies ``("pong", x)`` to ``("ping", x)``; records everything."""

    def __init__(self, host: ObservingProcess, name: str = "echo"):
        super().__init__(host, name)

    def on_deliver(self, src: int, payload: Any) -> None:
        self.host.note("component-deliver", (src, payload))
        if isinstance(payload, tuple) and payload[0] == "ping":
            self.send(src, ("pong", payload[1]))

    def on_timeout(self, name: str) -> None:
        self.host.note("component-timeout", name)


class _EnvelopeProbe(ObservingProcess):
    """Exercises component routing: messages, replies and namespaced timers."""

    def __init__(self, pid: int, n: int, f: int, env):
        super().__init__(pid, n, f, env)
        self.echo = self.attach_component(_EchoComponent(self))

    def on_start(self) -> None:
        if self.pid == 1:
            self.echo.send(2, ("ping", "m1"))
            self.send(2, ("plain", "m2"))
            self.echo.set_timer(1.5, name="tick")


class _DecideOnceProbe(ObservingProcess):
    """Decides once, then verifies the second decide raises."""

    def on_start(self) -> None:
        self.env.decide(1)
        self.note("decided-first")
        try:
            self.env.decide(0)
            self.note("second-decide-accepted")
        except ProtocolViolationError:
            self.note("second-decide-raised")


class _MonotonicProbe(ObservingProcess):
    """Samples now() across timers and a message round-trip."""

    def on_start(self) -> None:
        self.note("sample")
        for index, at in enumerate((0.5, 1.2, 2.0)):
            self.set_timer(at, name=f"t{index}")
        if self.pid == 1:
            self.send(2, ("echo-request",))

    def on_timeout(self, name: str) -> None:
        self.note("sample")
        self.note("fire", name)

    def on_deliver(self, src: int, payload: Any) -> None:
        self.note("sample")
        if payload == ("echo-request",):
            self.send(src, ("echo-reply",))


class _SendManyProbe(ObservingProcess):
    """P1 broadcasts through ``send_many``: lists, a generator, a component."""

    def __init__(self, pid: int, n: int, f: int, env):
        super().__init__(pid, n, f, env)
        self.echo = self.attach_component(_EchoComponent(self))

    def on_start(self) -> None:
        if self.pid == 1:
            self.send_many([2, 3, 1, 2], ("batch", 1))  # self, and P2 twice
            self.send_many((pid for pid in (3, 2)), ("batch", 2))
            self.send_many([], ("batch", "nobody"))
            self.echo.broadcast(("note", "all"))


def _passive(pid: int, n: int, f: int, env) -> Process:
    return ObservingProcess(pid, n, f, env)


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
def _check_rearm(result: HarnessResult, tol: float) -> List[str]:
    probe = result.processes[1]
    fires = probe.of("timeout")
    if len(fires) != 1:
        return [f"timer-rearm: expected exactly one fire, saw {fires}"]
    _, name, at = fires[0]
    if name != "re":
        return [f"timer-rearm: unexpected timer name {name!r}"]
    if at < 2.5 - tol:
        return [
            f"timer-rearm: fired at {at:.3f} < 2.5 — the re-arm did not "
            "supersede the earlier deadline"
        ]
    return []


def _check_cancel(result: HarnessResult, tol: float) -> List[str]:
    probe = result.processes[1]
    fired = {name for _, name, _ in probe.of("timeout")}
    failures = []
    if "gone" in fired:
        failures.append("timer-cancel: a cancelled timer fired")
    if "sentinel" not in fired:
        failures.append("timer-cancel: the sentinel timer never fired")
    return failures


def _check_cancel_after_fire(result: HarnessResult, tol: float) -> List[str]:
    probe = result.processes[1]
    fires = [obs for obs in probe.of("timeout") if obs[1] == "once"]
    failures = []
    if len(fires) != 1:
        failures.append(
            f"timer-cancel-after-fire: expected one fire of 'once', saw {fires}"
        )
    if probe.of("cancel-after-fire-raised"):
        failures.append(
            "timer-cancel-after-fire: cancelling a fired timer raised "
            f"{probe.of('cancel-after-fire-raised')[0][1]}"
        )
    elif not probe.of("cancel-after-fire-ok"):
        failures.append("timer-cancel-after-fire: the probe never ran its cancel")
    return failures


def _check_envelope(result: HarnessResult, tol: float) -> List[str]:
    p1, p2 = result.processes[1], result.processes[2]
    failures = []
    # the ping must land in P2's component, not its main handler
    p2_component = [payload for _, (_, payload), _ in p2.of("component-deliver")]
    if ("ping", "m1") not in p2_component:
        failures.append("module-envelope: the component ping never reached P2.echo")
    if any(
        isinstance(payload, tuple) and payload[0] == "__mod__"
        for _, (_, payload), _ in p2.of("deliver")
    ):
        failures.append("module-envelope: an enveloped message leaked to on_deliver")
    # the main-channel message must land in P2's main handler
    p2_main = [payload for _, (_, payload), _ in p2.of("deliver")]
    if ("plain", "m2") not in p2_main:
        failures.append("module-envelope: the main-channel message never arrived")
    # the reply must come back to P1's component
    p1_component = [payload for _, (_, payload), _ in p1.of("component-deliver")]
    if ("pong", "m1") not in p1_component:
        failures.append("module-envelope: the component reply never reached P1.echo")
    # the namespaced timer must fire in the component, unprefixed
    if [name for _, name, _ in p1.of("component-timeout")] != ["tick"]:
        failures.append(
            "module-envelope: the component timer did not route to the "
            f"component (saw {p1.of('component-timeout')})"
        )
    return failures


def _check_decide_once(result: HarnessResult, tol: float) -> List[str]:
    probe = result.processes[1]
    failures = []
    if not probe.of("decided-first"):
        failures.append("decide-once: the first decide did not succeed")
    if probe.of("second-decide-accepted"):
        failures.append("decide-once: a second decide was silently accepted")
    elif not probe.of("second-decide-raised"):
        failures.append(
            "decide-once: the second decide raised something other than "
            "ProtocolViolationError"
        )
    if result.decisions.get(1) != 1:
        failures.append(
            f"decide-once: recorded decision is {result.decisions.get(1)!r}, "
            "expected the first value 1"
        )
    return failures


def _check_monotonic(result: HarnessResult, tol: float) -> List[str]:
    failures = []
    for pid in (1, 2):
        probe = result.processes[pid]
        samples = [at for _, _, at in probe.of("sample")]
        for earlier, later in zip(samples, samples[1:]):
            if later < earlier - 1e-9:
                failures.append(
                    f"now-monotonic: P{pid} observed now() go backwards "
                    f"({earlier:.4f} -> {later:.4f})"
                )
                break
    probe = result.processes[1]
    deadlines = {"t0": 0.5, "t1": 1.2, "t2": 2.0}
    for _, name, at in probe.of("fire"):
        deadline = deadlines.get(name)
        if deadline is not None and at < deadline - tol:
            failures.append(
                f"now-monotonic: timer {name} fired at {at:.4f}, "
                f"{deadline - at:.4f} units before its deadline {deadline}"
            )
    return failures


def _check_send_many(result: HarnessResult, tol: float) -> List[str]:
    failures = []
    note = ("component-deliver", ("note", "all"))
    expected = {
        # per destination, in the order P1 sent them
        1: [("deliver", ("batch", 1)), note],
        2: [("deliver", ("batch", 1)), ("deliver", ("batch", 1)),
            ("deliver", ("batch", 2)), note],
        3: [("deliver", ("batch", 1)), ("deliver", ("batch", 2)), note],
    }
    for pid, want in expected.items():
        got = [
            (kind, detail[1])
            for kind, detail, _ in result.processes[pid].observations
            if kind in ("deliver", "component-deliver") and detail[0] == 1
        ]
        if got != want:
            failures.append(
                f"send-many: P{pid} received {got} from P1, expected {want}"
            )
    counted = result.messages_by_module
    if counted is not None and counted != {"main": 5, "echo": 2}:
        failures.append(
            "send-many: counted messages per module are "
            f"{dict(sorted(counted.items()))}, expected main=5 (the message "
            "to self is not counted) and echo=2"
        )
    return failures


@dataclass(frozen=True)
class Scenario:
    """One conformance scenario: probe factories plus a result checker."""

    name: str
    factories: Dict[int, Callable[[int, int, int, Any], Process]]
    check: Callable[[HarnessResult, float], List[str]]
    n: int = 2
    f: int = 1


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("timer-rearm", {1: _RearmProbe, 2: _passive}, _check_rearm),
    Scenario("timer-cancel", {1: _CancelProbe, 2: _passive}, _check_cancel),
    Scenario(
        "timer-cancel-after-fire",
        {1: _CancelAfterFireProbe, 2: _passive},
        _check_cancel_after_fire,
    ),
    Scenario("module-envelope", {1: _EnvelopeProbe, 2: _EnvelopeProbe}, _check_envelope),
    Scenario("decide-once", {1: _DecideOnceProbe, 2: _passive}, _check_decide_once),
    Scenario("now-monotonic", {1: _MonotonicProbe, 2: _MonotonicProbe}, _check_monotonic),
    Scenario(
        "send-many",
        {1: _SendManyProbe, 2: _SendManyProbe, 3: _SendManyProbe},
        _check_send_many,
        n=3,
    ),
)


def run_scenario(harness: EnvHarness, scenario: Scenario) -> List[str]:
    """Run one scenario on one harness; returns its failures."""
    result = harness.run(
        dict(scenario.factories),
        scenario.n,
        scenario.f,
        duration_units=SCENARIO_DURATION_UNITS,
    )
    tolerance = getattr(harness, "tolerance_units", 0.0)
    failures = list(scenario.check(result, tolerance))
    failures.extend(
        f"{scenario.name}: unexpected handler error: {error}"
        for error in result.errors
    )
    return [f"[{harness.name}] {failure}" for failure in failures]


def run_conformance(harness: EnvHarness) -> List[str]:
    """Run every scenario; an empty return means the contract holds."""
    failures: List[str] = []
    for scenario in SCENARIOS:
        failures.extend(run_scenario(harness, scenario))
    return failures


# --------------------------------------------------------------------------- #
# the simulator harness (the reference implementation)
# --------------------------------------------------------------------------- #
class SimHarness:
    """Drives probes on the discrete-event scheduler (exact timing)."""

    name = "sim"
    tolerance_units = 0.0

    def __init__(self, seed: int = 0):
        self.seed = seed

    def run(
        self,
        factories: Dict[int, Callable[[int, int, int, Any], Process]],
        n: int,
        f: int,
        *,
        duration_units: float,
        proposals: Optional[Dict[int, Any]] = None,
    ) -> HarnessResult:
        from repro.sim.runner import Scheduler

        scheduler = Scheduler(n=n, f=f, seed=self.seed, max_time=duration_units)
        for pid in range(1, n + 1):
            factory = factories.get(pid, _passive)
            scheduler.bind_process(pid, factory(pid, n, f, scheduler.env_for(pid)))
        for pid in range(1, n + 1):
            scheduler.processes[pid].on_start()
        for pid, value in (proposals or {}).items():
            scheduler.post_propose(pid, value)
        trace = scheduler.run()
        return HarnessResult(
            processes=dict(scheduler.processes),
            decisions={pid: rec.value for pid, rec in trace.decisions.items()},
            messages_by_module=trace.module_histogram(),
        )


__all__ = [
    "EnvHarness",
    "HarnessResult",
    "ObservingProcess",
    "SCENARIOS",
    "SCENARIO_DURATION_UNITS",
    "Scenario",
    "SimHarness",
    "run_conformance",
    "run_scenario",
]
