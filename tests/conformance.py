"""Executable conformance suite for the :class:`~repro.env.ProcessEnv` contract.

The contract in :mod:`repro.env` is stated in prose; this module makes it
executable.  A scenario is one run: :meth:`Scenario.simulation` is a
:class:`~repro.sim.runner.Simulation` of its probe processes (a factory per
pid), with no proposals, for :data:`SCENARIO_DURATION_UNITS` units of time.
A *leg* runs it — ``run(simulation, votes) -> SimulationResult`` — and the
checkers read the live process objects and the execution record (a
``Trace``) off the result.  :meth:`Simulation.run
<repro.sim.runner.Simulation.run>` is the reference leg, and
:func:`repro.runtime.run_paced` paces the same run on the asyncio runtime, so
both drive exactly the same probes through :func:`run_conformance`; the
scenarios cover the clauses runtimes most easily get wrong:

* ``timer-rearm`` — re-arming a pending timer supersedes it (one fire, at the
  last requested deadline);
* ``timer-cancel`` — a cancelled timer never fires;
* ``timer-cancel-after-fire`` — cancelling a fired timer is a silent no-op;
* ``timer-cancel-then-rearm`` — a cancel followed by a re-arm of the same
  name fires once, at the new deadline;
* ``timer-past-deadline`` — a deadline already past fires once, as soon as
  possible, never before the handler that armed it returned;
* ``module-envelope`` — component messages route to the peer component,
  main-channel messages to the process, component timers to the component;
* ``decide-once`` — the second ``decide`` raises
  :class:`~repro.errors.ProtocolViolationError` and the first value sticks;
* ``now-monotonic`` — ``now()`` never goes backwards and timers never fire
  early;
* ``send-many`` — ``send_many`` is the loop of ``send`` it is defined as: each
  listed destination gets the payload once per listing, a link delivers in
  send order, the message to self arrives and is not counted, and a
  component's broadcast keeps its module tag;
* ``self-send-deferred`` — a send to self made inside a handler is handled
  after that handler returns, in send order, and is not counted.

``run_conformance(run)`` returns a list of human-readable failures; an empty
list means the runtime honours the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.env import Process, ProcessComponent
from repro.errors import ProtocolViolationError
from repro.sim.runner import Simulation, SimulationResult

#: how long every scenario runs, in units of U — all probe timers fire
#: strictly before this horizon
SCENARIO_DURATION_UNITS = 4.0

#: a leg: runs a scenario's simulation with the given votes on one runtime
Leg = Callable[[Simulation, Dict[int, Any]], SimulationResult]


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


class _CancelRearmProbe(ObservingProcess):
    """Arms a timer at 1.0, cancels it, then arms the same name at 2.0."""

    def on_start(self) -> None:
        self.set_timer(1.0, name="t")
        self.env.cancel_timer(name="t")
        self.set_timer(2.0, name="t")


class _PastDeadlineProbe(ObservingProcess):
    """From inside a handler: a deadline already past, and one 1 U ahead."""

    def on_start(self) -> None:
        self.set_timer(1.0, name="go")

    def on_timeout(self, name: str) -> None:
        super().on_timeout(name)
        if name == "go":
            self.set_timer(self.now() - 0.5, name="past")
            self.set_timer(self.now() + 1.0, name="later")
            self.note("handler-end")


class _SelfSendProbe(ObservingProcess):
    """From inside a timer handler, P1 sends to itself twice and to P2 once."""

    def on_start(self) -> None:
        if self.pid == 1:
            self.set_timer(1.0, name="go")

    def on_timeout(self, name: str) -> None:
        self.send(self.pid, ("self", 1))
        self.send(2, ("peer",))
        self.send_many([self.pid], ("self", 2))
        self.note("handler-end")


class _EchoComponent(ProcessComponent):
    """Replies ``("pong", x)`` to ``("ping", x)``; records everything."""

    def __init__(self, host: ObservingProcess):
        super().__init__(host, "echo")

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
def _observes(
    scenario: str,
    rule: str,
    want: List[Tuple[str, Any]],
    *,
    deadlines: Optional[Dict[str, float]] = None,
    counted: Optional[Dict[str, int]] = None,
) -> Callable[[SimulationResult], List[str]]:
    """Checker: P1's ``(kind, detail)`` observations are exactly ``want``.

    In order, nothing more — one comparison for "fires once", "never fires"
    and "after the handler returned".  ``deadlines``: timer name -> the time
    it must not fire before; ``counted``: the per-module tally to report.
    """

    def check(result: SimulationResult) -> List[str]:
        observations = result.processes[1].observations
        seen = [(kind, detail) for kind, detail, _ in observations]
        failures = []
        if seen != want:
            failures.append(f"P1 observed {seen}, expected {want} — {rule}")
        for kind, name, at in observations:
            deadline = (deadlines or {}).get(name) if kind == "timeout" else None
            if deadline is not None and at < deadline:
                failures.append(
                    f"timer {name!r} fired at {at:.3f} < {deadline} — the "
                    "last arm did not supersede the earlier deadline"
                )
        tally = result.trace.module_histogram()
        if counted is not None and tally != counted:
            failures.append(
                f"counted messages per module are {dict(sorted(tally.items()))}, "
                f"expected {counted} (a message to self is not counted)"
            )
        return [f"{scenario}: {failure}" for failure in failures]

    return check


def _check_envelope(result: SimulationResult) -> List[str]:
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


def _check_decide_once(result: SimulationResult) -> List[str]:
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
    recorded = result.decisions().get(1)
    if recorded != 1:
        failures.append(
            f"decide-once: recorded decision is {recorded!r}, "
            "expected the first value 1"
        )
    return failures


def _check_monotonic(result: SimulationResult) -> List[str]:
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
        if deadline is not None and at < deadline:
            failures.append(
                f"now-monotonic: timer {name} fired at {at:.4f}, "
                f"{deadline - at:.4f} units before its deadline {deadline}"
            )
    return failures


def _check_send_many(result: SimulationResult) -> List[str]:
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
    counted = result.trace.module_histogram()
    if counted != {"main": 5, "echo": 2}:
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
    check: Callable[[SimulationResult], List[str]]
    n: int = 2
    f: int = 1

    def simulation(self) -> Simulation:
        """The scenario as one run: each pid's probe, for the whole horizon."""
        factories = self.factories
        return Simulation(
            self.n,
            self.f,
            process_factory=lambda pid, n, f, env: factories[pid](pid, n, f, env),
            max_time=SCENARIO_DURATION_UNITS,
            stop_when_all_correct_decided=False,
        )


def _observing(name: str, probe: Any, rule: str, want: list, **expect: Any) -> Scenario:
    return Scenario(name, {1: probe, 2: _passive}, _observes(name, rule, want, **expect))


SCENARIOS: Tuple[Scenario, ...] = (
    _observing(
        "timer-rearm", _RearmProbe,
        "re-arming supersedes: one fire, at the last deadline",
        [("timeout", "re")], deadlines={"re": 2.5},
    ),
    _observing(
        "timer-cancel", _CancelProbe,
        "a cancelled timer never fires, the sentinel does",
        [("timeout", "sentinel")],
    ),
    _observing(
        "timer-cancel-after-fire", _CancelAfterFireProbe,
        "one fire, and cancelling the fired timer is a silent no-op",
        [("timeout", "once"), ("cancel-after-fire-ok", None)],
    ),
    _observing(
        "timer-cancel-then-rearm", _CancelRearmProbe,
        "a cancel then a re-arm fires once, at the new deadline",
        [("timeout", "t")], deadlines={"t": 2.0},
    ),
    _observing(
        "timer-past-deadline", _PastDeadlineProbe,
        "a deadline already past fires once, after the handler that armed "
        "it returned and ahead of a deadline 1 U later",
        [("timeout", "go"), ("handler-end", None),
         ("timeout", "past"), ("timeout", "later")],
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
    _observing(
        "self-send-deferred", _SelfSendProbe,
        "a self-send is handled after the sending handler returns, in send order",
        [("handler-end", None),
         ("deliver", (1, ("self", 1))), ("deliver", (1, ("self", 2)))],
        counted={"main": 1},
    ),
)


def run_scenario(scenario: Scenario, run: Leg = Simulation.run) -> List[str]:
    """Run one scenario on one leg (default: the simulator); its failures."""
    result = run(scenario.simulation(), {})
    failures = list(scenario.check(result))
    # what the asyncio runtime caught instead of letting it raise
    failures.extend(
        f"{scenario.name}: unexpected handler error: P{pid}: {exc!r}"
        for pid, exc in getattr(result.scheduler, "errors", ())
    )
    return failures


def run_conformance(run: Leg = Simulation.run) -> List[str]:
    """Run every scenario; an empty return means the contract holds."""
    failures: List[str] = []
    for scenario in SCENARIOS:
        failures.extend(run_scenario(scenario, run))
    return failures


__all__ = [
    "ObservingProcess",
    "SCENARIOS",
    "SCENARIO_DURATION_UNITS",
    "Scenario",
    "run_conformance",
    "run_scenario",
]
