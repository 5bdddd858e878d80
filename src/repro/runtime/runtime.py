"""The asyncio runtime: the simulator's kernel, paced by the wall clock.

:class:`AsyncRuntime` *is* a :class:`~repro.sim.runner.Scheduler` — the same
event queue, the same token table of armed timers, the same per-kind dispatch
in :meth:`Scheduler.run <repro.sim.runner.Scheduler.run>` (not overridden),
the same crash and rejoin entries and the same execution record, a
counters-level :class:`~repro.sim.trace.CounterTrace` — whose ``max_time`` is
the wall clock.  One unit of time ``U`` maps to ``unit`` seconds (default
20 ms), chosen so that protocol timers (a few U) dwarf a turn of the loop
(~0.1 ms).

**One wake-up handle.**  One loop handle is armed, for the earliest queued
time.  When it fires, the runtime sets ``max_time`` to the wall clock in U and
re-enters ``run()``: everything due by then is handled in ``(time, kind, post
order)``, and a handler's ``now()`` is its event's own time, exactly as on the
simulator.  A loop that stalled handles its overdue events late but in the
same order and with the same stamps, so a stall changes *when* a run decides
on the wall clock, not *what* it decides.

**Where events come from.**  One network model serves both backends: a
handler's send is posted by :meth:`Scheduler.send_many
<repro.sim.runner.Scheduler.send_many>` as a delivery at the kernel's time
plus what the delay model draws — by default a zero-delay
:class:`~repro.sim.network.LinkDelay`, so links deliver at once; a slow or
partitioned link is a late message, never a lost one.  A timer is an entry in
the kernel's token table; a fault plan's crashes and rejoins and a schedule
controller's decisions are the kernel's own.  A call from outside every
handler (:meth:`propose`, :meth:`call`) is an entry stamped with the loop
step's *instant*: every outside post made before the handle next fires is
stamped with the same one, so what a caller posts together is handled
together, in kind order — a zero-delay vote cannot overtake the next
proposal.  :meth:`crash` and :meth:`rejoin` post their entry at the instant
and run the kernel up to it at once; from inside a handler they are refused.
A handler that raises lands in :attr:`errors` under its pid.

This module deliberately reads the wall clock (``time.monotonic()``); the lint
suite's determinism rule DET002 is *scoped out* of ``src/repro/runtime/``
(see :mod:`repro.lint.rules`) because wall-clock time is this package's whole
purpose, not an accident.  Nothing under :mod:`repro.sim` reads it.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.env import Process
from repro.errors import ConfigurationError
from repro.sim.events import (
    PRIORITY_CALL,
    PRIORITY_CRASH,
    PRIORITY_DELIVERY,
    PRIORITY_RECOVER,
)
from repro.sim.faults import FaultPlan
from repro.sim.network import DelayModel, LinkDelay
from repro.sim.runner import ProcessFactory, Scheduler
from repro.sim.trace import CounterTrace

#: default wall-clock seconds per unit of simulated time U
DEFAULT_UNIT_SECONDS = 0.02


def _culprit(exc: BaseException) -> int:
    """The pid of the event ``Scheduler.run`` was handling when ``exc`` left it.

    Read off the run frame the traceback keeps (the frame after the one that
    caught ``exc``), so the kernel does no per-event bookkeeping for it.
    """
    local = exc.__traceback__.tb_next.tb_frame.f_locals
    entry = local["entry"]
    return entry[1] if local["kind"] == PRIORITY_DELIVERY else entry[0]


class AsyncRuntime(Scheduler):
    """Hosts ``n`` protocol processes on the asyncio event loop."""

    def __init__(
        self,
        n: int,
        f: int,
        *,
        unit: float = DEFAULT_UNIT_SECONDS,
        seed: int = 0,
        delay_model: Optional[DelayModel] = None,
        fault_plan: Optional[FaultPlan] = None,
        controller: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ):
        if unit <= 0:
            raise ConfigurationError(f"unit must be positive, got {unit}")
        if delay_model is None:
            delay_model = LinkDelay(seed=seed, metrics=metrics)
        # max_time is the wall clock, set before every run()
        super().__init__(
            n, f, delay_model=delay_model, fault_plan=fault_plan, seed=seed,
            max_time=0.0, trace_level="counters", controller=controller,
        )
        # the record stays bounded: a wall-clock tally keeps no receive times
        # (under jitter a receive-time digest would grow with every message)
        self._tally = self._tally_run
        self.unit = unit
        #: optional duck-typed telemetry sink (``inc``/``observe``), handed in
        #: by the hosting service — this module never imports the obs package
        self.metrics = metrics
        self.errors: List[Tuple[int, BaseException]] = []
        #: called with the pid after each crash, by hand or by plan (the
        #: hosting service reports it)
        self.on_crash: Optional[Callable[[int], None]] = None
        self._all_decided = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0: Optional[float] = None
        #: the one loop handle, and the kernel time it is armed for
        self._handle: Optional[asyncio.TimerHandle] = None
        self._wake_at = 0.0
        #: the current loop step's stamp for outside posts (None: none yet)
        self._instant: Optional[float] = None
        #: True while a handler runs: posts then need no wake-up, and a crash
        #: or rejoin would nest run()
        self._handling = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the wall clock at time 0 and run every ``on_start``."""
        if self._t0 is not None:
            raise ConfigurationError("runtime already started")
        if len(self.processes) != self.n:
            raise ConfigurationError(
                f"bound {len(self.processes)} of {self.n} processes; "
                "call bind_processes() first"
            )
        self._loop = asyncio.get_running_loop()
        self._t0 = time.monotonic()
        self._handling = True
        for pid in range(1, self.n + 1):
            try:
                self.processes[pid].on_start()
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                self.record_error(pid, exc)
        self._handling = False
        self._wake()

    async def stop(self) -> None:
        """Handle what is due, then go quiet.

        Batch runs and the invariant battery read the state the due events
        leave; from here on nothing is handled and no loop handle is live.
        """
        self._advance(self.now_units())
        self._closed = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self.trace.metadata["execution_class"] = self.execution_class()

    # ------------------------------------------------------------------ #
    # pacing: the wall clock is max_time
    # ------------------------------------------------------------------ #
    def now_units(self) -> float:
        """Wall-clock time since start(), in units of U (0.0 before start)."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self.unit

    def _wake(self) -> None:
        """Arm the one loop handle for the earliest queued time or open instant.

        Every post reaches it — an outside call, a timer, a run of counted
        messages — and while a handler runs it does nothing: the kernel
        re-arms once the run returns, so what a handler posts costs no
        loop handle.
        """
        if self._handling or self._closed or self._loop is None:
            return
        times = self._queue.times
        at = self._instant
        if times and (at is None or times[0] < at):
            at = times[0]
        if at is None:
            return
        if self._handle is not None:
            if self._wake_at <= at:
                return
            self._handle.cancel()
        self._wake_at = at
        self._handle = self._loop.call_later(
            self._t0 + at * self.unit - time.monotonic(), self._turn
        )

    def _turn(self) -> None:
        """The handle fired: the loop step's instant closes, what is due runs."""
        self._handle = None
        self._instant = None
        # a handle may fire up to the loop's clock resolution early
        self._advance(max(self.now_units(), self._wake_at))

    def _advance(self, until: float) -> None:
        """Run the kernel up to ``until`` (units of U), then re-arm."""
        if self._closed:
            return
        self.max_time = until
        self._handling = True
        while True:
            try:
                self.run()
                break
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                # the entry is consumed: the next run() resumes after it
                self.record_error(_culprit(exc), exc)
        self._handling = False
        if self._correct_pids is not None and not self._undecided_correct:
            self._all_decided.set()
        self._wake()

    # ------------------------------------------------------------------ #
    # calls from outside every handler
    # ------------------------------------------------------------------ #
    def _stamp(self) -> float:
        """This loop step's instant: the wall clock at its first outside post."""
        if self._instant is None:
            self._instant = max(self.now_units(), self.clock.now)
        return self._instant

    def propose(self, pid: int, value: Any) -> None:
        """Propose ``value`` at ``pid`` (from outside every handler)."""
        self.post_propose(pid, value, at=self._stamp())
        self._wake()

    def call(self, pid: int, fn: Callable[[Process], None]) -> None:
        """Run ``fn(process)`` as an event of ``pid`` (serialised with handlers)."""
        self._queue.push(self._stamp(), PRIORITY_CALL, (pid, fn))
        self._wake()

    def _refuse_nesting(self, pid: int, what: str) -> None:
        if self._handling:
            raise ConfigurationError(
                f"{what}(P{pid}) from inside a handler would nest the kernel's "
                f"run(); call it from outside every handler"
            )

    def crash(self, pid: int) -> None:
        """Crash ``pid`` now (from outside every handler): it handles nothing
        stamped from this instant on."""
        self._refuse_nesting(pid, "crash")
        if self.is_down(pid):
            raise ConfigurationError(f"P{pid} is already crashed")
        # not the plan's: classed like a controller's crash
        self._injected_crashes.add(pid)
        at = self._stamp()
        self._queue.push(at, PRIORITY_CRASH, (pid,))
        self._advance(at)

    def rejoin(self, pid: int) -> None:
        """Rejoin a crashed ``pid`` now (from outside every handler), with
        what the recovery factory builds.

        The kernel's :meth:`~repro.sim.runner.Scheduler.recover`: the old
        incarnation's timers are dropped, the replacement runs
        ``on_recover()``; traffic sent while the pid was down stays lost.
        """
        self._refuse_nesting(pid, "rejoin")
        if not self.is_down(pid):
            raise ConfigurationError(f"P{pid} is not crashed; nothing to recover")
        at = self._stamp()
        self._queue.push(at, PRIORITY_RECOVER, (pid,))
        self._advance(at)

    def is_down(self, pid: int) -> bool:
        """Whether ``pid`` is currently crashed (and not yet recovered)."""
        return self.processes[pid].crashed

    # ------------------------------------------------------------------ #
    # the kernel, where the runtime differs
    # ------------------------------------------------------------------ #
    def _tally_run(self, payload: Any, module: str, time: float, count: int) -> None:
        """The counters-level tally of one run of counted messages, without
        its receive time; a send from outside every handler wakes the kernel."""
        self.trace.record_send_batch(payload, module, None, count)
        self._wake()

    def set_timer(self, pid: int, at_units: float, name: str) -> None:
        if self.metrics is not None:
            armed = (pid, name) in self._timers
            self.metrics.inc("runtime.timer_rearm" if armed else "runtime.timer_set")
        super().set_timer(pid, at_units, name)
        self._wake()

    def cancel_timer(self, pid: int, name: str) -> None:
        if self.metrics is not None and (pid, name) in self._timers:
            self.metrics.inc("runtime.timer_cancel")
        super().cancel_timer(pid, name)

    def _crash(self, pid: int, time: float) -> None:
        # a planned crash of a pid crashed by hand is refused, not re-recorded
        if self.is_down(pid):
            raise ConfigurationError(f"P{pid} is already crashed")
        super()._crash(pid, time)
        if self.on_crash is not None:
            self.on_crash(pid)

    # ------------------------------------------------------------------ #
    # errors and waiting
    # ------------------------------------------------------------------ #
    def record_error(self, pid: int, exc: BaseException) -> None:
        self.errors.append((pid, exc))
        # A handler fault must not hang run_commit forever: surface it.
        self._all_decided.set()

    async def wait_all_correct_decided(self, timeout_units: float) -> bool:
        """Wait until every correct process decided; True iff it happened.

        Needs :meth:`~repro.sim.runner.Scheduler.stop_when_all_correct_decided`.
        """
        if self._undecided_correct:
            try:
                await asyncio.wait_for(
                    self._all_decided.wait(), timeout=timeout_units * self.unit
                )
            except asyncio.TimeoutError:
                return False
        return not self._undecided_correct


@dataclass
class CommitRunResult:
    """One :func:`run_commit` execution: the runtime's record, as a
    :class:`~repro.sim.runner.SimulationResult` carries the simulator's."""

    trace: CounterTrace
    unit: float
    timed_out: bool
    errors: List[str] = field(default_factory=list)

    @property
    def decisions(self) -> Dict[int, int]:
        return {pid: rec.value for pid, rec in self.trace.decisions.items()}

    @property
    def decision(self) -> Optional[int]:
        """The agreed decision, or None if absent or split (agreement breach)."""
        values = set(self.trace.decision_values())
        return values.pop() if len(values) == 1 else None

    @property
    def all_agree(self) -> bool:
        return len(set(self.trace.decision_values())) == 1


def run_commit(
    protocol: Any,
    n: int,
    f: int,
    votes: Sequence[int],
    *,
    unit: float = DEFAULT_UNIT_SECONDS,
    timeout_units: float = 200.0,
    seed: int = 0,
    delay_model: Optional[DelayModel] = None,
    crash_at: Optional[Dict[int, float]] = None,
    protocol_kwargs: Optional[Dict[str, Any]] = None,
) -> CommitRunResult:
    """Run one commit instance of ``protocol`` on the asyncio runtime.

    ``protocol`` is a registry name (``"2PC"``, ``"INBAC"``, ...) or a
    :class:`~repro.env.Process` subclass; the class is used *unmodified* —
    the same object the simulator executes.  The votes are proposed at time 0
    and ``crash_at`` (pid -> crash time in units of U) is the fault plan, as
    :meth:`Simulation.run <repro.sim.runner.Simulation.run>` has them;
    ``delay_model`` is the network, as it is the simulator's (default: links
    that deliver at once).  Returns a :class:`CommitRunResult`; ``timed_out``
    is True when some correct process had not decided within
    ``timeout_units``.
    """
    if isinstance(protocol, str):
        from repro.protocols.registry import get_protocol

        info = get_protocol(protocol)
        cls, label = info.cls, info.name
    else:
        cls, label = protocol, getattr(protocol, "__name__", str(protocol))
    if len(votes) != n:
        raise ConfigurationError(f"need {n} votes, got {len(votes)}")
    kwargs = dict(protocol_kwargs or {})

    async def _main() -> CommitRunResult:
        runtime = AsyncRuntime(
            n, f, unit=unit, seed=seed, delay_model=delay_model,
            fault_plan=FaultPlan(crashes=dict(crash_at or {})),
        )
        runtime.trace.protocol = label
        runtime.bind_processes(lambda pid, nn, ff, env: cls(pid, nn, ff, env, **kwargs))
        for pid, vote in enumerate(votes, start=1):
            runtime.post_propose(pid, vote)
        runtime.stop_when_all_correct_decided()
        await runtime.start()
        decided = await runtime.wait_all_correct_decided(timeout_units)
        await runtime.stop()
        return CommitRunResult(
            trace=runtime.trace,
            unit=unit,
            timed_out=not decided,
            errors=[f"P{pid}: {exc!r}" for pid, exc in runtime.errors],
        )

    return asyncio.run(_main())


__all__ = [
    "AsyncRuntime",
    "CommitRunResult",
    "DEFAULT_UNIT_SECONDS",
    "ProcessFactory",
    "run_commit",
]
