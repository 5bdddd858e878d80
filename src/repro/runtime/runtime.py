"""The asyncio runtime: wall-clock host for unmodified protocol processes.

:class:`AsyncRuntime` owns everything the simulator's :class:`Scheduler` owns
— processes, events, deadlines, the execution record, crash injection — but
on the event loop and the wall clock.  One unit of simulated time ``U`` maps
to ``unit`` seconds (default 20 ms), chosen so that protocol timers (a few U)
dwarf a turn of the loop (~0.1 ms): in fault-free runs decisions are driven
by message flow exactly as in the paper's nice executions, while timeout
paths remain reachable by shrinking ``unit`` or injecting link delays.

**One event queue.**  Handlers are synchronous functions on one thread, so
"one event at a time per process" needs no task per process: every delivery,
timer expiry, proposal and ``call`` is a ``(pid, kind, ...)`` tuple in one
FIFO, and one dispatcher — a ``loop.call_soon`` callback — handles, in queue
order, the events that were queued when its turn began.  What those handlers
queue waits for the next turn, so a handler never nests inside another and
loop timers and client coroutines interleave between turns.

**One deadline table.**  ``key -> (token, handle)`` holds every
``loop.call_later`` handle that is armed right now: a named timer under
``(pid, name)``, a delayed delivery or a scheduled callback (a fault plan's
crash or rejoin time) as a one-shot under ``(None, token)``.  Tokens come
from one counter and are never reused.  A timer's handle queues its expiry,
and the dispatcher takes it — drops the entry, calls the handler — only if
its token is still the armed one, so a rearm or cancel that raced with the
queue supersedes it and a cancel-then-rearm cannot be mistaken for the stale
expiry.  ``recover()`` walks the crashed pid's entries, ``stop()`` cancels
what is left in one loop; the simulator states the same token rule over its
bucket queue.  ``docs/runtime.md`` ("The deadline table") has the cases.

``decide`` routes through :meth:`record_decision`, which raises
:class:`~repro.errors.ProtocolViolationError` on a second decision from the
same process, as the simulator does, and writes ``runtime.trace`` — the one
execution record (``docs/runtime.md``, "What the runtime records").

This module deliberately reads the wall clock (``time.monotonic``); the lint
suite's determinism rule DET002 is *scoped out* of ``src/repro/runtime/``
(see :mod:`repro.lint.rules`) because wall-clock time is this package's whole
purpose, not an accident.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.env import Process
from repro.errors import ConfigurationError, ProtocolViolationError, SimulationError
from repro.runtime.node import AsyncEnv
from repro.runtime.transport import LinkPolicy, LocalTransport
from repro.sim.trace import CounterTrace

ProcessFactory = Callable[[int, int, int, AsyncEnv], Process]

#: default wall-clock seconds per unit of simulated time U
DEFAULT_UNIT_SECONDS = 0.02


class AsyncRuntime:
    """Hosts ``n`` protocol processes on the asyncio event loop."""

    def __init__(
        self,
        n: int,
        f: int,
        *,
        unit: float = DEFAULT_UNIT_SECONDS,
        seed: int = 0,
        transport: Optional[LocalTransport] = None,
        metrics: Optional[Any] = None,
    ):
        if n < 2:
            raise ConfigurationError(f"need at least 2 processes, got n={n}")
        if not 1 <= f <= n - 1:
            raise ConfigurationError(f"need 1 <= f <= n-1, got f={f} for n={n}")
        if unit <= 0:
            raise ConfigurationError(f"unit must be positive, got {unit}")
        self.n = n
        self.f = f
        self.unit = unit
        self.seed = seed
        #: optional duck-typed telemetry sink (``inc``/``observe``), handed in
        #: by the hosting service — this module never imports the obs package
        self.metrics = metrics
        #: the execution record, times in units of U
        self.trace = CounterTrace(n=n, f=f)
        self.transport = transport or LocalTransport(unit=unit, seed=seed)
        # outage windows are in units since start: the transport reads the
        # timers' clock, and hands what survived its link to the one queue
        self.transport.now_units = self.now_units
        self.transport.arrive = self._arrive
        self.transport.trace = self.trace
        self.envs: Dict[int, AsyncEnv] = {
            pid: AsyncEnv(self, pid) for pid in range(1, n + 1)
        }
        self.processes: Dict[int, Process] = {}
        #: pids currently down (liveness; ``trace.crashes`` is the history)
        self._down: Set[int] = set()
        self.errors: List[Tuple[int, BaseException]] = []
        #: the one FIFO of ``(pid, kind, a, b)`` events awaiting the
        #: dispatcher; a turn is scheduled on the loop iff it is non-empty
        self._events: Deque[tuple] = deque()
        #: key -> (token, handle) of every loop handle armed and not yet spent:
        #: ``(pid, name)`` for a timer (kept until its expiry is handled),
        #: ``(None, token)`` for a one-shot (delayed delivery, scheduled callback)
        self._timers: Dict[tuple, Tuple[int, asyncio.TimerHandle]] = {}
        self._tokens = itertools.count(1)
        #: correct processes yet to decide: a cache of the record, not a fact
        self._undecided_correct = n
        self._all_decided = asyncio.Event()
        self._t0: Optional[float] = None
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def bind_processes(self, factory: ProcessFactory) -> None:
        """Create one process per id using ``factory(pid, n, f, env)``."""
        for pid in range(1, self.n + 1):
            self.bind_process(pid, factory(pid, self.n, self.f, self.envs[pid]))

    def bind_process(self, pid: int, process: Process) -> None:
        if not 1 <= pid <= self.n:
            raise ConfigurationError(f"pid {pid} out of range 1..{self.n}")
        self.processes[pid] = process

    def env_for(self, pid: int) -> AsyncEnv:
        return self.envs[pid]

    async def start(self) -> None:
        """Start the wall clock."""
        if self._t0 is not None:
            raise ConfigurationError("runtime already started")
        if len(self.processes) != self.n:
            raise ConfigurationError(
                f"bound {len(self.processes)} of {self.n} processes; "
                "call bind_processes() first"
            )
        self._t0 = time.monotonic()

    async def stop(self) -> None:
        """Handle what is already queued, cancel every deadline, go quiet.

        Batch runs and the invariant battery read the state the queued events
        leave; what their handlers queue or arm is dropped with the rest, and
        from here on a post or an arm is inert.
        """
        self._dispatch()
        self._stopped = True
        self.trace.end_time = self.now_units()
        self.trace.metadata["execution_class"] = self.execution_class()
        for _, handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._events.clear()

    # ------------------------------------------------------------------ #
    # the clock
    # ------------------------------------------------------------------ #
    def now_units(self) -> float:
        """Wall-clock time since start(), in units of U (0.0 before start)."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self.unit

    # ------------------------------------------------------------------ #
    # the event queue and its dispatcher
    # ------------------------------------------------------------------ #
    def _post(self, event: tuple) -> None:
        if self._stopped:
            return
        if not self._events:
            asyncio.get_running_loop().call_soon(self._dispatch)
        self._events.append(event)

    def _dispatch(self) -> None:
        """One turn: handle, in queue order, the events queued when it began."""
        # what their handlers post starts a fresh queue, hence the next turn
        events, self._events = self._events, deque()
        for pid, kind, a, b in events:
            if pid in self._down:
                continue  # losing in-crash traffic is the point
            try:
                process = self.processes[pid]
                if kind == "deliver":
                    process.deliver(a, b)
                elif kind == "timer":
                    # Re-check the token at handling time: a rearm or cancel
                    # that happened while this expiry sat in the queue
                    # supersedes it.
                    armed = self._timers.get((pid, a))
                    if armed is not None and armed[0] == b:
                        del self._timers[(pid, a)]
                        process.timeout(a)
                elif kind == "propose":
                    self.trace.record_proposal(pid, a, self.now_units())
                    process.on_propose(a)
                else:  # "call"
                    a(process)
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                self.record_error(pid, exc)

    def propose(self, pid: int, value: Any) -> None:
        self._post((pid, "propose", value, None))

    def call(self, pid: int, fn: Callable[[Process], None]) -> None:
        """Run ``fn(process)`` from the queue (serialised with handlers)."""
        self._post((pid, "call", fn, None))

    def _arrive(self, src: int, dst: int, payload: Any, delay_units: float) -> None:
        """The transport's arrival hook: a message that survived its link."""
        if dst not in self.processes:
            raise SimulationError(f"message to unknown process P{dst}")
        if src in self._down or dst in self._down:
            return  # a crash silences a process both ways
        event = (dst, "deliver", src, payload)
        if delay_units > 0:
            # lost like any event if its destination is down when it lands
            self._arm(None, delay_units, self._spend, dst, self._post, event)
        else:
            self._post(event)

    # ------------------------------------------------------------------ #
    # the deadline table (token-superseded loop handles, simulator semantics)
    # ------------------------------------------------------------------ #
    def _arm(
        self, key: Any, delay_units: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Arm ``callback(token, *args)`` under ``key`` (None: a one-shot's own)."""
        if self._stopped:
            return
        token = next(self._tokens)
        handle = asyncio.get_running_loop().call_later(
            max(0.0, delay_units) * self.unit, callback, token, *args
        )
        self._timers[(None, token) if key is None else key] = (token, handle)

    def set_timer(self, pid: int, at_units: float, name: str) -> None:
        key = (pid, name)
        armed = self._timers.get(key)
        if armed is not None:
            armed[1].cancel()
        if self.metrics is not None:
            self.metrics.inc(
                "runtime.timer_set" if armed is None else "runtime.timer_rearm"
            )
        self._arm(key, at_units - self.now_units(), self._expire, pid, name)

    def cancel_timer(self, pid: int, name: str) -> None:
        armed = self._timers.pop((pid, name), None)
        if armed is not None:
            armed[1].cancel()
            if self.metrics is not None:
                self.metrics.inc("runtime.timer_cancel")

    def call_at(
        self, at_units: float, fn: Callable[..., None], pid: int, *args: Any
    ) -> None:
        """Run ``fn(pid, *args)`` on the loop at ``at_units`` (at once if past).

        A one-shot deadline of the runtime itself, not an event of a process:
        it runs between dispatcher turns (also while ``pid`` is down: a
        planned rejoin), and ``stop()`` cancels it.  A raise lands in
        ``errors`` under ``pid``, like a handler's.
        """
        self._arm(None, at_units - self.now_units(), self._spend, pid, fn, pid, *args)

    def _expire(self, token: int, pid: int, name: str) -> None:
        """An armed timer's handle ran: route the expiry through the queue."""
        # a superseded handle was cancelled and never gets here, so the entry
        # is this token's; nobody would take it for a pid that is down
        if pid in self._down:
            del self._timers[(pid, name)]
        else:
            self._post((pid, "timer", name, token))

    def _spend(self, token: int, pid: int, fn: Callable[..., None], *args: Any) -> None:
        """A one-shot's handle ran: drop its entry, then do what it was for."""
        del self._timers[(None, token)]
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self.record_error(pid, exc)

    # ------------------------------------------------------------------ #
    # decisions, crashes, errors
    # ------------------------------------------------------------------ #
    def record_decision(self, pid: int, value: Any) -> None:
        trace = self.trace
        if pid in trace.decisions:
            raise ProtocolViolationError(
                f"P{pid} attempted to decide twice "
                f"({trace.decisions[pid].value!r} then {value!r})"
            )
        trace.record_decision(pid, value, self.now_units())
        if pid not in trace.crashes:
            self._one_correct_fewer_undecided()

    def crash(self, pid: int) -> None:
        """Crash ``pid`` now: silence its links and stop handling its events."""
        if pid in self._down:
            return
        # the record keeps the first crash only: history, never un-recorded
        # by recovery (a recovered pid never re-enters the correct set)
        if pid not in self.trace.crashes:
            self.trace.record_crash(pid, self.now_units())
            if pid not in self.trace.decisions:
                self._one_correct_fewer_undecided()
        self._down.add(pid)
        process = self.processes.get(pid)
        if process is not None and not process.crashed:
            process.crashed = True
            process.on_crash()

    def is_down(self, pid: int) -> bool:
        """Whether ``pid`` is currently crashed (and not yet recovered)."""
        return pid in self._down

    def recover(self, pid: int, process: Optional[Process] = None) -> None:
        """Rejoin a crashed pid with ``process`` (default: the crashed object).

        Timer-safe restart: every timer the previous incarnation still has
        armed is cancelled and dropped before the replacement process is
        bound, so no stale expiry — scheduled or already queued — can fire
        into the new one.  Traffic sent while the pid was down stays lost
        (at-most-once under faults).  The pid stays in ``trace.crashes``:
        recovery restores liveness, not the correctness accounting.
        ``on_recover()`` runs from the queue, serialised like any other event.
        """
        if pid not in self._down:
            raise ConfigurationError(f"P{pid} is not crashed; nothing to recover")
        replacement = process if process is not None else self.processes[pid]
        for key in [key for key in self._timers if key[0] == pid]:
            self._timers.pop(key)[1].cancel()
        self._down.discard(pid)
        replacement.crashed = False
        self.processes[pid] = replacement
        self.trace.record_recovery(pid, self.now_units())
        self.call(pid, lambda p: p.on_recover())

    def _one_correct_fewer_undecided(self) -> None:
        self._undecided_correct -= 1
        if self._undecided_correct == 0:
            self._all_decided.set()

    def execution_class(self) -> str:
        """``Scheduler.execution_class()``'s rule over what this run observed:
        a drop or a link able to delay past U, else a recorded crash."""
        if self.transport.dropped or self.transport.worst_case_delay_units() > 1.0:
            return "network-failure"
        if self.trace.crashes:
            return "crash-failure"
        return "failure-free"

    def record_error(self, pid: int, exc: BaseException) -> None:
        self.errors.append((pid, exc))
        # A handler fault must not hang run_commit forever: surface it.
        self._all_decided.set()

    async def wait_all_correct_decided(self, timeout_units: float) -> bool:
        """Wait until every non-crashed process decided.  True iff it happened."""
        try:
            await asyncio.wait_for(
                self._all_decided.wait(), timeout=timeout_units * self.unit
            )
        except asyncio.TimeoutError:
            return False
        return self._undecided_correct == 0


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
    link_policy: Optional[LinkPolicy] = None,
    crash_at: Optional[Dict[int, float]] = None,
    protocol_kwargs: Optional[Dict[str, Any]] = None,
) -> CommitRunResult:
    """Run one commit instance of ``protocol`` on the asyncio runtime.

    ``protocol`` is a registry name (``"2PC"``, ``"INBAC"``, ...) or a
    :class:`~repro.env.Process` subclass; the class is used *unmodified* —
    the same object the simulator executes.  ``crash_at`` maps pids to crash
    times in units of U.  Returns a :class:`CommitRunResult`; ``timed_out``
    is True when some correct process had not decided within
    ``timeout_units`` (plus the worst configured link delay).
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
        transport = LocalTransport(unit=unit, seed=seed)
        if link_policy is not None:
            transport.set_default_policy(link_policy)
        runtime = AsyncRuntime(n, f, unit=unit, seed=seed, transport=transport)
        runtime.trace.protocol = label
        runtime.bind_processes(lambda pid, nn, ff, env: cls(pid, nn, ff, env, **kwargs))
        await runtime.start()
        for pid in range(1, n + 1):
            runtime.call(pid, lambda process: process.on_start())
        for pid, vote in enumerate(votes, start=1):
            runtime.propose(pid, vote)
        for pid in sorted(crash_at or {}):
            runtime.call_at(crash_at[pid], runtime.crash, pid)
        budget = timeout_units + transport.worst_case_delay_units()
        decided = await runtime.wait_all_correct_decided(budget)
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
