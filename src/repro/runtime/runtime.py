"""The asyncio runtime: wall-clock host for unmodified protocol processes.

:class:`AsyncRuntime` owns everything the simulator's :class:`Scheduler` owns
— processes, timers, the decide-once ledger, crash injection — but on the
event loop and the wall clock.  One unit of simulated time ``U`` maps to
``unit`` seconds (default 20 ms), chosen so that protocol timers (a few U)
dwarf the local queue hop (~0.1 ms): in fault-free runs decisions are driven
by message flow exactly as in the paper's nice executions, while timeout
paths remain reachable by shrinking ``unit`` or injecting link delays.

Timers reproduce the simulator's semantics on plain event-loop handles:

* ``set_timer`` (re-)arms the *named* timer to fire at an absolute time: one
  ``loop.call_later`` :class:`asyncio.TimerHandle` per armed timer, no task
  and no coroutine.  The timer table maps ``(pid, name)`` to the armed
  ``(token, handle)``; tokens are unique across the whole runtime.  Rearming
  cancels the superseded handle and stores a fresh token — rearm-before-fire
  supersedes, fires exactly once, at the new deadline.
* when the handle runs it puts ``("timer", name, token)`` into the node's
  inbox; the node's consumer *takes* the expiry (:meth:`AsyncRuntime.take_expiry`)
  when it dequeues it, which drops the table entry and tells it whether the
  token is still the armed one.  A rearm or cancel that happened while the
  expiry sat in the inbox therefore supersedes it — and because a token is
  never reused, a cancel followed by a re-arm cannot be mistaken for the
  stale expiry still queued.
* ``cancel_timer`` cancels the handle and drops the entry; cancelling a
  fired or never-armed timer finds no entry and is a no-op.  The table holds
  only armed timers (and expiries not yet handled), never one key per name
  ever used.
* a deadline in the past fires as soon as possible, never before the current
  handler returns (the expiry goes through the inbox like any other event).

``decide`` routes through :meth:`record_decision`, which raises
:class:`~repro.errors.ProtocolViolationError` on a second decision from the
same process — the same integrity enforcement the simulator applies.

This module deliberately reads the wall clock (``time.monotonic``); the lint
suite's determinism rule DET002 is *scoped out* of ``src/repro/runtime/``
(see :mod:`repro.lint.rules`) because wall-clock time is this package's whole
purpose, not an accident.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.env import Process
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.runtime.node import AsyncEnv, AsyncNode
from repro.runtime.transport import LinkPolicy, LocalTransport

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
        self.transport = transport or LocalTransport(unit=unit, seed=seed)
        self.envs: Dict[int, AsyncEnv] = {
            pid: AsyncEnv(self, pid) for pid in range(1, n + 1)
        }
        self.nodes: Dict[int, AsyncNode] = {}
        self.processes: Dict[int, Process] = {}
        self.decisions: Dict[int, Any] = {}
        self.decision_times: Dict[int, float] = {}
        #: pid -> first crash time; *history*, never un-recorded by recovery
        #: (a crashed-then-recovered pid stays out of correctness accounting)
        self.crashes: Dict[int, float] = {}
        #: pid -> last rejoin time
        self.recoveries: Dict[int, float] = {}
        #: pids currently down (liveness, as opposed to the crash history)
        self._down: Set[int] = set()
        self.errors: List[Tuple[int, BaseException]] = []
        #: (pid, name) -> (token, handle) of every armed timer whose expiry
        #: has not been handled yet
        self._timers: Dict[Tuple[int, str], Tuple[int, asyncio.TimerHandle]] = {}
        self._timer_tokens = itertools.count(1)
        self._undecided_correct = n
        self._all_decided = asyncio.Event()
        self._t0: Optional[float] = None
        self._started = False

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
        """Start the wall clock and one consumer task per process."""
        if self._started:
            raise ConfigurationError("runtime already started")
        if len(self.processes) != self.n:
            raise ConfigurationError(
                f"bound {len(self.processes)} of {self.n} processes; "
                "call bind_processes() first"
            )
        self._t0 = time.monotonic()
        self._started = True
        # outage windows on link policies are expressed in units since start;
        # give the transport the same time base the timers use
        self.transport.now_units = self.now_units
        for pid in range(1, self.n + 1):
            node = AsyncNode(pid, self)
            node.process = self.processes[pid]
            self.nodes[pid] = node
            self.transport.register(pid, node.inbox)
        for pid in range(1, self.n + 1):
            self.nodes[pid].start()

    async def stop(self) -> None:
        """Stop consumers, cancel pending timers and in-flight deliveries."""
        for _, handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        await self.transport.close()
        for pid in sorted(self.nodes):
            await self.nodes[pid].stop()

    # ------------------------------------------------------------------ #
    # the clock
    # ------------------------------------------------------------------ #
    def now_units(self) -> float:
        """Wall-clock time since start(), in units of U (0.0 before start)."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() - self._t0) / self.unit

    # ------------------------------------------------------------------ #
    # timers (token-superseded loop handles, simulator semantics)
    # ------------------------------------------------------------------ #
    def set_timer(self, pid: int, at_units: float, name: str) -> None:
        key = (pid, name)
        armed = self._timers.get(key)
        if armed is not None:
            armed[1].cancel()
        if self.metrics is not None:
            self.metrics.inc(
                "runtime.timer_set" if armed is None else "runtime.timer_rearm"
            )
        token = next(self._timer_tokens)
        delay_units = max(0.0, at_units - self.now_units())
        handle = asyncio.get_running_loop().call_later(
            delay_units * self.unit, self._expire, pid, name, token
        )
        self._timers[key] = (token, handle)

    def cancel_timer(self, pid: int, name: str) -> None:
        armed = self._timers.pop((pid, name), None)
        if armed is not None:
            armed[1].cancel()
            if self.metrics is not None:
                self.metrics.inc("runtime.timer_cancel")

    def _expire(self, pid: int, name: str, token: int) -> None:
        """The armed handle ran: route the expiry through the node's inbox.

        A superseded handle was cancelled and never gets here; the node
        re-checks the token at handling time (:meth:`take_expiry`) so a
        rearm/cancel racing with the inbox still supersedes this expiry.
        """
        node = self.nodes.get(pid)
        if node is None or pid in self._down:
            del self._timers[(pid, name)]
            return
        node.inbox.put_nowait(("timer", name, token))

    def take_expiry(self, pid: int, name: str, token: int) -> bool:
        """Whether a dequeued expiry is still the armed one; consumes it if so."""
        key = (pid, name)
        armed = self._timers.get(key)
        if armed is None or armed[0] != token:
            return False
        del self._timers[key]
        return True

    # ------------------------------------------------------------------ #
    # decisions, crashes, errors
    # ------------------------------------------------------------------ #
    def record_decision(self, pid: int, value: Any) -> None:
        if pid in self.decisions:
            raise ProtocolViolationError(
                f"P{pid} attempted to decide twice "
                f"({self.decisions[pid]!r} then {value!r})"
            )
        self.decisions[pid] = value
        self.decision_times[pid] = self.now_units()
        if pid not in self.crashes:
            self._undecided_correct -= 1
            if self._undecided_correct == 0:
                self._all_decided.set()

    def crash(self, pid: int) -> None:
        """Crash ``pid`` now: silence its links and stop handling its events."""
        if pid in self._down:
            return
        first = pid not in self.crashes
        if first:
            self.crashes[pid] = self.now_units()
        self._down.add(pid)
        process = self.processes.get(pid)
        if process is not None and not process.crashed:
            process.crashed = True
            process.on_crash()
        self.transport.crash(pid)
        # correctness accounting charges only the first crash: a recovered
        # pid never re-enters the correct set, so a re-crash changes nothing
        if first and pid not in self.decisions:
            self._undecided_correct -= 1
            if self._undecided_correct == 0:
                self._all_decided.set()

    def is_down(self, pid: int) -> bool:
        """Whether ``pid`` is currently crashed (and not yet recovered)."""
        return pid in self._down

    def recover(self, pid: int, process: Optional[Process] = None) -> None:
        """Rejoin a crashed pid with ``process`` (default: the crashed object).

        Timer-safe restart of the actor loop: every timer the previous
        incarnation still has armed is cancelled and dropped before the
        replacement process is bound, so no stale expiry — scheduled or
        already queued in the inbox — can fire into the new one; the node's
        consumer task never exited (it skips events while crashed — losing
        in-crash traffic is the point), so rebinding the process and
        re-opening the transport resumes service.  The pid stays in
        ``crashes``: recovery restores liveness, not the correctness
        accounting.  ``on_recover()`` runs on the node's consumer, serialised
        with handlers like any other event.
        """
        if pid not in self._down:
            raise ConfigurationError(f"P{pid} is not crashed; nothing to recover")
        replacement = process if process is not None else self.processes[pid]
        for key in [key for key in self._timers if key[0] == pid]:
            self._timers.pop(key)[1].cancel()
        self._down.discard(pid)
        replacement.crashed = False
        self.processes[pid] = replacement
        node = self.nodes.get(pid)
        if node is not None:
            node.process = replacement
        self.transport.recover(pid)
        self.recoveries[pid] = self.now_units()
        self.call(pid, lambda p: p.on_recover())

    def record_error(self, pid: int, exc: BaseException) -> None:
        self.errors.append((pid, exc))
        # A handler fault must not hang run_commit forever: surface it.
        self._all_decided.set()

    # ------------------------------------------------------------------ #
    # driving events into processes
    # ------------------------------------------------------------------ #
    def propose(self, pid: int, value: Any) -> None:
        self.nodes[pid].inbox.put_nowait(("propose", value))

    def call(self, pid: int, fn: Callable[[Process], None]) -> None:
        """Run ``fn(process)`` on the node's consumer (serialised with handlers)."""
        self.nodes[pid].inbox.put_nowait(("call", fn))

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
    """Outcome of one :func:`run_commit` execution on the asyncio runtime."""

    protocol: str
    n: int
    f: int
    unit: float
    decisions: Dict[int, int]
    decision_times: Dict[int, float]
    crashes: Dict[int, float]
    elapsed_units: float
    timed_out: bool
    errors: List[str] = field(default_factory=list)
    messages_total: int = 0
    messages_by_module: Dict[str, int] = field(default_factory=dict)

    @property
    def decision(self) -> Optional[int]:
        """The agreed decision, or None if absent or split (agreement breach)."""
        values = set(self.decisions.values())
        if len(values) == 1:
            return next(iter(values))
        return None

    @property
    def all_agree(self) -> bool:
        return bool(self.decisions) and len(set(self.decisions.values())) == 1


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
        runtime.bind_processes(lambda pid, nn, ff, env: cls(pid, nn, ff, env, **kwargs))
        await runtime.start()
        for pid in range(1, n + 1):
            runtime.call(pid, lambda process: process.on_start())
        for pid, vote in enumerate(votes, start=1):
            runtime.propose(pid, vote)
        crash_tasks = []
        for pid in sorted(crash_at or {}):
            crash_tasks.append(
                asyncio.get_running_loop().create_task(
                    _crash_later(runtime, pid, crash_at[pid])
                )
            )
        budget = timeout_units + transport.worst_case_delay_units()
        decided = await runtime.wait_all_correct_decided(budget)
        elapsed = runtime.now_units()
        for task in crash_tasks:
            task.cancel()
        if crash_tasks:
            await asyncio.gather(*crash_tasks, return_exceptions=True)
        await runtime.stop()
        return CommitRunResult(
            protocol=label,
            n=n,
            f=f,
            unit=unit,
            decisions=dict(runtime.decisions),
            decision_times=dict(runtime.decision_times),
            crashes=dict(runtime.crashes),
            elapsed_units=elapsed,
            timed_out=not decided,
            errors=[f"P{pid}: {exc!r}" for pid, exc in runtime.errors],
            messages_total=transport.messages_total,
            messages_by_module=dict(transport.messages_by_module),
        )

    return asyncio.run(_main())


async def _crash_later(runtime: AsyncRuntime, pid: int, at_units: float) -> None:
    delay_units = max(0.0, at_units - runtime.now_units())
    if delay_units > 0:
        await asyncio.sleep(delay_units * runtime.unit)
    runtime.crash(pid)


__all__ = [
    "AsyncRuntime",
    "CommitRunResult",
    "DEFAULT_UNIT_SECONDS",
    "ProcessFactory",
    "run_commit",
]
