"""The runtime's :class:`~repro.env.ProcessEnv`: one thin env per process.

The simulator guarantees that a process handles one event at a time, and the
runtime keeps that guarantee without an actor per process: handlers are
synchronous functions on a single-threaded loop, so one dispatcher handling
one queue in order (:mod:`repro.runtime.runtime`) already serialises them.
:class:`AsyncEnv` is all a process holds: sends go straight to the transport,
timers and decisions to the runtime, and ``now()`` is the wall clock rebased
to units of U.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import AsyncRuntime


class AsyncEnv:
    """The asyncio-runtime implementation of the ``ProcessEnv`` contract."""

    def __init__(self, runtime: "AsyncRuntime", pid: int):
        self._runtime = runtime
        self.pid = pid
        # Mirror SimEnv's per-process seeded stream so randomized protocol
        # variants behave identically under either runtime.
        self.random = random.Random(runtime.seed * 1_000_003 + pid)

    def send(self, dst: int, payload: Any, module: str = "main") -> None:
        self._runtime.transport.send(self.pid, dst, payload, module=module)

    def send_many(self, dsts: Iterable[int], payload: Any, module: str = "main") -> None:
        send = self._runtime.transport.send
        for dst in dsts:
            send(self.pid, dst, payload, module=module)

    def set_timer(self, at_units: float, name: str = "timer") -> None:
        self._runtime.set_timer(self.pid, at_units, name)

    def cancel_timer(self, name: str = "timer") -> None:
        self._runtime.cancel_timer(self.pid, name)

    def decide(self, value: Any) -> None:
        self._runtime.record_decision(self.pid, value)

    def now(self) -> float:
        return self._runtime.now_units()


__all__ = ["AsyncEnv"]
