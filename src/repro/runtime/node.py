"""One asyncio node: an inbox-draining task wrapped around a protocol process.

The simulator guarantees that a process handles one event at a time — handler
code never races with itself.  The runtime preserves that guarantee with the
classic actor shape: every process gets an ``asyncio.Queue`` inbox and a
single consumer task that drains it, so ``on_deliver`` / ``on_timeout`` /
``on_propose`` run strictly sequentially per process even though all nodes
run concurrently on the loop.  Protocol handlers therefore need no locks and
no awareness that they left the simulator.

:class:`AsyncEnv` is the runtime's :class:`~repro.env.ProcessEnv`: sends go
straight to the transport, timers and decisions go through the runtime (which
owns the timer table and the decide-once ledger), and ``now()`` is
the wall clock rebased to units of U.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Iterable, Optional, TYPE_CHECKING

from repro.env import Process

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


class AsyncNode:
    """The inbox + consumer task hosting one process on the event loop."""

    def __init__(self, pid: int, runtime: "AsyncRuntime"):
        self.pid = pid
        self.runtime = runtime
        self.inbox: asyncio.Queue = asyncio.Queue()
        self.process: Optional[Process] = None
        self.task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(
            self._consume(), name=f"node-P{self.pid}"
        )

    async def _consume(self) -> None:
        while True:
            item = await self.inbox.get()
            kind = item[0]
            if kind == "stop":
                return
            process = self.process
            if process is None or process.crashed:
                continue
            try:
                if kind == "deliver":
                    _, src, payload = item
                    process.deliver(src, payload)
                elif kind == "timer":
                    _, name, token = item
                    # Re-check the token at handling time: a rearm or cancel
                    # that happened while this expiry sat in the inbox
                    # supersedes it.
                    if self.runtime.take_expiry(self.pid, name, token):
                        process.timeout(name)
                elif kind == "propose":
                    process.on_propose(item[1])
                elif kind == "call":
                    item[1](process)
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                self.runtime.record_error(self.pid, exc)

    async def stop(self) -> None:
        if self.task is None:
            return
        self.inbox.put_nowait(("stop",))
        try:
            await asyncio.wait_for(self.task, timeout=1.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
        self.task = None


__all__ = ["AsyncEnv", "AsyncNode"]
