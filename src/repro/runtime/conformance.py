"""The asyncio harness for the :mod:`repro.env.conformance` suite.

Runs the same probe processes the simulator harness runs, on the wall clock,
and hands the checkers the same thing: processes and ``runtime.trace``.
The stated ``tolerance_units`` covers event-loop scheduling jitter only: a
``loop.call_later`` handle never runs early, so timers cannot fire before
their deadline, but ``now()`` is sampled when the handler *runs*, which can
trail the nominal fire time by however long the loop was busy.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.env import Process
from repro.env.conformance import HarnessResult, ObservingProcess
from repro.runtime.runtime import AsyncRuntime, DEFAULT_UNIT_SECONDS

#: extra wall-clock seconds past the scenario horizon before tear-down
_SETTLE_SECONDS = 0.1


class AsyncHarness:
    """Drives probes on the asyncio runtime (wall-clock timing)."""

    name = "asyncio"
    #: generous slack for loop scheduling jitter, in units of U — at the
    #: default unit of 20 ms/U this absorbs a 10 ms loop stall
    tolerance_units = 0.5

    def __init__(self, unit: float = DEFAULT_UNIT_SECONDS, seed: int = 0):
        self.unit = unit
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
        async def _main() -> HarnessResult:
            runtime = AsyncRuntime(n, f, unit=self.unit, seed=self.seed)
            for pid in range(1, n + 1):
                factory = factories.get(pid, ObservingProcess)
                runtime.bind_process(pid, factory(pid, n, f, runtime.env_for(pid)))
            await runtime.start()
            for pid in range(1, n + 1):
                runtime.call(pid, lambda process: process.on_start())
            for pid, value in (proposals or {}).items():
                runtime.propose(pid, value)
            await asyncio.sleep(duration_units * self.unit + _SETTLE_SECONDS)
            await runtime.stop()
            return HarnessResult(
                processes=dict(runtime.processes),
                trace=runtime.trace,
                errors=[f"P{pid}: {exc!r}" for pid, exc in runtime.errors],
            )

        return asyncio.run(_main())


__all__ = ["AsyncHarness"]
