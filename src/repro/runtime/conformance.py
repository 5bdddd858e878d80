"""The asyncio harness for the :mod:`repro.env.conformance` suite.

Runs the same probe processes the simulator harness runs, on the wall clock,
and hands the checkers the same thing: processes and ``runtime.trace``.
Proposals are posted at time 0, as the simulator harness posts them.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional

from repro.env import Process
from repro.env.conformance import HarnessResult, ObservingProcess
from repro.runtime.runtime import AsyncRuntime, DEFAULT_UNIT_SECONDS


class AsyncHarness:
    """Drives probes on the asyncio runtime (wall-clock timing)."""

    name = "asyncio"

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
            runtime.bind_processes(
                lambda pid, *rest: factories.get(pid, ObservingProcess)(pid, *rest)
            )
            for pid, value in (proposals or {}).items():
                runtime.post_propose(pid, value)
            await runtime.start()
            # stop() handles everything due by the wall clock, so the run
            # covers the whole horizon
            await asyncio.sleep(duration_units * self.unit)
            await runtime.stop()
            return HarnessResult(
                processes=dict(runtime.processes),
                trace=runtime.trace,
                errors=[f"P{pid}: {exc!r}" for pid, exc in runtime.errors],
            )

        return asyncio.run(_main())


__all__ = ["AsyncHarness"]
