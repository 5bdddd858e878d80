"""The asyncio transport runtime: the wall-clock twin of the simulator.

Every protocol and database process in this repository is written against the
runtime-neutral :class:`~repro.env.ProcessEnv` contract.  This package runs
them on the simulator's kernel, :class:`repro.sim.runner.Scheduler`, paced by
the wall clock: one loop handle, armed for the earliest queued time,
re-enters the scheduler's own loop up to "now" (one unit of simulated time
``U`` per ``AsyncRuntime.unit`` seconds), every process gets the simulator's
env, and messages cross the simulator's network: whatever delay model the
run is given (per-link policies are :class:`repro.sim.network.LinkDelay`).  The
*identical, unmodified* protocol classes — INBAC, 2PC, 3PC, Paxos commit and
the rest of the registry — commit real transactions here for concurrent
clients, and a stalled event loop changes when a run decides, not what it
decides.

Layout:

* :mod:`~repro.runtime.runtime` — :class:`AsyncRuntime` (the scheduler paced
  by the wall clock: the wake-up handle, calls from outside every handler,
  error capture), :func:`run_paced` (a :class:`repro.sim.runner.Simulation`'s
  own run, paced — the asyncio leg of the conformance battery in ``tests/``)
  and :func:`run_commit` (one commit instance, synchronous entry point; its
  result is the simulator's ``SimulationResult``);
* :mod:`~repro.runtime.cluster` — :class:`AsyncClusterService`, the
  transactional KV cluster of :mod:`repro.db.cluster` paced on the event loop
  for live concurrent clients (its batch form is
  ``repro.db.cluster.run_cluster(..., backend="asyncio")``).

This package intentionally reads the wall clock; the determinism lint rule
DET002 is scoped out of ``src/repro/runtime/`` (see ``tools.lint.rules``,
the static analyser).
The simulator remains the deterministic oracle — nothing under
:mod:`repro.sim`, :mod:`repro.db` (sim backend) or :mod:`repro.exp` imports
this package except through the explicit backend dispatch in
:func:`repro.db.cluster.run_cluster`.
"""

from __future__ import annotations

from repro.runtime.cluster import AsyncClusterService, DEFAULT_CLUSTER_UNIT_SECONDS
from repro.runtime.runtime import (
    AsyncRuntime,
    DEFAULT_UNIT_SECONDS,
    run_commit,
    run_paced,
)

__all__ = [
    "AsyncClusterService",
    "AsyncRuntime",
    "DEFAULT_CLUSTER_UNIT_SECONDS",
    "DEFAULT_UNIT_SECONDS",
    "run_commit",
    "run_paced",
]
