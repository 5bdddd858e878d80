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
  error capture) and :func:`run_commit` (one commit instance, synchronous
  entry point);
* :mod:`~repro.runtime.cluster` — the transactional KV cluster:
  :func:`run_cluster_async` (batch) and :class:`AsyncClusterService` (live
  concurrent clients);
* :mod:`~repro.runtime.conformance` — :class:`AsyncHarness` for the
  executable contract suite in :mod:`repro.env.conformance`.

This package intentionally reads the wall clock; the determinism lint rule
DET002 is scoped out of ``src/repro/runtime/`` (see :mod:`repro.lint.rules`).
The simulator remains the deterministic oracle — nothing under
:mod:`repro.sim`, :mod:`repro.db` (sim backend) or :mod:`repro.exp` imports
this package except through the explicit backend dispatch in
:func:`repro.db.cluster.run_cluster`.
"""

from __future__ import annotations

from repro.runtime.cluster import (
    AsyncClusterService,
    DEFAULT_CLUSTER_UNIT_SECONDS,
    run_cluster_async,
)
from repro.runtime.conformance import AsyncHarness
from repro.runtime.runtime import (
    AsyncRuntime,
    CommitRunResult,
    DEFAULT_UNIT_SECONDS,
    run_commit,
)

__all__ = [
    "AsyncClusterService",
    "AsyncHarness",
    "AsyncRuntime",
    "CommitRunResult",
    "DEFAULT_CLUSTER_UNIT_SECONDS",
    "DEFAULT_UNIT_SECONDS",
    "run_cluster_async",
    "run_commit",
]
