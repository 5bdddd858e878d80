"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import signal
from collections import Counter
from typing import Any, Dict, Optional, Sequence, Union

import pytest

from repro.core.checker import check_nbac
from repro.sim.faults import FaultPlan
from repro.sim.network import DelayModel, FixedDelay
from repro.sim.runner import Simulation, SimulationResult


def run_protocol(
    protocol_cls: type,
    n: int,
    f: int,
    votes: Union[Sequence[int], Dict[int, int]],
    fault_plan: Optional[FaultPlan] = None,
    delay_model: Optional[DelayModel] = None,
    max_time: float = 300.0,
    protocol_kwargs: Optional[Dict[str, Any]] = None,
    seed: int = 0,
) -> SimulationResult:
    """Run one execution of a protocol and return its result."""
    sim = Simulation(
        n=n,
        f=f,
        process_class=protocol_cls,
        fault_plan=fault_plan,
        delay_model=delay_model or FixedDelay(1.0),
        max_time=max_time,
        protocol_kwargs=protocol_kwargs,
        seed=seed,
    )
    return sim.run(votes)


def nbac_report(result: SimulationResult):
    """Property report of one execution result."""
    return check_nbac(result.trace)


def wal_kinds(records) -> Counter:
    """Intact records of each kind (``PREPARE``, ``COMMIT``, ``ABORT``) in one
    partition's log, as ``ClusterReport.wal_records`` holds it."""
    return Counter(record.kind for record in records if not record.torn)


def assert_all_decided(result: SimulationResult, value: Optional[int] = None) -> None:
    """Every correct process decided (optionally a specific value)."""
    trace = result.trace
    correct = trace.correct_pids()
    decided = set(trace.decisions)
    missing = [pid for pid in correct if pid not in decided]
    assert not missing, f"correct processes did not decide: {missing}"
    if value is not None:
        wrong = {pid: rec.value for pid, rec in trace.decisions.items() if rec.value != value}
        assert not wrong, f"unexpected decisions: {wrong}"


def assert_agreement(result: SimulationResult) -> None:
    values = {rec.value for rec in result.trace.decisions.values()}
    assert len(values) <= 1, f"agreement violated: {result.trace.decisions}"


#: hard wall-clock ceiling for one @pytest.mark.runtime test, in seconds.
#: Generous: runtime tests are tuned to finish in well under a second each;
#: the guard only exists so a runtime deadlock fails the suite instead of
#: hanging it (pytest-timeout is not available in this environment).
RUNTIME_TEST_TIMEOUT_SECONDS = 60.0


@pytest.fixture(autouse=True)
def _runtime_timeout_guard(request):
    """SIGALRM-based per-test timeout for wall-clock runtime tests."""
    if request.node.get_closest_marker("runtime") is None:
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"runtime test exceeded {RUNTIME_TEST_TIMEOUT_SECONDS:.0f}s "
            "wall-clock guard (likely a deadlocked event loop)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, RUNTIME_TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def small_system():
    """A small (n, f) pair used by many protocol tests."""
    return 4, 1


@pytest.fixture
def medium_system():
    """A medium (n, f) pair with f >= 2 (exercises the backup machinery)."""
    return 5, 2
