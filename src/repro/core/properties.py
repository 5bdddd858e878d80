"""NBAC properties as checkable predicates over execution traces.

Definition 1 of the paper (refining Skeen's NBAC):

* **Validity** — a process decides 0 only if some process proposes 0 *or a
  failure occurs*; a process decides 1 only if no process proposes 0.
* **Termination** — every correct process eventually decides.
* **Agreement** — no two processes decide differently.
* **Integrity** — no process decides twice (enforced at runtime by the
  scheduler, which raises on a double decision, so it cannot appear in a
  trace).

The checkers report structured results rather than raising, because the
benchmarks and the robustness-matrix experiment need to *observe* violations
(e.g. 2PC not terminating when the coordinator crashes) rather than fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.trace import Trace

COMMIT = 1
ABORT = 0


@dataclass
class PropertyCheck:
    """Outcome of checking one property on one trace."""

    name: str
    holds: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def _failure_occurred(trace: Trace, execution_class: str = None) -> bool:
    """Whether the execution contains any failure (crash or network failure).

    The execution class is stamped into the trace metadata by the simulation
    driver; crashes are also visible directly in the trace.
    """
    if trace.crashes:
        return True
    cls = execution_class or trace.metadata.get("execution_class", "")
    return cls == "network-failure"


def check_validity(trace: Trace, execution_class: str = None) -> PropertyCheck:
    """Check the (unified) validity property of Definition 1."""
    violations: List[str] = []
    votes = trace.votes()
    some_zero = any(v == ABORT for v in votes.values())
    failure = _failure_occurred(trace, execution_class)
    for pid, decision in trace.decisions.items():
        if decision.value == ABORT and not some_zero and not failure:
            violations.append(
                f"P{pid} decided 0 but every process proposed 1 and no failure occurred"
            )
        if decision.value == COMMIT and some_zero:
            zeros = [p for p, v in votes.items() if v == ABORT]
            violations.append(
                f"P{pid} decided 1 although P{zeros[0]} proposed 0"
            )
    return PropertyCheck(name="validity", holds=not violations, violations=violations)


def check_agreement(trace: Trace) -> PropertyCheck:
    """Check that no two processes decide differently."""
    values = [rec.value for rec in trace.decisions.values()]
    if not values or values.count(values[0]) == len(values):
        # everyone decided what the first one did: no pair to enumerate
        return PropertyCheck(name="agreement", holds=True)
    violations: List[str] = []
    decided = sorted(trace.decisions.items())
    for i, (pid_a, rec_a) in enumerate(decided):
        for pid_b, rec_b in decided[i + 1 :]:
            if rec_a.value != rec_b.value:
                violations.append(
                    f"P{pid_a} decided {rec_a.value} but P{pid_b} decided {rec_b.value}"
                )
    return PropertyCheck(name="agreement", holds=not violations, violations=violations)


def check_termination(trace: Trace) -> PropertyCheck:
    """Check that every correct process decided by the end of the trace."""
    violations: List[str] = []
    for pid in trace.correct_pids():
        if pid not in trace.decisions:
            violations.append(f"correct process P{pid} never decided")
    return PropertyCheck(name="termination", holds=not violations, violations=violations)


def is_nice_execution(trace: Trace) -> bool:
    """A nice execution: failure-free and every process proposes 1."""
    if trace.crashes:
        return False
    if trace.metadata.get("execution_class", "failure-free") != "failure-free":
        return False
    votes = trace.votes()
    return len(votes) == trace.n and all(v == COMMIT for v in votes.values())

