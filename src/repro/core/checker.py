"""Execution-level NBAC checking and problem-level evaluation.

Two levels:

* :func:`check_nbac` — check all three properties on a single trace and
  return a structured :class:`NBACReport`.
* :func:`evaluate_problem` — given a problem cell ``(X, Y)`` from the
  robustness lattice and a trace, determine which properties were *required*
  for the trace's execution class (failure-free → all three; crash-failure →
  ``X``; network-failure → ``Y``) and whether the protocol met them, one
  execution at a time.  The robustness matrix of experiment E9 quantifies
  over a sweep instead: :class:`~repro.exp.results.RobustnessFold` folds each
  trial's :meth:`~repro.exp.results.TrialResult.broken` per execution class,
  read through :func:`repro.analysis.sweeps.robustness_matrix_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.core.lattice import (
    ALL_PROPS,
    Prop,
    PropertyPair,
    canonical_props,
)
from repro.core.properties import (
    PropertyCheck,
    check_agreement,
    check_termination,
    check_validity,
)
from repro.sim.trace import Trace


@dataclass
class NBACReport:
    """All property checks for one execution."""

    validity: PropertyCheck
    agreement: PropertyCheck
    termination: PropertyCheck
    execution_class: str = "failure-free"

    def check(self, prop: Prop) -> PropertyCheck:
        return {
            Prop.VALIDITY: self.validity,
            Prop.AGREEMENT: self.agreement,
            Prop.TERMINATION: self.termination,
        }[prop]

    def holds(self, props: FrozenSet[Prop]) -> bool:
        return all(self.check(p).holds for p in props)

    def solves_nbac(self) -> bool:
        return self.holds(ALL_PROPS)

    def violations(self) -> List[str]:
        return (
            list(self.validity.violations)
            + list(self.agreement.violations)
            + list(self.termination.violations)
        )


def check_nbac(trace: Trace, execution_class: Optional[str] = None) -> NBACReport:
    """Check validity, agreement and termination on one trace."""
    cls = execution_class or trace.metadata.get("execution_class", "failure-free")
    return NBACReport(
        validity=check_validity(trace, cls),
        agreement=check_agreement(trace),
        termination=check_termination(trace),
        execution_class=cls,
    )


@dataclass
class ProblemEvaluation:
    """Did the protocol satisfy what the problem cell requires for this execution?"""

    cell: PropertyPair
    execution_class: str
    required: FrozenSet[Prop]
    report: NBACReport
    satisfied: bool
    failures: List[str] = field(default_factory=list)


def required_properties(cell: PropertyPair, execution_class: str) -> FrozenSet[Prop]:
    """Which properties the problem ``cell`` requires for an execution class."""
    if execution_class == "failure-free":
        return ALL_PROPS
    if execution_class == "crash-failure":
        return cell.cf
    if execution_class == "network-failure":
        return cell.nf
    raise ValueError(f"unknown execution class {execution_class!r}")


def evaluate_problem(trace: Trace, cell: PropertyPair) -> ProblemEvaluation:
    """Evaluate one execution of a protocol against one problem cell, in the
    execution class its trace records."""
    cls = trace.metadata.get("execution_class", "failure-free")
    report = check_nbac(trace, cls)
    required = required_properties(cell, cls)
    # canonical A, V, T order: ``required`` is a frozenset of a str-Enum,
    # whose iteration order follows PYTHONHASHSEED (repro.lint rule DET001)
    failures = [
        violation
        for prop in canonical_props(required)
        for violation in report.check(prop).violations
    ]
    return ProblemEvaluation(
        cell=cell,
        execution_class=cls,
        required=required,
        report=report,
        satisfied=not failures,
        failures=failures,
    )

