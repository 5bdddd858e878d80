"""Core framework: the NBAC problem, its property lattice and its complexity.

This package is the paper's Sections 2 and 3 made executable:

* :mod:`repro.core.properties` — validity, agreement, termination as checkable
  predicates over execution traces (Definition 1).
* :mod:`repro.core.lattice` — the robustness lattice of property pairs
  ``(X, Y)`` and the reduction from 64 to 27 distinct problems.
* :mod:`repro.core.table1` — the tight lower bounds of Table 1 (message delays
  and messages) as closed-form functions of ``n`` and ``f``.
* :mod:`repro.core.metrics` — the two complexity measures (number of messages,
  number of message delays) computed from traces.
* :mod:`repro.core.checker` — execution classification plus "which properties
  must hold in this execution for this problem" evaluation.
"""

from repro.core.checker import NBACReport, check_nbac, evaluate_problem
from repro.core.lattice import ALL_PROPS, Prop, PropertyPair, all_cells, robustness_leq
from repro.core.metrics import (
    decision_message_delays,
    messages_until_last_decision,
    nice_execution_complexity,
)
from repro.core.properties import (
    PropertyCheck,
    check_agreement,
    check_termination,
    check_validity,
    is_nice_execution,
)
from repro.core.table1 import CellBound, delay_lower_bound, message_lower_bound, table1_bounds

__all__ = [
    "ALL_PROPS",
    "CellBound",
    "NBACReport",
    "Prop",
    "PropertyCheck",
    "PropertyPair",
    "all_cells",
    "check_agreement",
    "check_nbac",
    "check_termination",
    "check_validity",
    "decision_message_delays",
    "delay_lower_bound",
    "evaluate_problem",
    "is_nice_execution",
    "message_lower_bound",
    "messages_until_last_decision",
    "nice_execution_complexity",
    "robustness_leq",
    "table1_bounds",
]
