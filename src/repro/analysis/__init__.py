"""Analysis helpers: closed-form complexity and table rendering.

* :mod:`repro.analysis.formulas` — the paper's published complexity formulas
  (Tables 1, 4 and 5) as functions of ``n`` and ``f``.
* :mod:`repro.analysis.tables` — builders that regenerate the paper's tables
  from the formulas and from one measured nice execution per protocol.
* :mod:`repro.analysis.render` — plain-text table rendering used by the
  examples and benchmarks.
* :mod:`repro.analysis.sweeps` — reshaping of :mod:`repro.exp` sweep results
  into report tables (robustness matrix, per-fault property summaries).
"""

from repro.analysis.formulas import (
    paper_table4,
    paper_table5_delays,
    paper_table5_messages,
)
from repro.analysis.render import render_table
from repro.analysis.sweeps import (
    cluster_summary_rows,
    properties_by_fault_rows,
    robustness_matrix_rows,
)
from repro.analysis.tables import (
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
)

__all__ = [
    "build_table1",
    "build_table2",
    "build_table3",
    "build_table4",
    "build_table5",
    "cluster_summary_rows",
    "paper_table4",
    "paper_table5_delays",
    "paper_table5_messages",
    "properties_by_fault_rows",
    "render_table",
    "robustness_matrix_rows",
]
