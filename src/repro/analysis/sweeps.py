"""Turn :mod:`repro.exp` sweep results into the repo's report tables.

The sweep engine returns structured per-trial records; the helpers here join
them with registry metadata and reshape them into the row dicts that
:func:`repro.analysis.render.render_table` prints — the robustness matrix of
experiment E9, and the per-fault property summary used by the protocol
shoot-out example.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from repro.errors import SimulationError
from repro.exp.results import SweepAggregate, SweepResult

#: either sink a stock sweep returns
Sweep = Union[SweepResult, SweepAggregate]


def robustness_matrix_rows(sweep: Sweep) -> List[Dict[str, Any]]:
    """The E9 robustness matrix, joined with each protocol's claimed cell.

    One row per protocol; one column per execution class observed in the
    sweep, holding the ``A``/``V``/``T`` properties that held in *every*
    trial of that class; plus the Table 1 cell the registry claims for the
    protocol (``-`` for unregistered protocols such as ablation variants).
    """
    from repro.protocols.registry import all_protocols

    registry = all_protocols()
    rows = []
    for row in sweep.robustness_rows():
        info = registry.get(row["protocol"])
        cell = str(info.cell) if info is not None and info.cell is not None else "-"
        rows.append({**row, "claimed_cell": cell})
    return rows


def properties_by_fault_rows(sweep: Sweep) -> List[Dict[str, Any]]:
    """One row per protocol, one column per fault plan in the sweep.

    Each cell is the compact label of the properties that held in every trial
    of that (protocol, fault plan) pair — the shape of the shoot-out
    example's "what survives a crash / a network failure" summary.  A view
    over :meth:`aggregate_rows`: the ``properties`` labels of the pair's
    cells intersected, so a streamed (``mode="aggregate"``) sweep gives the
    same rows as a full one.
    """
    labels: Dict[str, Dict[str, str]] = {}
    fault_labels: List[str] = []
    for row in sweep.aggregate_rows():
        per_fault = labels.setdefault(row["protocol"], {})
        held = per_fault.get(row["fault"], row["properties"])
        per_fault[row["fault"]] = "".join(p for p in held if p in row["properties"])
        if row["fault"] not in fault_labels:
            fault_labels.append(row["fault"])
    rows = []
    for protocol in sorted(labels):
        row: Dict[str, Any] = {"protocol": protocol}
        for fault in fault_labels:
            held = labels[protocol].get(fault)
            row[fault] = "-" if held is None else held or "∅"
        rows.append(row)
    return rows


def cluster_summary_rows(sweep: SweepResult) -> List[Dict[str, Any]]:
    """One :meth:`~repro.db.cluster.ClusterReport.summary_row` per cluster trial.

    Cluster trials (those run with a workload axis) carry their report's
    summary in ``TrialResult.extra``; this pulls them back out in trial order
    — the shape the database benchmarks render and assert on.
    """
    rows = []
    for trial in sweep.trials:
        if trial.workload_label == "-":
            continue
        if trial.error is not None:
            raise SimulationError(
                f"cluster trial for {trial.protocol} x {trial.workload_label} "
                f"failed:\n{trial.error}"
            )
        rows.append(dict(trial.extra))
    return rows
