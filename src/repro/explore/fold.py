"""Streaming violation accounting for aggregate-mode exploration sweeps.

Huge exploration budgets (10^4-10^6 schedules) should not materialise one
:class:`~repro.exp.results.TrialResult` per schedule.  :class:`ViolationFold`
is a custom reducer for :func:`repro.exp.run_sweep`: each trial folds into
per-cell violation tallies the moment it arrives, and only the first few
violating schedules are retained (they are replayable, so keeping more buys
nothing — any violation can be regenerated from its seed).  Pass one as
``run_sweep(..., reducer=ViolationFold())``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.exp.results import _PROPERTIES, TrialResult


class ViolationFold:
    """Per-cell violation counts plus a bounded sample of violating schedules."""

    #: how many violating schedule traces to retain across the whole sweep
    MAX_SAMPLES = 10

    def __init__(self) -> None:
        #: cell key -> {"trials": int, "violations": int, per-property counts}
        self._cells: Dict[tuple, Dict[str, Any]] = {}
        self._order: List[tuple] = []
        self.total_trials = 0
        self.total_violations = 0
        self.error_count = 0
        #: up to MAX_SAMPLES violating trials' schedule/fingerprint extras
        self.samples: List[Dict[str, Any]] = []
        self.meta: Dict[str, Any] = {}

    def __len__(self) -> int:
        return self.total_trials

    def fold(self, trial: TrialResult) -> None:
        self.total_trials += 1
        if trial.error is not None:
            self.error_count += 1
            return
        key = trial.key()
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = {
                "trials": 0,
                "violations": 0,
                **{f"broke_{attr}": 0 for _, attr in _PROPERTIES},
            }
            self._order.append(key)
        cell["trials"] += 1
        broken = [attr for _, attr in _PROPERTIES if not getattr(trial, attr)]
        if not broken:
            return
        cell["violations"] += 1
        self.total_violations += 1
        for attr in broken:
            cell[f"broke_{attr}"] += 1
        if len(self.samples) < self.MAX_SAMPLES and "schedule_trace" in trial.extra:
            self.samples.append(
                {
                    "index": trial.index,
                    "key": key,
                    "base_seed": trial.base_seed,
                    "properties": tuple(broken),
                    "schedule_trace": trial.extra["schedule_trace"],
                    "trace_fingerprint": trial.extra.get("trace_fingerprint"),
                }
            )

    def rows(self) -> List[Dict[str, Any]]:
        """One row per grid cell, in first-seen (trial-index) order."""
        out = []
        for key in self._order:
            cell = self._cells[key]
            row: Dict[str, Any] = {
                "protocol": key[0],
                "n": key[1],
                "f": key[2],
                "delay": key[3],
                "fault": key[4],
                "votes": key[5],
                "workload": key[6],
                "schedule": key[7] if len(key) > 7 else "-",
                "trials": cell["trials"],
                "violations": cell["violations"],
            }
            for label, attr in _PROPERTIES:
                row[f"broke_{label}"] = cell[f"broke_{attr}"]
            out.append(row)
        return out
