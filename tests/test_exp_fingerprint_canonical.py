"""``SweepResult.fingerprint()`` reads a trial; it used to copy it first.

The canonical form of a trial was ``dataclasses.asdict(trial)`` — a deep copy
of every ``decisions`` / ``decision_latencies`` / ``crashes`` container made
only for ``json.dumps`` to read.  It is now built from the field names, and
``asdict``'s recursion is kept for ``extra`` alone, where a collector may
have put a dataclass.  The bytes must not move: the reference below is the
old form, kept here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from repro.exp import GridSpec, run_sweep
from repro.sim.faults import FaultPlan


@dataclass
class Tally:
    pids: List[int]
    by_module: Dict[str, int] = field(default_factory=dict)
    span: Tuple[float, float] = (0.0, 0.0)


def collect(trial, result):
    """A nested dict, a tuple and a dataclass holding all three."""
    trace = result.trace
    histogram = trace.module_histogram()
    return {
        "nested": {"modules": histogram, "decided": {"pids": sorted(trace.decisions)}},
        "pair": (trial.n, (trial.f, "f")),
        "tally": Tally(sorted(result.processes), histogram, (0.0, trace.end_time)),
    }


def asdict_form(trial):
    data = asdict(trial)
    data["decisions"] = {str(k): v for k, v in sorted(trial.decisions.items())}
    data["crashes"] = {str(k): v for k, v in sorted(trial.crashes.items())}
    if data.get("schedule_label") == "-":
        del data["schedule_label"]
    return data


def asdict_fingerprint(sweep):
    canonical = json.dumps(
        [asdict_form(t) for t in sweep.trials],
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def grid(**axes):
    return GridSpec(
        protocols=["2PC", "INBAC"],
        systems=[(4, 1), (5, 2)],
        delays=[None, "uniform"],
        faults=[None, ("crash P1@1", FaultPlan.crash(1, at=1.0))],
        seeds=[0, 1],
        **axes,
    )


def test_fingerprint_equals_the_asdict_form_with_collector_extras():
    sweep = run_sweep(grid(), workers=1, collector=collect)
    assert not sweep.errors()
    assert all(isinstance(t.extra["tally"], Tally) for t in sweep.trials)
    assert any(t.crashes for t in sweep.trials) and any(t.decisions for t in sweep.trials)
    assert sweep.fingerprint() == asdict_fingerprint(sweep)


def test_fingerprint_equals_the_asdict_form_without_extras_and_with_schedules():
    sweep = run_sweep(grid(schedules=[None, "random-walk"]), workers=1)
    assert {t.schedule_label for t in sweep.trials} == {"-", "random-walk"}
    assert sweep.fingerprint() == asdict_fingerprint(sweep)


def test_fingerprint_does_not_touch_the_trials():
    sweep = run_sweep(grid(), workers=1, collector=collect)
    before = [asdict(t) for t in sweep.trials]
    sweep.fingerprint()
    assert [asdict(t) for t in sweep.trials] == before
