"""Hash-seed harness for the runtime sanitizer (``python -m tools.lint --sanitize``).

:func:`run_hashseed_check` re-runs a small reference sweep plus one schedule
replay (:func:`probe`) in subprocesses under two different ``PYTHONHASHSEED``
values (and under serial/fork/spawn pools) and diffs every fingerprint: any
divergence means hash order leaked into the bytes.
:func:`run_sanitized_sweep` runs the same probe in-process with the
:mod:`repro.sanitizer` wrappers armed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from repro import sanitizer

#: the repository root: the probe subprocess imports tools.lint and repro from it
ROOT = Path(__file__).resolve().parents[2]


#: the schedule decisions of the reference replay: crash the 2PC coordinator
#: at its collect timer (the canonical blocking counterexample)
_REPLAY_DECISIONS = ((9, "crash", 1),)


def probe(start_methods: Sequence[str]) -> Dict[str, str]:
    """Fingerprints of a small reference sweep + one schedule replay.

    Pure function of the installed code and ``PYTHONHASHSEED`` — the
    hash-seed harness runs it twice under different seeds and diffs the
    returned dict.  ``start_methods`` selects which execution paths compute
    the sweep ("serial", "fork", "spawn"); every path must agree with every
    other, so each contributes its own entries.
    """
    from repro.exp import GridSpec, run_sweep, run_trials
    from repro.exp.spec import ScheduleSpec

    def sweep_grid():
        return GridSpec(
            protocols=["INBAC", "2PC"],
            systems=[(5, 2)],
            delays=["uniform"],
            votes=["all-yes", "one-no:3"],
            seeds=range(4),
        )

    def replay_grid():
        return GridSpec(
            protocols=["2PC"],
            systems=[(5, 2)],
            schedules=[
                ScheduleSpec(
                    label="replay",
                    name="replay",
                    params=(("decisions", _REPLAY_DECISIONS),),
                )
            ],
            seeds=[0],
        )

    fingerprints: Dict[str, str] = {}
    for method in start_methods:
        workers = 1 if method == "serial" else 2
        start = None if method == "serial" else method
        sweep = run_sweep(sweep_grid(), workers=workers, start_method=start)
        fingerprints[f"{method}:aggregate"] = sweep.aggregate_fingerprint()
        fingerprints[f"{method}:trials"] = sweep.fingerprint()
        replay = run_trials(
            replay_grid().trials(), workers=1, mode="full", trace_level="full"
        )
        fingerprints[f"{method}:replay"] = replay.trials[0].extra[
            "trace_fingerprint"
        ]
    return fingerprints


def run_hashseed_check(
    seeds: Sequence[int] = (101, 202),
    start_methods: Sequence[str] = ("serial",),
) -> Dict[str, Any]:
    """Run :func:`probe` in one subprocess per hash seed and diff the bytes.

    Returns ``{"ok": bool, "fingerprints": {seed: {...}}, "diverging": [...]}``.
    """
    results: Dict[str, Dict[str, str]] = {}
    for seed in seeds:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint.hashseed", *start_methods],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"hash-seed probe failed under PYTHONHASHSEED={seed}:\n"
                f"{proc.stdout}\n{proc.stderr}"
            )
        results[str(seed)] = json.loads(proc.stdout)
    reference = results[str(seeds[0])]
    diverging: List[str] = []
    for seed in seeds[1:]:
        for key, value in results[str(seed)].items():
            if reference.get(key) != value:
                diverging.append(f"PYTHONHASHSEED {seeds[0]} vs {seed}: {key}")
    # every start method must also agree within one seed
    for seed_key, fingerprints in results.items():
        by_metric: Dict[str, set] = {}
        for key, value in fingerprints.items():
            metric = key.split(":", 1)[1]
            by_metric.setdefault(metric, set()).add(value)
        for metric, values in sorted(by_metric.items()):
            if len(values) > 1:
                diverging.append(
                    f"PYTHONHASHSEED {seed_key}: {metric} differs across "
                    f"start methods"
                )
    return {"ok": not diverging, "fingerprints": results, "diverging": diverging}


def run_sanitized_sweep() -> Dict[str, Any]:
    """Run the reference sweep with the wrappers armed (in-process)."""
    was_installed = sanitizer.is_installed()
    sanitizer.install()
    try:
        fingerprints = probe(start_methods=("serial",))
    finally:
        if not was_installed:
            sanitizer.uninstall()
    return {
        "fingerprints": fingerprints,
        "observations": dict(sanitizer.observations),
    }


if __name__ == "__main__":
    # the probe subprocess: ``python -m tools.lint.hashseed serial fork ...``
    print(json.dumps(probe(start_methods=sys.argv[1:] or ["serial"]), sort_keys=True))
