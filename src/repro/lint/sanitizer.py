"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The static rules in :mod:`repro.lint.rules` catch the *patterns* that break
the fingerprint contract; this module catches the *behaviour*.  Two parts:

1. **Order-perturbation wrappers** — :func:`install` monkey-patches the
   digest pipeline so that every ``Trace.fingerprint()`` and
   ``CellAccumulator.row()`` is recomputed from a clone whose dicts were
   rebuilt in reversed insertion order.  If the bytes change, the result
   depended on insertion order (which differs between the per-trial and
   chunked fold paths) and a :class:`~repro.errors.DeterminismError` is
   raised naming the diverging field.  ``record_send`` (and the counters
   level's ``record_send_batch``) is also wrapped to reject payloads
   carrying bare ``set``/``frozenset`` values — their repr order is
   implementation-defined and feeds the full-level fingerprint.

2. **Hash-seed harness** — :func:`run_hashseed_check` re-runs a small
   reference sweep plus one schedule replay in subprocesses under two
   different ``PYTHONHASHSEED`` values (and under serial/fork/spawn pools)
   and diffs every fingerprint.  Any divergence means hash order leaked
   into the bytes.

``repro/__init__`` calls :func:`maybe_install` at import time, so setting
``REPRO_SANITIZE=1`` in the environment sanitizes spawn pool workers too —
they re-import :mod:`repro` and re-arm the wrappers themselves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: environment variable that arms the sanitizer
ENV_FLAG = "REPRO_SANITIZE"

#: originals saved by install(), keyed by (class, attribute name)
_originals: Dict[Tuple[type, str], Any] = {}

#: how many checks each wrapper ran (for tests and reporting)
observations: Dict[str, int] = {"fingerprint": 0, "record_send": 0, "row": 0}


def is_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") == "1"


def is_installed() -> bool:
    return bool(_originals)


def maybe_install() -> bool:
    """Arm the wrappers iff ``REPRO_SANITIZE=1``; returns whether armed."""
    if is_enabled():
        install()
        return True
    return False


# --------------------------------------------------------------------------- #
# payload canonicalisation check
# --------------------------------------------------------------------------- #
def _find_unordered(value: Any, depth: int = 0) -> Optional[Any]:
    """First ``set``/``frozenset`` nested anywhere inside ``value``."""
    if isinstance(value, (set, frozenset)):
        return value
    if depth > 6:
        return None
    if isinstance(value, (tuple, list)):
        for item in value:
            hit = _find_unordered(item, depth + 1)
            if hit is not None:
                return hit
    elif isinstance(value, dict):
        for key, item in value.items():
            hit = _find_unordered(key, depth + 1)
            if hit is None:
                hit = _find_unordered(item, depth + 1)
            if hit is not None:
                return hit
    return None


def _reversed_dict(d: Dict[Any, Any]) -> Dict[Any, Any]:
    return dict(reversed(list(d.items())))


def _perturbed_trace(trace: Any) -> Any:
    """Shallow clone with every internal dict rebuilt in reversed order."""
    import copy

    clone = copy.copy(trace)
    for attr in ("decisions", "proposals", "crashes", "module_counts",
                 "recv_time_counts", "metadata"):
        value = getattr(clone, attr, None)
        if isinstance(value, dict):
            setattr(clone, attr, _reversed_dict(value))
    return clone


def _first_divergence(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    for key in sorted(set(a) | set(b)):
        if json.dumps(a.get(key), sort_keys=True, default=str) != json.dumps(
            b.get(key), sort_keys=True, default=str
        ):
            return key
    return "<unknown>"


# --------------------------------------------------------------------------- #
# install / uninstall
# --------------------------------------------------------------------------- #
def install() -> None:
    """Wrap the digest pipeline with order-perturbation checks (idempotent)."""
    if _originals:
        return
    from repro.errors import DeterminismError
    from repro.exp.results import CellAccumulator
    from repro.sim.trace import CounterTrace, Trace

    orig_fingerprint = Trace.fingerprint
    orig_send_full = Trace.record_send
    orig_send_counters = CounterTrace.record_send
    orig_send_batch = CounterTrace.record_send_batch
    orig_row = CellAccumulator.row

    def checked_fingerprint(self):
        observations["fingerprint"] += 1
        fingerprint = orig_fingerprint(self)
        perturbed = orig_fingerprint(_perturbed_trace(self))
        if perturbed != fingerprint:
            key = _first_divergence(
                self._canonical(), _perturbed_trace(self)._canonical()
            )
            raise DeterminismError(
                f"{type(self).__name__}.fingerprint() depends on dict "
                f"insertion order (diverges at {key!r}); canonicalise with "
                f"sorted(...) in _canonical (src/repro/sim/trace.py)"
            )
        return fingerprint

    def _check_payload(trace, payload):
        observations["record_send"] += 1
        unordered = _find_unordered(payload)
        if unordered is not None:
            raise DeterminismError(
                f"protocol {trace.protocol or '?'} sent a payload "
                f"containing an unordered {type(unordered).__name__} "
                f"({payload!r}); its repr feeds the trace fingerprint — "
                f"send tuple(sorted(...)) instead"
            )

    def _checked_send(orig):
        def checked_record_send(self, msg_id, src, dst, payload, send_time,
                                recv_time, counted, module="main"):
            _check_payload(self, payload)
            return orig(self, msg_id, src, dst, payload, send_time,
                        recv_time, counted, module=module)

        return checked_record_send

    def checked_record_send_batch(self, payload, module, recv_time, count):
        # the counters level sees a broadcast's counted messages as one call
        _check_payload(self, payload)
        return orig_send_batch(self, payload, module, recv_time, count)

    def checked_row(self):
        observations["row"] += 1
        row = orig_row(self)
        clone = CellAccumulator.__new__(type(self))
        for slot in CellAccumulator.__slots__:
            value = getattr(self, slot)
            if isinstance(value, dict):
                value = _reversed_dict(value)
            setattr(clone, slot, value)
        perturbed = orig_row(clone)
        if perturbed != row:
            column = _first_divergence(row, perturbed)
            raise DeterminismError(
                f"{type(self).__name__}.row() depends on digest insertion "
                f"order (column {column!r} diverges); reduce over "
                f"sorted(counts) at row() time (src/repro/exp/results.py)"
            )
        return row

    _originals[(Trace, "fingerprint")] = orig_fingerprint
    _originals[(Trace, "record_send")] = orig_send_full
    _originals[(CounterTrace, "record_send")] = orig_send_counters
    _originals[(CounterTrace, "record_send_batch")] = orig_send_batch
    _originals[(CellAccumulator, "row")] = orig_row
    Trace.fingerprint = checked_fingerprint
    Trace.record_send = _checked_send(orig_send_full)
    CounterTrace.record_send = _checked_send(orig_send_counters)
    CounterTrace.record_send_batch = checked_record_send_batch
    CellAccumulator.row = checked_row


def uninstall() -> None:
    """Restore the unwrapped methods (test hygiene)."""
    for (cls, name), original in _originals.items():
        setattr(cls, name, original)
    _originals.clear()


# --------------------------------------------------------------------------- #
# reference probe (run in subprocesses under controlled PYTHONHASHSEED)
# --------------------------------------------------------------------------- #
#: the schedule decisions of the reference replay: crash the 2PC coordinator
#: at its collect timer (the canonical blocking counterexample)
_REPLAY_DECISIONS = ((9, "crash", 1),)


def probe(start_methods: Sequence[str] = ("serial",)) -> Dict[str, str]:
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
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    results: Dict[str, Dict[str, str]] = {}
    for seed in seeds:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint.sanitizer",
                "--probe",
                "--start-methods",
                ",".join(start_methods),
            ],
            capture_output=True,
            text=True,
            env=env,
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
    was_installed = is_installed()
    install()
    try:
        fingerprints = probe(start_methods=("serial",))
    finally:
        if not was_installed:
            uninstall()
    return {
        "fingerprints": fingerprints,
        "observations": dict(observations),
    }


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="repro.lint.sanitizer")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--start-methods", default="serial")
    args = parser.parse_args(argv)
    if args.probe:
        methods = [m.strip() for m in args.start_methods.split(",") if m.strip()]
        print(json.dumps(probe(start_methods=methods), sort_keys=True))
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(_main())
