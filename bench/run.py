"""The perf ledger's one command.

One run, in this process — the form ``BENCHMARK.json`` names and the ledger
below spawns once per (workload, repetition)::

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

prints every metric by name with its unit, checks the outputs, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separately
traced pass with ``--trace 1``.  Exit status is non-zero when an output is
wrong or the wall-clock budget ran out.

The ledger — every workload, ``K`` fresh subprocesses each, medians and
quartiles with provenance::

    python3 bench/run.py [--workload W] [--reps K] [--seed S] [--trace]
                         [--quick] --out bench/out/results.json

It is chosen by giving ``--reps`` or ``--out`` (or no ``--workload``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from stats import (
    BENCH_DIR,
    REPO_ROOT,
    load_contract,
    provenance,
    slowdown,
    spread,
    summarise,
)

SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DEFAULT_PINS = os.path.join(BENCH_DIR, "pins.json")

#: set-up probes per run: fresh processes timed from spawn to first measured op
SETUP_PROBES = 5
DEFAULT_BUDGET_S = 90
DEFAULT_REPS = 3
#: the issue's four timings in raw seconds: printed and kept in the ledger,
#: not in BENCHMARK.json (their ``ref.`` twins, in reference seconds, are)
RAW_UNITS = {
    "trials_per_s": "1/s",
    "commit_per_s": "1/s",
    "overhead_ms_p50": "ms",
    "cpu_ms_per_txn": "ms",
}
QUICK_SECONDS = 0.5


class BudgetExceeded(Exception):
    """The run's wall-clock budget ran out (raised from the SIGALRM handler)."""


def _on_alarm(signum, frame) -> None:
    raise BudgetExceeded()


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length; sizes scale with seconds/10 (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced pass and the per-layer metrics",
    )
    parser.add_argument("--quick", action="store_true", help="--seconds 0.5, one probe")
    parser.add_argument("--reps", type=int, default=None, help="ledger: runs per workload")
    parser.add_argument("--out", default=None, help="ledger: where to write the results")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET_S,
                        help="wall-clock budget of one run, seconds")
    parser.add_argument("--protocol", default="2PC",
                        help="commit protocol of the rt_* workloads")
    parser.add_argument("--pins", default=DEFAULT_PINS,
                        help="pinned fingerprints of the default seed")
    parser.add_argument("--update-pins", action="store_true",
                        help="write this run's fingerprints to --pins instead of checking them")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# one run
# --------------------------------------------------------------------------- #
def _build(args: argparse.Namespace, scale: float):
    sys.path.insert(0, SRC_DIR)
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise SystemExit(
            f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}"
        )
    with open(args.pins) as handle:
        pins = {} if args.update_pins else json.load(handle)
    if issubclass(cls, workloads.RuntimeWorkload):
        return cls(args.seed, scale, pins, protocol=args.protocol)
    return cls(args.seed, scale, pins)


def _child_command(args: argparse.Namespace, *extra: str) -> List[str]:
    return [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--protocol", args.protocol,
        "--pins", args.pins,
        "--budget", str(args.budget),
        *extra,
    ]


def _probe_setup(args: argparse.Namespace, count: int) -> List[float]:
    """Seconds from spawning a fresh process to its first measured operation
    (interpreter start, imports, input generation, warm-up, ``service.start()``).
    """
    samples = []
    for _ in range(count):
        spawned = time.time()
        probe = subprocess.run(
            _child_command(args, "--setup-probe"),
            capture_output=True, text=True, timeout=args.budget,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        samples.append(float(probe.stdout.strip().splitlines()[-1]) - spawned)
    return samples


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _timings(rounds, wall: float, cpu: float) -> Dict[str, float]:
    """The four timings, each the median over the run's rounds, with wall
    seconds divided by ``wall`` and CPU seconds by ``cpu`` (both 1: raw)."""
    return {
        "trials_per_s": statistics.median(r.ops / r.wall for r in rounds) * wall,
        "commit_per_s": statistics.median(r.commits / r.wall for r in rounds) * wall,
        "overhead_ms_p50": statistics.median(r.overhead_ms for r in rounds) / wall,
        "cpu_ms_per_txn": statistics.median(1000.0 * r.cpu / r.txns for r in rounds) / cpu,
    }


def run_one(args: argparse.Namespace) -> int:
    contract = load_contract()
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: no program to measure under {SRC_DIR}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.quick:
        seconds = QUICK_SECONDS
    traced = bool(args.trace)
    if args.setup_probe:
        workload = _build(args, 0.0)
        workload.execute(traced=False)
        print(repr(workload.ready_at))
        return 0
    workload = _build(args, seconds / 10.0)

    declared = contract["per_layer" if traced else "end_to_end"]
    status, detail = "ok", {}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(args.budget)
    try:
        outcome = workload.execute(traced=traced)
        peak_rss_mb = _peak_rss_mb()  # before the probes add children
        attempted = sum(r.attempted for r in outcome.rounds)
        failed = sum(r.failed for r in outcome.rounds)
        if traced:
            values = {m["name"]: outcome.per_layer.get(m["name"], 0.0) for m in declared}
            unknown = sorted(set(outcome.per_layer) - set(values))
            if unknown:
                raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
            os.makedirs(OUT_DIR, exist_ok=True)
            with open(os.path.join(OUT_DIR, f"trace_{args.workload}.json"), "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "metrics": values, **outcome.trace}, handle)
        else:
            probes = 1 if seconds < 5 else SETUP_PROBES
            setup_samples = _probe_setup(args, probes)
            factor = slowdown([t for r in outcome.rounds for t in r.speed])
            raw = _timings(outcome.rounds, 1.0, 1.0)
            # reference seconds: CPU time scales with the machine, and so does the
            # wall time of a sweep; a timer-paced workload's wall time does not
            ref = _timings(outcome.rounds, 1.0 if workload.timer_paced else factor, factor)
            values = {
                "setup_s": statistics.median(setup_samples),
                **{f"ref.{name}": value for name, value in ref.items()},
                "peak_rss_mb": peak_rss_mb,
                "msgs_per_op": sum(r.msgs for r in outcome.rounds)
                / sum(r.ops for r in outcome.rounds),
            }
            detail.update(setup_samples_s=setup_samples, slowdown=factor, raw=raw)
        detail.update(
            notes=outcome.notes,
            fingerprints={
                name: [r.fingerprints[name] for r in outcome.rounds]
                for name in (outcome.rounds[0].fingerprints if outcome.rounds else ())
            },
        )
    except BudgetExceeded:
        # every operation of the run counts as failed
        status, attempted, failed, values = "budget_exceeded", 1, 1, {}
        print(f"bench: {args.workload} exceeded its {args.budget} s budget", file=sys.stderr)
    finally:
        signal.alarm(0)
    if status == "ok" and failed:
        status = "failed"

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    if args.update_pins and status == "ok" and detail["fingerprints"]:
        with open(args.pins) as handle:
            pins = json.load(handle)
        pins[args.workload] = detail["fingerprints"]
        with open(args.pins, "w") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
    for name, metric in metrics.items():
        if metric["value"] or not traced:  # layers a workload never enters read 0
            print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, value in detail.get("raw", {}).items():
        print(f"{name:40s} {value:.6g} {RAW_UNITS[name]}")
    print(f"{'failed_share':40s} {failed / attempted:.6g} share ({failed}/{attempted})")
    detail.update(status=status, workload=args.workload, seed=args.seed,
                  seconds=seconds, traced=traced, failed_share=failed / attempted)
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": status == "ok", "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if status == "ok" else 1


# --------------------------------------------------------------------------- #
# the ledger
# --------------------------------------------------------------------------- #
def _spawn_run(args: argparse.Namespace, workload: str, seconds: float, trace: int):
    """One fresh subprocess; returns ``(result, detail)`` from its last lines."""
    child = argparse.Namespace(**{**vars(args), "workload": workload})
    command = _child_command(
        child, "--seconds", repr(seconds), "--trace", str(trace)
    )
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=2 * args.budget
        )
    except subprocess.TimeoutExpired:
        return None, {"status": "budget_exceeded"}
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    detail = next(
        (json.loads(line[len("DETAIL "):]) for line in lines if line.startswith("DETAIL ")),
        {"status": "crashed"},
    )
    try:
        return json.loads(lines[-1]), detail
    except (IndexError, ValueError):
        return None, detail


def run_ledger(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = QUICK_SECONDS if args.quick else (
        args.seconds if args.seconds is not None else contract["run_seconds"]
    )
    reps = args.reps if args.reps is not None else DEFAULT_REPS
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update(RAW_UNITS, failed_share="share")
    ledger: Dict[str, Any] = {
        "provenance": provenance(
            seed=args.seed, seconds=seconds, quick=args.quick, reps=reps,
            protocol=args.protocol, budget_s=args.budget,
        ),
        "workloads": {},
    }
    breach = False
    for name in names:
        samples: Dict[str, List[float]] = {}
        row: Dict[str, Any] = {"status": "ok", "runs": []}
        for rep in range(reps):
            result, detail = _spawn_run(args, name, seconds, trace=0)
            row["runs"].append(detail)
            if result is None or not result["correct"]:
                row["status"] = detail.get("status", "failed")
            samples.setdefault("failed_share", []).append(
                result["failed"] / result["attempted"] if result else 1.0
            )
            for metric, entry in (result["metrics"] if result else {}).items():
                samples.setdefault(metric, []).append(entry["value"])
            for metric, value in detail.get("raw", {}).items():
                samples.setdefault(metric, []).append(value)
        row["metrics"] = {
            metric: {"unit": units[metric], **summarise(values)}
            for metric, values in samples.items()
        }
        if args.trace:
            result, detail = _spawn_run(args, name, seconds, trace=1)
            row["traced_run"] = detail
            if result is None or not result["correct"]:
                row["status"] = detail.get("status", "failed")
            row["per_layer"] = result["metrics"] if result else {}
        breach = breach or row["status"] != "ok"
        ledger["workloads"][name] = row
        print(f"== {name}: {row['status']} ({reps} runs)")
        for metric, entry in row["metrics"].items():
            print(f"  {metric:38s} {entry['median']:.6g} {entry['unit']}"
                  f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g},"
                  f" spread {100 * spread(entry):.2f} %, n={entry['n']}]")
        for metric, entry in row.get("per_layer", {}).items():
            if entry["value"]:
                print(f"  {metric:38s} {entry['value']:.6g} {entry['unit']}")
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"results written to {out}")
    return 1 if breach else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.reps is not None or args.out is not None or args.workload is None:
        return run_ledger(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
