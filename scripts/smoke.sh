#!/usr/bin/env bash
# Smoke check: everything a PR must keep working, in one command.
#
#   bash scripts/smoke.sh
#
# Runs, in order:
#   1. the tier-1 test suite exactly as ROADMAP.md specifies (collection
#      regressions — e.g. the benchmarks/tests conftest collision — fail here);
#   2. a sanity check that `pytest benchmarks` actually *collects* the
#      bench_*.py experiments instead of silently reporting "no tests ran";
#   3. a check that every benchmark runs on the repro.exp sweep engine
#      (no hand-rolled protocol x grid loops may sneak back in);
#   4. one fast benchmark end-to-end;
#   5. all examples;
#   6. a small sweep-throughput perf smoke: the core must emit its JSON
#      baseline and every core configuration (trace levels, fold paths) must
#      produce identical aggregate fingerprints;
#   7. a profile-first smoke: a profiled n=200 sweep (REPRO_PROFILE=1) must
#      dump cProfile data and `python -m repro.obs.profile` must fold it into
#      a top-10 cumulative hot-spot report — the evidence any future perf PR
#      starts from;
#   8. a schedule-exploration smoke: a small adversarial budget over INBAC
#      (zero violations within the resilience bound) and 2PC (the known
#      coordinator-crash termination violation, shrunk to <= 5 decisions),
#      plus a replay-determinism check of one stored ScheduleTrace;
#   9. a cluster-exploration smoke: a tiny cluster-anomaly budget must leave
#      the cluster-invariant battery (atomicity / durability / lock safety)
#      clean for a real commit protocol, while the deliberately broken
#      split-brain coordinator from the test tree is caught and shrunk to a
#      1-minimal counterexample;
#  10. the determinism & spawn-safety static-analysis pass (python -m
#      repro.lint) must exit 0 over src/benchmarks/tests, and the runtime
#      determinism sanitizer must run the reference sweep clean plus the
#      cross-PYTHONHASHSEED fingerprint diff (see docs/determinism.md);
#  11. a bounded runtime round-trip: every registered commit protocol must
#      commit one real transaction on the simulator's kernel paced by the
#      wall clock (repro.runtime, hard timeout), one protocol must decide the
#      same values at the same times on both backends under one delay model
#      and seed, and the packaging discovery must ship every subpackage
#      (import repro.runtime from an emulated installed layout);
#  12. a crash-recovery smoke: kill one partition mid-run and rejoin it from
#      its write-ahead log on BOTH backends (sim via FaultPlan.crash_recover,
#      asyncio via the live service), asserting the rejoined run still
#      commits with the invariant battery clean, plus the policy check that
#      the lint scope table exempts DET002 only under src/repro/runtime/ and
#      src/repro/obs/;
#  13. an observability smoke: a sweep streamed through a jsonl progress
#      reporter must fingerprint-match the unobserved run and emit a
#      well-formed event stream, the Chrome trace export must carry every
#      commit phase, and scripts/bench_report.py must fold every BENCH_*.json
#      baseline into one trajectory summary.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> [1/13] tier-1 tests (pytest from the repo root)"
python -m pytest -x -q

echo "==> [2/13] benchmark collection (must be > 0 tests)"
collected=$(python -m pytest benchmarks --collect-only -q 2>/dev/null | grep -c '::' || true)
if [ "${collected}" -eq 0 ]; then
    echo "ERROR: 'pytest benchmarks' collected zero tests" >&2
    exit 1
fi
echo "    collected ${collected} benchmark tests"

echo "==> [3/13] every benchmark is ported onto repro.exp"
for bench in benchmarks/bench_*.py; do
    if ! grep -q "from repro\.exp import" "${bench}"; then
        echo "ERROR: ${bench} does not import repro.exp (hand-rolled sweep loop?)" >&2
        exit 1
    fi
done
echo "    all $(ls benchmarks/bench_*.py | wc -l | tr -d ' ') benchmarks import repro.exp"

echo "==> [4/13] one fast benchmark"
python -m pytest benchmarks/bench_table2_delay_optimal.py -q --benchmark-disable

echo "==> [5/13] examples"
for example in examples/*.py; do
    echo "--- ${example}"
    python "${example}" > /dev/null
done

echo "==> [6/13] sweep-throughput perf smoke (trace levels x fold paths)"
bench_out=$(mktemp)
python benchmarks/bench_sweep_throughput.py --quick --out "${bench_out}" > /dev/null
python - "${bench_out}" <<'EOF'
import json, sys

with open(sys.argv[1]) as handle:
    baseline = json.load(handle)
assert baseline["benchmark"] == "sweep_throughput"
assert baseline["configs"], "no measured configurations in the baseline"
for config in baseline["configs"]:
    # run_battery already asserted the cross-variant fingerprint equality;
    # re-assert the emitted record is complete
    assert config["fingerprint"], config
    for column in ("full+trial t/s", "counters+trial t/s", "counters+chunk t/s"):
        assert config[column] > 0, (column, config)
# the frozen legacy / heap columns ride along from the committed baseline
assert baseline["history"]["configs"], "frozen history block missing"
print(f"    baseline emitted with {len(baseline['configs'])} configs, "
      f"fingerprints identical across core variants")
EOF
rm -f "${bench_out}"

echo "==> [7/13] profile-first smoke (cProfile top-10 hot spots, n=200)"
# measure before optimising: profile the heavy grid point the throughput
# work targets and print where the cycles actually go.  REPRO_PROFILE dumps
# one .prof per unit of work; the report folds them all.
profile_dir=$(mktemp -d)
REPRO_PROFILE=1 REPRO_PROFILE_DIR="${profile_dir}" python - <<'EOF'
from repro.exp import GridSpec, run_sweep

grid = GridSpec(protocols=["INBAC"], systems=[(200, 40)], seeds=range(2),
                max_time=1000)
agg = run_sweep(grid, workers=1, mode="aggregate")
assert agg.error_count == 0, agg.sample_errors
EOF
python -m repro.obs.profile "${profile_dir}" --sort cumulative --limit 10
rm -rf "${profile_dir}"

echo "==> [8/13] schedule-exploration smoke (adversarial search + replay)"
python - <<'EOF'
from repro.explore import ScheduleTrace, explore, replay_trial
from repro.exp.spec import GridSpec

# INBAC is indulgent: no admissible schedule within the resilience bound
# may break any of agreement / validity / termination
inbac = explore("INBAC", n=5, f=2, budget=40, strategy="random-walk", seed=7)
assert not inbac.errors, inbac.errors[:1]
assert inbac.violation_count == 0, [v.describe() for v in inbac.violations]

# 2PC blocks: the walk must find the coordinator-crash termination
# violation and shrink it to a tiny counterexample
twopc = explore("2PC", n=5, f=2, budget=40, strategy="random-walk", seed=7)
assert not twopc.errors, twopc.errors[:1]
violations = twopc.violations_of("termination")
assert violations, "2PC termination violation not found within the budget"
shrunk = violations[0].shrunk
assert shrunk is not None and len(shrunk) <= 5, shrunk

# replay determinism: the stored ScheduleTrace survives serialisation and
# reproduces the identical trace fingerprint
grid = GridSpec(protocols=["2PC"], systems=[(5, 2)],
                schedules=[("random-walk", "random-walk", {})],
                seeds=[violations[0].base_seed], trace_level="full")
stored = ScheduleTrace.from_json(shrunk.to_json())
replays = [replay_trial(grid.trials()[0], stored) for _ in range(2)]
fingerprints = {r.extra["trace_fingerprint"] for r in replays}
assert fingerprints == {violations[0].shrunk_fingerprint}, fingerprints
print(f"    INBAC: 0 violations in {inbac.schedules_run} schedules; "
      f"2PC: {twopc.violation_count} violations, counterexample of "
      f"{len(shrunk)} decision(s) replays deterministically")
EOF

echo "==> [9/13] cluster-exploration smoke (invariant battery + injected bug)"
python - <<'EOF'
import sys
sys.path.insert(0, "tests")  # the injected-bug fixture lives in the test tree

from broken_protocols import SplitBrainCommit
from repro.explore import explore

WORKLOAD = ("uniform3", "uniform", {"transactions": 4})

# the real protocol survives crash-point enumeration over every partition
# and the client coordinator with a clean invariant battery
clean = explore("INBAC", n=3, f=1, budget=16, workload=WORKLOAD,
                preset="cluster-anomaly", max_time=150.0)
assert not clean.errors, clean.errors[:1]
assert clean.violation_count == 0, [v.describe() for v in clean.violations]

# the split-brain fixture must be caught (atomicity: one partition applies a
# transaction another aborted) and shrunk to a single crash decision
broken = explore(("SplitBrain2PC", SplitBrainCommit), n=3, f=1, budget=16,
                 workload=WORKLOAD, preset="cluster-anomaly", max_time=150.0)
assert not broken.errors, broken.errors[:1]
hits = broken.violations_of("agreement")
assert hits, "the split-brain atomicity bug was not found"
assert any("committed on partitions" in d for d in hits[0].details), hits[0]
assert hits[0].shrunk is not None and len(hits[0].shrunk) == 1, hits[0].shrunk
print(f"    INBAC: battery clean over {clean.schedules_run} schedules; "
      f"SplitBrain2PC: {broken.violation_count} violations, shrunk to "
      f"{len(hits[0].shrunk)} decision")
EOF

echo "==> [10/13] determinism lint + runtime sanitizer"
python -m repro.lint src benchmarks tests examples --sanitize

echo "==> [11/13] runtime round-trip (one kernel paced by the wall clock, hard timeout)"
python - <<'EOF2'
import signal

# a hard wall-clock ceiling for the whole stage: a runtime deadlock must
# fail the smoke, not hang it
def _expired(signum, frame):
    raise TimeoutError("runtime round-trip exceeded the 120 s stage budget")

signal.signal(signal.SIGALRM, _expired)
signal.alarm(120)

from repro.protocols.base import COMMIT
from repro.protocols.registry import get_protocol, protocol_names
from repro.runtime import run_commit
from repro.sim.network import FixedDelay
from repro.sim.runner import Simulation

n, f = 4, 1
for name in protocol_names():
    # the paced kernel handles overdue events in (time, kind) order, so a
    # host stall delays a run but cannot change what it decides: no retry
    result = run_commit(name, n, f, [1] * n, timeout_units=200.0)
    assert not result.timed_out, f"{name} timed out on the asyncio runtime"
    assert result.errors == [], (name, result.errors)
    assert result.all_agree and result.decision == COMMIT, (name, result.decisions)
    assert len(result.decisions) == n, (name, result.decisions)

# one network model on both backends: same delay model and seed, same
# decision values at the same stamped times
votes = [0, 1, 1, 1]
runtime = run_commit("INBAC", n, f, votes, delay_model=FixedDelay(1.0), seed=5, unit=0.002)
sim = Simulation(
    n, f, process_class=get_protocol("INBAC").cls, delay_model=FixedDelay(1.0), seed=5
).run(votes)
decided = lambda trace: {p: (r.value, r.time) for p, r in trace.decisions.items()}
assert decided(runtime.trace) == decided(sim.trace), (decided(runtime.trace), decided(sim.trace))
signal.alarm(0)
print(f"    {len(protocol_names())} protocols committed for real on the paced kernel;"
      " INBAC decides the same values at the same times on both backends")
EOF2
python -m pytest tests/test_packaging.py -q

echo "==> [12/13] crash recovery: kill-and-rejoin one partition per backend"
python - <<'EOF3'
import signal

# a hard wall-clock ceiling: a recovery deadlock must fail the smoke, not
# hang it
def _expired(signum, frame):
    raise TimeoutError("crash-recovery smoke exceeded the 120 s stage budget")

signal.signal(signal.SIGALRM, _expired)
signal.alarm(120)

from repro.db import ClusterConfig, run_cluster
from repro.db.transaction import Operation, Transaction
from repro.protocols.base import COMMIT
from repro.sim.faults import FaultPlan

TXNS = [
    Transaction.of("t-early",
                   [Operation.write(1, "a", 10), Operation.write(2, "b", 20)],
                   submit_time=0.0),
    Transaction.of("t-after-rejoin",
                   [Operation.write(2, "b", 21), Operation.write(3, "c", 30)],
                   submit_time=60.0),
]
committed = lambda report: {
    o.txn_id for o in report.outcomes if o.decision == COMMIT
}

for backend in ("sim", "asyncio"):
    config = ClusterConfig(
        num_partitions=3, commit_protocol="INBAC", commit_f=1, seed=5,
        max_time=400.0,
        fault_plan=FaultPlan.crash_recover(2, at=20.0, rejoin_at=40.0),
    )
    report = run_cluster(config, TXNS, backend=backend)
    assert committed(report) == {"t-early", "t-after-rejoin"}, (
        backend, committed(report))
    assert report.invariants is not None and report.invariants.holds, backend
    [event] = report.recovery_events
    assert event.pid == 2 and event.rejoined_at > event.crashed_at, event
    assert event.replayed_transactions >= 1, event

# the lint scope table is policy: DET002 is the only scoped rule, exempt
# only under the runtime and observability packages (both exist to read the
# wall clock; OBS001 keeps the obs package out of deterministic layers)
from repro.lint.rules import SCOPE_EXEMPTIONS

assert SCOPE_EXEMPTIONS == {
    "DET002": ("src/repro/runtime/", "src/repro/obs/")
}, SCOPE_EXEMPTIONS
signal.alarm(0)
print("    both backends rejoined P2 from its WAL and kept committing; "
      "lint scope policy pinned")
EOF3

echo "==> [13/13] observability: progress stream, trace export, bench report"
obs_dir=$(mktemp -d)
python - "${obs_dir}" <<'EOF4'
import json
import sys

from repro.exp import GridSpec, run_sweep
from repro.obs import read_jsonl

obs_dir = sys.argv[1]
grid = lambda: GridSpec(
    protocols=["INBAC", "2PC"],
    systems=[(5, 2)],
    delays=["uniform"],
    seeds=range(10),
)
plain = run_sweep(grid(), workers=1, mode="aggregate", fold="chunk")
progress_path = f"{obs_dir}/progress.jsonl"
observed = run_sweep(grid(), workers=1, mode="aggregate", fold="chunk",
                     progress=f"jsonl:{progress_path}")
# observation never changes bytes: the hard constraint of the obs package
assert observed.aggregate_fingerprint() == plain.aggregate_fingerprint(), (
    "observed sweep fingerprint diverged from the unobserved run")
assert observed.meta == plain.meta

records = read_jsonl(progress_path)
assert records[0]["phase"] == "start", records[:1]
assert records[-1]["phase"] == "summary", records[-1:]
chunks = [r for r in records if r["phase"] == "chunk"]
assert chunks, "no chunk-progress events in the stream"
assert records[-1]["trials_done"] == records[-1]["trials_total"] == 20
assert all(r["event"] == "sweep.progress" for r in records)
print(f"    progress stream: {len(records)} events "
      f"({len(chunks)} chunks), fingerprint identical to the unobserved run")
EOF4

python -m repro.obs.export --chrome "${obs_dir}/trace.json" > /dev/null
python - "${obs_dir}" <<'EOF5'
import json
import sys

from repro.obs.tracing import TXN_PHASES

with open(f"{sys.argv[1]}/trace.json") as handle:
    trace = json.load(handle)
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
names = {e["name"] for e in spans}
missing = set(TXN_PHASES) - names
assert not missing, f"trace export missing commit phases: {missing}"
print(f"    chrome trace: {len(spans)} spans covering all of {TXN_PHASES}")
EOF5

python scripts/bench_report.py --out "${obs_dir}/report.md" --json "${obs_dir}/report.json"
python - "${obs_dir}" <<'EOF6'
import json
import sys

with open(f"{sys.argv[1]}/report.json") as handle:
    report = json.load(handle)
names = {entry["benchmark"] for entry in report["benchmarks"]}
for expected in ("sweep_throughput", "obs_overhead"):
    assert expected in names, (expected, sorted(names))
assert report["total_points"] > 0
print(f"    bench report folded {len(names)} baselines, "
      f"{report['total_points']} measured points")
EOF6
rm -rf "${obs_dir}"

echo "smoke: OK"
