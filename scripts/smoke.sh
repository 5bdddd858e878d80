#!/usr/bin/env bash
# Smoke check: everything a PR must keep working, in one command.
#
#   bash scripts/smoke.sh
#
# Runs, in order:
#   1. the tier-1 test suite exactly as ROADMAP.md specifies (collection
#      regressions — e.g. the benchmarks/tests conftest collision — fail here);
#      it includes the packaging check (tests/test_packaging.py), the runtime
#      round-trip (tests/test_env_conformance.py) and the observability
#      checks (tests/test_obs_*.py: observed == unobserved fingerprints, the
#      JSONL progress stream's shape, the Chrome export's commit phases);
#   2. a sanity check that `pytest benchmarks` actually *collects* the
#      bench_*.py experiments instead of silently reporting "no tests ran";
#   3. a check that every benchmark runs on the repro.exp sweep engine,
#      directly or through a repro.analysis table builder (no hand-rolled
#      protocol x grid loops may sneak back in);
#   4. the benchmark list the CI smoke job runs (E1-E5, the ablation,
#      Figure 1, E7, E9, E10 and E11), with timing disabled;
#   5. all examples;
#   6. a small sweep-throughput perf smoke: the core must emit its JSON
#      baseline and both trace levels must produce identical aggregate
#      fingerprints;
#   7. a profile-first smoke (scripts/profile_smoke.sh): a profiled n=200
#      sweep (REPRO_PROFILE=1) must dump cProfile data and `python -m
#      repro.obs.profile` must fold it into a top-10 cumulative hot-spot
#      report ending in the cycle-collector line — the evidence any future
#      perf PR starts from — and that line must count at most 4 collections
#      (trials run with the collector paused);
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
#  11. a crash-recovery smoke: kill one partition mid-run and rejoin it from
#      its write-ahead log on BOTH backends (sim via FaultPlan.crash_recover,
#      asyncio via the live service), asserting the rejoined run still
#      commits with the invariant battery clean, plus the policy check that
#      the lint scope table exempts DET002 only under src/repro/runtime/ and
#      src/repro/obs/.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> [1/11] tier-1 tests (pytest from the repo root)"
python -m pytest -x -q

echo "==> [2/11] benchmark collection (must be > 0 tests)"
collected=$(python -m pytest benchmarks --collect-only -q 2>/dev/null | grep -c '::' || true)
if [ "${collected}" -eq 0 ]; then
    echo "ERROR: 'pytest benchmarks' collected zero tests" >&2
    exit 1
fi
echo "    collected ${collected} benchmark tests"

echo "==> [3/11] every benchmark is ported onto repro.exp"
# the table benchmarks (E1-E5) reach the sweep engine through the
# repro.analysis table builders, which each run one repro.exp sweep
for bench in benchmarks/bench_*.py; do
    if ! grep -q "from repro\.exp import\|from repro\.analysis import build_table" "${bench}"; then
        echo "ERROR: ${bench} imports neither repro.exp nor a repro.analysis table builder (hand-rolled sweep loop?)" >&2
        exit 1
    fi
done
echo "    all $(ls benchmarks/bench_*.py | wc -l | tr -d ' ') benchmarks import repro.exp or a table builder"

echo "==> [4/11] the CI smoke job's benchmarks"
python -m pytest benchmarks/bench_table1.py benchmarks/bench_table2_delay_optimal.py benchmarks/bench_table3_message_optimal.py benchmarks/bench_table4_summary.py benchmarks/bench_table5_protocols.py benchmarks/bench_ablation_backups.py benchmarks/bench_figure1_inbac_states.py benchmarks/bench_db_commit_latency.py benchmarks/bench_exploration.py benchmarks/bench_robustness_matrix.py benchmarks/bench_large_scale_sweeps.py -q --benchmark-disable

echo "==> [5/11] examples"
for example in examples/*.py; do
    echo "--- ${example}"
    python "${example}" > /dev/null
done

echo "==> [6/11] sweep-throughput perf smoke (trace levels)"
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
    for column in ("full t/s", "counters t/s"):
        assert config[column] > 0, (column, config)
# the frozen legacy / heap columns ride along from the committed baseline
assert baseline["history"]["configs"], "frozen history block missing"
print(f"    baseline emitted with {len(baseline['configs'])} configs, "
      f"fingerprints identical across core variants")
EOF
rm -f "${bench_out}"

echo "==> [7/11] profile-first smoke (cProfile top-10 hot spots, n=200)"
# measure before optimising: profile the heavy grid point the throughput
# work targets and print where the cycles actually go
bash scripts/profile_smoke.sh

echo "==> [8/11] schedule-exploration smoke (adversarial search + replay)"
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
                seeds=[violations[0].base_seed])
stored = ScheduleTrace.from_json(shrunk.to_json())
replays = [replay_trial(grid.trials()[0], stored) for _ in range(2)]
fingerprints = {r.extra["trace_fingerprint"] for r in replays}
assert fingerprints == {violations[0].shrunk_fingerprint}, fingerprints
print(f"    INBAC: 0 violations in {inbac.schedules_run} schedules; "
      f"2PC: {twopc.violation_count} violations, counterexample of "
      f"{len(shrunk)} decision(s) replays deterministically")
EOF

echo "==> [9/11] cluster-exploration smoke (invariant battery + injected bug)"
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

echo "==> [10/11] determinism lint + runtime sanitizer"
python -m repro.lint src benchmarks tests examples scripts --sanitize

echo "==> [11/11] crash recovery: kill-and-rejoin one partition per backend"
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

echo "smoke: OK"
