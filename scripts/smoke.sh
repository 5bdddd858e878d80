#!/usr/bin/env bash
# Smoke check: the gates that neither a CI job nor a tier-1 test runs.
#
#   bash scripts/smoke.sh
#
# Runs, in order:
#   1. a sanity check that `pytest benchmarks` actually *collects* the
#      bench_*.py experiments instead of silently reporting "no tests ran";
#   2. a check that every benchmark runs on the repro.exp sweep engine,
#      directly or through a repro.analysis table builder (no hand-rolled
#      protocol x grid loops may sneak back in).
#
# What it no longer runs, and what does (.github/workflows/ci.yml jobs):
#   - the tier-1 suite: the `tests` job;
#   - the paper's tables and the other benchmarks nothing in tier-1 runs
#     (E1-E5, ablation, Figure 1, E7, E9, E10, E11), the examples and
#     scripts/profile_smoke.sh: steps of the `smoke` job;
#   - `python -m tools.lint ... --sanitize`: the `lint` job;
#   - the schedule-exploration smoke: tier-1's tests/test_explore_driver.py
#     (TestIndulgentProtocolsSurvive, TestTwoPhaseCommitCounterexample,
#     TestReplayDeterminism);
#   - the cluster-exploration smoke: tier-1's tests/test_explore_cluster.py
#     (TestClusterAnomalyHunt::test_real_protocols_pass_the_battery_clean,
#     ::test_split_brain_is_found_and_shrunk_to_one_decision);
#   - the crash-recovery smoke: tier-1's tests/test_recovery.py
#     (TestSimRejoin::test_rejoined_run_commits_the_fault_free_transaction_set),
#     tests/test_runtime_cluster.py
#     (TestRecovery::test_crash_and_rejoin_commits_the_fault_free_transaction_set,
#     which runs the simulator on the same plan as its oracle)
#     and tests/test_lint_rules.py
#     (TestScopeExemptions::test_det002_is_the_only_scoped_rule);
#   - the trace-level fingerprint cross-check at n=20 and n=100: tier-1's
#     tests/test_exp_trace_levels.py
#     (TestSweepEquivalence::test_aggregate_fingerprints_identical_serial);
#   - sweep and runtime throughput: the bench/ ledger, `python bench/run.py`.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> [1/2] benchmark collection (must be > 0 tests)"
collected=$(python -m pytest benchmarks --collect-only -q 2>/dev/null | grep -c '::' || true)
if [ "${collected}" -eq 0 ]; then
    echo "ERROR: 'pytest benchmarks' collected zero tests" >&2
    exit 1
fi
echo "    collected ${collected} benchmark tests"

echo "==> [2/2] every benchmark is ported onto repro.exp"
# the table benchmarks (E1-E5) reach the sweep engine through the
# repro.analysis table builders, which each run one repro.exp sweep
for bench in benchmarks/bench_*.py; do
    if ! grep -q "from repro\.exp import\|from repro\.analysis import build_table" "${bench}"; then
        echo "ERROR: ${bench} imports neither repro.exp nor a repro.analysis table builder (hand-rolled sweep loop?)" >&2
        exit 1
    fi
done
echo "    all $(ls benchmarks/bench_*.py | wc -l | tr -d ' ') benchmarks import repro.exp or a table builder"

echo "smoke: OK"
