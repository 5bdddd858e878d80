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
#      protocol x grid loops may sneak back in);
#   3. a small sweep-throughput perf smoke: the core must emit its JSON
#      baseline and both trace levels must produce identical aggregate
#      fingerprints.
#
# What it no longer runs, and what does (.github/workflows/ci.yml jobs):
#   - the tier-1 suite: the `tests` job;
#   - the paper's tables and the other benchmarks nothing in tier-1 runs
#     (E1-E5, ablation, Figure 1, E7, E9, E10, E11), the examples and
#     scripts/profile_smoke.sh: steps of the `smoke` job;
#   - `python -m repro.lint ... --sanitize`: the `lint` job;
#   - the schedule-exploration smoke: tier-1's tests/test_explore_driver.py
#     (TestIndulgentProtocolsSurvive, TestTwoPhaseCommitCounterexample,
#     TestReplayDeterminism);
#   - the cluster-exploration smoke: tier-1's tests/test_explore_cluster.py
#     (TestClusterAnomalyHunt::test_real_protocols_pass_the_battery_clean,
#     ::test_split_brain_is_found_and_shrunk_to_one_decision);
#   - the crash-recovery smoke: tier-1's tests/test_recovery.py
#     (TestSimRejoin::test_rejoined_run_commits_the_fault_free_transaction_set),
#     tests/test_runtime_cluster.py
#     (TestRecovery::test_crash_and_rejoin_commits_the_fault_free_transaction_set)
#     and tests/test_lint_rules.py
#     (TestScopeExemptions::test_det002_is_the_only_scoped_rule), and the
#     `smoke` job's `benchmarks/bench_recovery.py --quick` step.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "==> [1/3] benchmark collection (must be > 0 tests)"
collected=$(python -m pytest benchmarks --collect-only -q 2>/dev/null | grep -c '::' || true)
if [ "${collected}" -eq 0 ]; then
    echo "ERROR: 'pytest benchmarks' collected zero tests" >&2
    exit 1
fi
echo "    collected ${collected} benchmark tests"

echo "==> [2/3] every benchmark is ported onto repro.exp"
# the table benchmarks (E1-E5) reach the sweep engine through the
# repro.analysis table builders, which each run one repro.exp sweep
for bench in benchmarks/bench_*.py; do
    if ! grep -q "from repro\.exp import\|from repro\.analysis import build_table" "${bench}"; then
        echo "ERROR: ${bench} imports neither repro.exp nor a repro.analysis table builder (hand-rolled sweep loop?)" >&2
        exit 1
    fi
done
echo "    all $(ls benchmarks/bench_*.py | wc -l | tr -d ' ') benchmarks import repro.exp or a table builder"

echo "==> [3/3] sweep-throughput perf smoke (trace levels)"
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

echo "smoke: OK"
