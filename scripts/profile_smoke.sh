#!/usr/bin/env bash
# Profile-first smoke: profile a serial INBAC n=200 sweep and print where the
# time goes.
#
#   bash scripts/profile_smoke.sh
#
# REPRO_PROFILE dumps one .prof per unit of work; `python -m repro.obs.profile`
# folds them into a top-10 cumulative hot-spot report that ends in the
# cycle-collector line.  Fails when that line is missing or counts more than 4
# collections: run_trial pauses the collector, so what is left is the work
# between trials, not one collection per trial's allocations.  A step of the
# CI smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

profile_dir=$(mktemp -d)
trap 'rm -rf "${profile_dir}"' EXIT
REPRO_PROFILE=1 REPRO_PROFILE_DIR="${profile_dir}" python - <<'EOF'
from repro.exp import GridSpec, run_sweep

grid = GridSpec(protocols=["INBAC"], systems=[(200, 40)], seeds=range(2),
                max_time=1000)
agg = run_sweep(grid, workers=1, mode="aggregate")
assert agg.error_count == 0, agg.sample_errors
EOF
report=$(python -m repro.obs.profile "${profile_dir}" --sort cumulative --limit 10)
echo "${report}"
# the collector's time is charged to whatever frame allocated: only this line
# shows it
collections=$(sed -n 's/^cycle collector: \([0-9]*\) collections, .*/\1/p' <<< "${report}")
if [ -z "${collections}" ]; then
    echo "ERROR: the profile report has no cycle-collector line" >&2
    exit 1
fi
if [ "${collections}" -gt 4 ]; then
    echo "ERROR: ${collections} collections in the profiled sweep (at most 4:" \
         "is run_trial still pausing the cycle collector?)" >&2
    exit 1
fi
