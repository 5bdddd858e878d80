"""Smoke test of the perf ledger: ``pytest bench/tests`` (outside tier-1's testpaths).

Drives ``bench/run.py --quick --trace`` once over every workload and checks the
shape of what comes out; a deliberately wrong pin must make a run fail.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
CHECK = os.path.join(BENCH_DIR, "check.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = _run(RUN, "--quick", "--trace", "--reps", "1", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return str(out), json.load(handle)


def test_contract_shape(contract):
    assert contract["paths"] == ["bench"]
    assert len(contract["workloads"]) == 6
    assert len(contract["end_to_end"]) <= 16
    assert len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names), names
    for metric in contract["end_to_end"]:
        assert metric["unit"] and 0 < metric["bound"] <= 0.25, metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_pairing_bounds_stay_within_the_contract(contract):
    with open(os.path.join(BENCH_DIR, "bounds.json")) as handle:
        bounds = json.load(handle)["bounds"]
    ceiling = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert set(bounds) == {w["name"] for w in contract["workloads"]}
    for workload, row in bounds.items():
        for metric, bound in row.items():
            assert 0 < bound <= ceiling[metric], (workload, metric)


def test_every_workload_reports_every_metric(contract, ledger):
    _, results = ledger
    assert set(results["workloads"]) == {w["name"] for w in contract["workloads"]}
    for stamp in ("git_commit", "python", "nproc", "numpy", "seed", "quick"):
        assert stamp in results["provenance"]
    for name, row in results["workloads"].items():
        assert row["status"] == "ok", (name, row["runs"])
        assert all(run["notes"]["workers"] >= 1 for run in row["runs"])
        assert row["metrics"]["failed_share"]["median"] == 0
        for metric in contract["end_to_end"]:
            entry = row["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["n"] == len(entry["raw"]) == 1
            assert entry["median"] > 0, (name, metric["name"])
        # the issue's timings in raw seconds ride along with their ref. twins
        for raw in ("trials_per_s", "commit_per_s", "overhead_ms_p50", "cpu_ms_per_txn"):
            assert row["metrics"][raw]["median"] > 0, (name, raw)
            assert f"ref.{raw}" in row["metrics"]
        assert set(row["per_layer"]) == {m["name"] for m in contract["per_layer"]}


def test_self_time_shares_sum_to_one(ledger):
    _, results = ledger
    for name, row in results["workloads"].items():
        shares = [
            entry["value"]
            for metric, entry in row["per_layer"].items()
            if metric.endswith(".self_share")
        ]
        assert abs(sum(shares) - 1.0) <= 0.01, (name, sum(shares))
        assert row["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_a_result_set_agrees_with_itself(ledger):
    path, _ = ledger
    done = _run(CHECK, path, path)
    assert done.returncode == 0, done.stdout
    assert " 0 worse" in done.stdout.splitlines()[-1]


def test_wrong_pin_fails_the_run(tmp_path):
    with open(os.path.join(BENCH_DIR, "pins.json")) as handle:
        pins = json.load(handle)
    pins["sweep_grid"]["mixed"][0] = "0" * 64
    wrong = tmp_path / "pins.json"
    wrong.write_text(json.dumps(pins))
    done = _run(RUN, "--workload", "sweep_grid", "--quick", "--pins", str(wrong))
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert "!= pinned" in done.stderr
