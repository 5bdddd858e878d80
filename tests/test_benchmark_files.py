"""Every paper benchmark is a collected test on the sweep engine that CI runs.

``benchmarks/bench_*.py`` regenerate the paper's tables and figures.  Three
things keep them honest, each checked here by reading the files, not by
running them (CI's ``smoke`` job runs them):

* each defines at least one ``test_`` function, so ``pytest benchmarks``
  collects it instead of silently reporting "no tests ran";
* each runs on :mod:`repro.exp`, directly or through a ``repro.analysis``
  ``build_table*`` builder (which runs one sweep), so no hand-rolled
  protocol x grid loop sneaks back in;
* each is named in the CI step that runs the benchmarks, the one place
  nothing else in CI or tier-1 covers them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHES = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _runs_on_the_sweep_engine(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro.exp" or node.module.startswith("repro.exp."):
                return True
            if node.module == "repro.analysis" and any(
                alias.name.startswith("build_table") for alias in node.names
            ):
                return True
        elif isinstance(node, ast.Import) and any(
            alias.name == "repro.exp" or alias.name.startswith("repro.exp.")
            for alias in node.names
        ):
            return True
    return False


def _ci_benchmark_step() -> set:
    """The files the CI step that runs ``pytest benchmarks/...`` names."""
    steps = [
        line for line in CI.read_text(encoding="utf-8").splitlines()
        if re.search(r"python -m pytest benchmarks/", line)
    ]
    assert len(steps) == 1, steps
    return set(re.findall(r"benchmarks/(bench_\w+\.py)", steps[0]))


def test_there_are_benchmarks():
    assert len(BENCHES) >= 11


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_a_benchmark_defines_a_test(path):
    tests = [
        node.name for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    ]
    assert tests, f"{path.name} defines no test_ function: pytest collects nothing"


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.name)
def test_a_benchmark_runs_on_the_sweep_engine(path):
    assert _runs_on_the_sweep_engine(_tree(path)), (
        f"{path.name} imports neither repro.exp nor a repro.analysis "
        "build_table* builder (a hand-rolled sweep loop?)"
    )


def test_ci_runs_every_benchmark():
    assert _ci_benchmark_step() == {path.name for path in BENCHES}
