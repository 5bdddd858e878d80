"""What ``import repro`` loads: no static analyser and no pool machinery.

A reader who imports the package to check the paper's Table 1 cells pays
for the reproduction only.  The static analyser lives outside the package
(``python -m tools.lint``); the runtime sanitizer is imported only when
``REPRO_SANITIZE=1`` arms it; ``multiprocessing`` is imported only by a
sweep that runs a pool.  Each check starts a fresh interpreter, since this
one has long since loaded everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PRINT_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _modules_after(code: str, **environ: str) -> set:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SANITIZE"}
    env.update(PYTHONPATH=str(SRC), **environ)
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_PRINT_MODULES}"],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _pool_or_analyser(modules: set) -> list:
    return sorted(
        name for name in modules
        if name.split(".")[0] in ("multiprocessing", "concurrent", "tools")
        or name.startswith("repro.lint")
        or name == "repro.sanitizer"
    )


def test_import_repro_loads_no_analyser_and_no_pool_machinery():
    modules = _modules_after("import repro")
    assert "repro.exp.engine" in modules
    assert _pool_or_analyser(modules) == []


def test_a_serial_sweep_loads_no_pool_machinery():
    modules = _modules_after(
        "from repro import GridSpec, run_sweep\n"
        "grid = GridSpec(protocols=['2PC', 'INBAC'], systems=[(3, 1)], seeds=range(4))\n"
        "assert len(run_sweep(grid, workers=1).trials) == 8"
    )
    assert _pool_or_analyser(modules) == []


def test_repro_sanitize_arms_the_sanitizer_at_import():
    # the spawn re-arm path: a pool worker re-imports repro with the flag set
    modules = _modules_after(
        "import repro\n"
        "from repro import sanitizer\n"
        "from repro.sim.trace import Trace\n"
        "assert sanitizer.is_installed()\n"
        "assert Trace.fingerprint.__name__ == 'checked_fingerprint'",
        REPRO_SANITIZE="1",
    )
    assert "repro.sanitizer" in modules
    assert not any(name.split(".")[0] == "tools" for name in modules)
