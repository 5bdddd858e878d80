"""No pre-draw, no numpy: the delay path's shape, guarded by an AST walk.

A delay is one ``draw()`` on the trial's own model per counted message
(docs/performance.md, "Delay draws").  What that replaced — a sampler
pre-drawing 512 delays per trial from models that opted in with ``iid_delays``
/ ``sample_batch``, refilled through a numpy state round trip, threaded through
as ``delay_sampler=`` — cost more than the draws it saved at every size the
code could reach, and numpy was a third of ``import repro.exp``.  The names
are refused here so neither comes back as a few innocent-looking lines.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import repro

PACKAGE = os.path.dirname(repro.__file__)
SRC_DIR = os.path.dirname(PACKAGE)

REFUSED_IDENTIFIERS = {"sample_batch", "iid_delays", "delay_sampler"}


def _modules():
    for dirpath, _, filenames in sorted(os.walk(PACKAGE)):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, PACKAGE), ast.parse(handle.read(), path)


def _identifiers(node):
    """The names a node binds or reads (string constants are not names)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.arg, ast.keyword)):
        yield node.arg
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
        yield node.asname


def test_importing_the_package_does_not_load_numpy():
    script = (
        "import sys\n"
        "import repro.exp, repro.db, repro.runtime, repro.explore\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr or "numpy was imported"


def test_no_module_imports_numpy_or_names_the_sampler_plumbing():
    found = []
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            found.extend(
                f"{filename}:{node.lineno} imports {name}"
                for name in imported
                if name.split(".")[0] == "numpy"
            )
            found.extend(
                f"{filename}:{node.lineno} {name}"
                for name in _identifiers(node)
                if name in REFUSED_IDENTIFIERS
            )
    assert found == []
