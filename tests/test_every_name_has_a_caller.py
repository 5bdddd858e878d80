"""No public name without a caller in the system.

Every function, coroutine and class defined under ``src/repro`` must be
referenced somewhere in the code that makes up the system: ``src/``,
``bench/``, ``benchmarks/``, ``examples/`` or ``scripts/``.  A module-level
definition is referenced as a bare name or as an attribute; one nested in a
class (a method, a nested class) only as an attribute, since a local variable
that shares a method's name does not call it.  Tests do not count as
callers: a name only tests reach is test scaffolding shipped as library code.
Import lines, ``__all__`` entries and docstrings are not references either
(the scan reads ``ast.Name`` and ``ast.Attribute`` nodes only), so a name that
is merely exported stays an orphan.

The match is by name, not by type: ``obj.size`` anywhere keeps every
definition called ``size``.  That errs towards keeping names, never towards
deleting one that has a caller.

``KEPT`` lists the few definitions kept without a caller in the system, each
with the reason it stays; an entry that gains a caller or disappears must
leave the list, so the list cannot rot.

The scan parses source text and imports nothing from ``repro``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SYSTEM = ("src", "bench", "benchmarks", "examples", "scripts")

_ENTRY = "a README or documentation entry point"
_ORACLE = "a paper oracle that the classifier and lower-bound checks will call"

#: dotted path under ``repro`` -> why the definition stays without a caller
KEPT: Dict[str, str] = {
    "runtime.runtime.run_commit": _ENTRY + " (README, docs/runtime.md)",
    "runtime.runtime.AsyncRuntime.timed_out": _ENTRY + " (docs/runtime.md)",
    "core.checker.NBACReport.solves_nbac": _ENTRY + " (README quickstart)",
    "core.checker.evaluate_problem": _ENTRY + " (docs/runtime.md)",
    "obs.progress.read_jsonl": _ENTRY + " (docs/observability.md)",
    "exp.spec.mixed_votes": _ENTRY + " (docs/determinism.md)",
    "runtime.cluster.AsyncClusterService.recover_partition": _ENTRY
    + " (the live service's fault-injection API, docs/runtime.md)",
    "core.lattice.PropertyPair.synchronous_nbac": _ORACLE,
    "core.lattice.PropertyPair.weakest": _ORACLE,
    "core.lattice.least_robust": _ORACLE,
    "core.lattice.local_maxima": _ORACLE,
    "core.table1.CellBound.as_fraction": _ORACLE,
    "core.table1.message_lower_bound": _ORACLE,
    "core.table1.table1_bounds": _ORACLE,
    "core.table1.complexity_groups": _ORACLE,
    "core.table1.delay_groups": _ORACLE,
    "core.table1.tradeoff_cells": _ORACLE,
    "analysis.formulas.two_delay_message_lower_bound": _ORACLE,
    "analysis.formulas.one_delay_message_lower_bound": _ORACLE,
    "core.properties.is_nice_execution": _ORACLE,
    "sim.network.AdversarialDelay": "a delay model the kernel tests build schedules with",
    "db.wal.WriteAheadLog.tear_final_record": "the torn-write fault the WAL tests inject",
    "exp.spec.GridSpec.size": "what the sweep tests compare a grid's expansion against",
    "lint.sanitizer.maybe_install": "called by repro/__init__ under an import alias",
}


def _definitions(
    tree: ast.AST, prefix: str, in_class: bool = False
) -> Iterator[Tuple[int, str, str, bool]]:
    """``(line, name, dotted path, in a class)`` of every def and class, nested
    ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = f"{prefix}.{node.name}"
            yield node.lineno, node.name, path, in_class
            yield from _definitions(node, path, isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


@functools.lru_cache(maxsize=1)
def _scan() -> Tuple[List[Tuple[str, int, str, str]], Set[str]]:
    """Every definition under ``src/repro`` and every reference the system makes.

    A reference is recorded as ``"name"`` for a bare name and ``".name"`` for
    an attribute; a definition in a class is keyed by ``".name"`` only.
    """
    definitions = []
    referenced: Set[str] = set()
    for top in SYSTEM:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.update((node.attr, "." + node.attr))
            if PACKAGE not in path.parents:
                continue
            parts = path.relative_to(PACKAGE).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            for line, name, dotted, in_class in _definitions(tree, module):
                if name.startswith("visit_") or (
                    name.startswith("__") and name.endswith("__")
                ):
                    continue
                where = path.relative_to(ROOT).as_posix()
                key = "." + name if in_class else name
                definitions.append((where, line, key, dotted))
    return definitions, referenced


def test_every_name_in_src_has_a_caller_in_the_system():
    definitions, referenced = _scan()
    orphans = [
        f"{where}:{line} {dotted.rpartition('.')[2]}"
        for where, line, key, dotted in definitions
        if key not in referenced and dotted not in KEPT
    ]
    assert not orphans, (
        f"{len(orphans)} definitions have no caller in {', '.join(SYSTEM)} "
        "(delete them with their tests, or give a reason in KEPT):\n"
        + "\n".join(orphans)
    )


def test_every_kept_name_exists_and_still_has_no_caller():
    definitions, referenced = _scan()
    orphaned = {dotted for _, _, key, dotted in definitions if key not in referenced}
    stale = sorted(set(KEPT) - orphaned)
    assert not stale, f"KEPT entries that are gone or now have a caller: {stale}"
