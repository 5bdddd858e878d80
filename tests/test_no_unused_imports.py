"""No import without a use.

Every name an ``import`` binds in ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``scripts/`` must be read in the scope that imports it: a
module-level import anywhere in its file, a function-local one inside that
function.  A read is an ``ast.Name`` (``Scheduler``, or ``repro`` in
``repro.sim.x``) or a module's ``__all__`` entry.  An import kept for its side
effect says so with ``# noqa: F401`` on its line.  ``bench/`` is left out: it
is the benchmark's own tree, checked by its own tests.  So is
``tests/lint_fixtures/``: its files are deliberately bad inputs to the
linter's tests, not code that runs.

The scan parses source text and imports nothing from ``repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "benchmarks", "examples", "scripts")
FIXTURES = ROOT / "tests" / "lint_fixtures"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names |= {
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return names


def _imports(scope: ast.AST) -> Iterator[Tuple[ast.stmt, str]]:
    """``(statement, bound name)`` of every import in ``scope`` itself, not in
    the functions nested in it."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name
        if not isinstance(node, _FUNCTIONS):
            yield from _imports(node)


def _unused(path: Path) -> Iterator[Tuple[int, str]]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    exported = _exported(tree)
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        for statement, name in _imports(scope):
            span = lines[statement.lineno - 1 : statement.end_lineno]
            if name not in read and not any("noqa: F401" in line for line in span):
                yield statement.lineno, name


def test_every_imported_name_is_used():
    unused: List[str] = []
    for top in TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            if FIXTURES in path.parents:
                continue
            where = path.relative_to(ROOT).as_posix()
            unused += [f"{where}:{line} {name}" for line, name in _unused(path)]
    assert not unused, (
        f"{len(unused)} imported names are never used (delete the import, or mark "
        "a side-effect import with `# noqa: F401`):\n" + "\n".join(unused)
    )
