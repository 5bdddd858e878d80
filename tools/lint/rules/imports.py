"""IMP001: no import without a use.

Every name an ``import`` binds must be read in the scope that imports it: a
module-level import anywhere in its file, a function-local one inside that
function.  A read is an ``ast.Name`` (``Scheduler``, or ``repro`` in
``repro.sim.x``) or a module's ``__all__`` entry.  An import kept for its
side effect says so with ``# noqa: F401`` on its line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from tools.lint.ast_checks import FileContext, Rule, walk
from tools.lint.report import Finding

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
                    for c in walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return names


def _bound(node: ast.stmt) -> Iterator[str]:
    """The names an import statement binds (``repro`` for ``import repro.sim``)."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.partition(".")[0]
    elif node.module != "__future__":
        for alias in node.names:
            yield alias.asname or alias.name


class UnusedImportRule(Rule):
    """IMP001 — an imported name its scope never reads."""

    rule_id = "IMP001"
    description = "imported name never read in its scope (mark side-effect imports `# noqa: F401`)"
    kinds = ("src", "benchmarks", "tests", "examples", "other")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # each import belongs to the innermost function (or lambda) around it;
        # one in column 0 is a module statement, so only indented ones need
        # the parent map
        scopes: Dict[ast.AST, List[ast.stmt]] = {}
        for node in ctx.nodes():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                scope = ctx.parents().get(node) if node.col_offset else None
                while scope is not None and not isinstance(scope, _FUNCTIONS):
                    scope = ctx.parents().get(scope)
                scopes.setdefault(scope or ctx.tree, []).append(node)
        for scope, imports in scopes.items():
            read = {n.id for n in walk(scope) if isinstance(n, ast.Name)}
            if scope is ctx.tree:
                read |= _exported(ctx.tree)
            for statement in imports:
                span = ctx.lines[statement.lineno - 1 : statement.end_lineno]
                if any("noqa: F401" in line for line in span):
                    continue
                for name in _bound(statement):
                    if name not in read:
                        yield ctx.finding(
                            self.rule_id, statement,
                            f"{name!r} is imported but never used; delete the "
                            "import, or mark a side-effect import with `# noqa: F401`",
                        )
