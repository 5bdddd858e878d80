"""AST rule engine for :mod:`tools.lint`.

The engine walks Python files, parses each once, and hands a
:class:`FileContext` to every applicable rule.  Rules are small classes with

* ``rule_id`` — stable identifier (``DET001``, ``SP001``, ...),
* ``applies_to(ctx)`` — path-based scoping (most determinism rules only run
  over ``src/``; spawn-safety also covers ``benchmarks/``),
* ``check(ctx)`` — yields :class:`~tools.lint.report.Finding` objects.

A :class:`ProjectRule` (the dead-code rules) reads the whole system at once
instead, from the same parsed files plus its caller trees.

Allowlist policy: a finding may be suppressed by an inline pragma on the
flagged line or the line directly above it::

    # lint: allow[DET001] one-line justification of why this order is safe

The justification is mandatory — a bare ``allow`` pragma is itself reported
(rule ``LNT000``), so the allowlist can never silently grow.

The module also hosts the shared set-type inference helpers the determinism
and fingerprint-path rules use: a deliberately conservative, syntactic
propagation of "this expression is a ``set``/``frozenset``" through literals,
constructors, annotated locals/attributes and set operators.  Conservative
means: unknown types are never flagged, so the rules stay at zero false
positives on the idioms the codebase relies on (``sorted(set(...))``,
seeded ``Random`` threading, digest folds over ``sorted(counts)``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from tools.lint.report import Finding, LintReport

#: the trees CI lints: everything in the repo except the benchmark's own
#: ``bench/``, which the dead-code rules read as a caller tree only
LIVE_TREES = ("src", "benchmarks", "tests", "examples", "scripts", "tools")

#: the code that makes up the system, read by the whole-system rules as
#: callers whether linted or not; ``tests/`` is deliberately not one
CALLER_TREES = ("src", "bench", "benchmarks", "examples", "scripts", "tools")

#: directories the file walker never descends into
SKIP_DIRS = {"__pycache__", "lint_fixtures", ".git", ".claude", ".pytest_cache"}

#: builtins whose consumption of an unordered iterable is order-insensitive
SAFE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: method calls that fold an element into an unordered container (commutative)
ORDER_FREE_METHODS = frozenset({"add", "update", "discard", "remove", "merge"})

#: set-typed annotation heads (``Set[...]``, ``frozenset``, ...)
_SET_ANN_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)
_DICT_ANN_NAMES = frozenset({"dict", "Dict", "DefaultDict", "MutableMapping", "Mapping"})

_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\[(?P<rule>[A-Za-z0-9_,\s-]+)\]\s*(?P<why>.*)$"
)


# --------------------------------------------------------------------------- #
# tree walks
# --------------------------------------------------------------------------- #
def walk(node: ast.AST) -> List[ast.AST]:
    """``list(ast.walk(node))``, computed once per node.

    Rules walk the same trees many times over (the module for each rule,
    every function scope, every sink function), so a walk is kept on the
    node it started from and each later walk of it is a list read.
    """
    nodes = node.__dict__.get("_lint_walk")
    if nodes is None:
        nodes = node._lint_walk = list(ast.walk(node))  # type: ignore[attr-defined]
    return nodes


# --------------------------------------------------------------------------- #
# file context
# --------------------------------------------------------------------------- #
@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: Path
    relpath: str
    kind: str  # "src" | "benchmarks" | "tests" | "examples" | "other"
    text: str
    tree: ast.Module
    lines: List[str]
    #: line number -> (rule ids allowed, justification)
    allow_pragmas: Dict[int, Tuple[Set[str], str]] = field(default_factory=dict)
    _parents: Optional[Dict[ast.AST, ast.AST]] = None

    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once per file."""
        return walk(self.tree)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            self._parents = {}
            for node in self.nodes():
                for child in ast.iter_child_nodes(node):
                    self._parents[child] = node
        return self._parents

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.relpath,
            line=line,
            col=col + 1,
            message=message,
            snippet=self.snippet(line),
        )


class Rule:
    """Base class every lint rule derives from."""

    rule_id: str = ""
    description: str = ""
    #: which tree kinds the rule runs over by default
    kinds: Tuple[str, ...] = ("src",)
    #: repo-relative posix path prefixes the rule is scoped *out* of — the
    #: per-package policy (see ``tools.lint.rules.SCOPE_EXEMPTIONS``); unlike
    #: an allowlist pragma this silences the rule for a whole package whose
    #: purpose conflicts with it, with the justification kept at the policy
    #: table instead of sprayed across call sites
    exempt_prefixes: Tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.kind not in self.kinds:
            return False
        return not any(
            ctx.relpath.startswith(prefix) for prefix in self.exempt_prefixes
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# allowlist pragmas
# --------------------------------------------------------------------------- #
def parse_allow_pragmas(lines: Sequence[str]) -> Tuple[Dict[int, Tuple[Set[str], str]], List[Tuple[int, str]]]:
    """Extract ``# lint: allow[RULE] why`` pragmas.

    Returns ``(pragmas, malformed)`` where ``pragmas`` maps the line number a
    pragma *covers* (its own line and, for comment-only lines, the next line)
    to the allowed rule ids and justification, and ``malformed`` lists
    pragmas with an empty justification.
    """
    pragmas: Dict[int, Tuple[Set[str], str]] = {}
    malformed: List[Tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        if not match:
            continue
        rules = {r.strip() for r in match.group("rule").split(",") if r.strip()}
        why = match.group("why").strip().lstrip("-").strip()
        if not why:
            malformed.append((lineno, line.strip()))
            continue
        pragmas[lineno] = (rules, why)
        if line.lstrip().startswith("#"):
            # a comment-only pragma covers the statement on the next line
            pragmas.setdefault(lineno + 1, (rules, why))
    return pragmas, malformed


# --------------------------------------------------------------------------- #
# shared AST helpers
# --------------------------------------------------------------------------- #
def call_func_name(node: ast.Call) -> str:
    """Last path segment of the called object (``sorted``, ``dumps``, ...)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _ann_head(ann: ast.AST) -> str:
    if isinstance(ann, ast.Name):
        return ann.id
    if isinstance(ann, ast.Attribute):
        return ann.attr
    if isinstance(ann, ast.Subscript):
        return _ann_head(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        # string annotations: take the head up to the first bracket
        return ann.value.split("[", 1)[0].split(".")[-1].strip()
    return ""


def ann_is_set(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    head = _ann_head(ann)
    if head in _SET_ANN_NAMES:
        return True
    if head == "Optional" and isinstance(ann, ast.Subscript):
        return ann_is_set(ann.slice)
    return False


def ann_is_dict_of_sets(ann: Optional[ast.AST]) -> bool:
    """``Dict[K, Set[V]]``-shaped annotations (subscripts yield sets)."""
    if not isinstance(ann, ast.Subscript) or _ann_head(ann) not in _DICT_ANN_NAMES:
        return False
    slc = ann.slice
    if isinstance(slc, ast.Tuple) and len(slc.elts) == 2:
        return ann_is_set(slc.elts[1])
    return False


@dataclass
class SetEnv:
    """Names known to be set-typed within one lexical scope."""

    set_names: Set[str] = field(default_factory=set)
    self_set_attrs: Set[str] = field(default_factory=set)
    dict_of_set_names: Set[str] = field(default_factory=set)
    self_dict_of_set_attrs: Set[str] = field(default_factory=set)
    set_returning_funcs: Set[str] = field(default_factory=set)


def is_set_expr(node: ast.AST, env: SetEnv) -> bool:
    """Conservative: True only when ``node`` is definitely an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in env.set_names
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr in env.self_set_attrs
        return False
    if isinstance(node, ast.Subscript):
        value = node.value
        if isinstance(value, ast.Name):
            return value.id in env.dict_of_set_names
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            if value.value.id == "self":
                return value.attr in env.self_dict_of_set_attrs
        return False
    if isinstance(node, ast.Call):
        name = call_func_name(node)
        if isinstance(node.func, ast.Name):
            if name in ("set", "frozenset"):
                return True
            return name in env.set_returning_funcs
        if isinstance(node.func, ast.Attribute):
            if name in ("union", "intersection", "difference", "symmetric_difference", "copy"):
                return is_set_expr(node.func.value, env)
            if name == "get" and len(node.args) >= 2:
                # d.get(k, set()) — set-valued when the default is a set
                return is_set_expr(node.args[1], env)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left, env) or is_set_expr(node.right, env)
    if isinstance(node, ast.IfExp):
        return is_set_expr(node.body, env) or is_set_expr(node.orelse, env)
    return False


def is_dict_view(node: ast.AST) -> bool:
    """``x.items()`` / ``x.keys()`` / ``x.values()`` calls."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("items", "keys", "values")
        and not node.args
        and not node.keywords
    )


def build_module_env(tree: ast.Module) -> SetEnv:
    """Module-level names and annotated ``self`` attributes that are sets."""
    env = SetEnv()
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if ann_is_set(node.annotation):
                env.set_names.add(node.target.id)
            elif ann_is_dict_of_sets(node.annotation):
                env.dict_of_set_names.add(node.target.id)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and is_set_expr(node.value, env):
                env.set_names.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if ann_is_set(node.returns):
                env.set_returning_funcs.add(node.name)
    # self attributes: any `self.x: Set[...]` annotation anywhere in a class
    for node in walk(tree):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
            target = node.target
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                if ann_is_set(node.annotation):
                    env.self_set_attrs.add(target.attr)
                elif ann_is_dict_of_sets(node.annotation):
                    env.self_dict_of_set_attrs.add(target.attr)
    return env


def function_env(func: ast.AST, module_env: SetEnv) -> SetEnv:
    """The module env extended with the function's set-typed params/locals."""
    env = SetEnv(
        set_names=set(module_env.set_names),
        self_set_attrs=set(module_env.self_set_attrs),
        dict_of_set_names=set(module_env.dict_of_set_names),
        self_dict_of_set_attrs=set(module_env.self_dict_of_set_attrs),
        set_returning_funcs=set(module_env.set_returning_funcs),
    )
    args = getattr(func, "args", None)
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
            if ann_is_set(arg.annotation):
                env.set_names.add(arg.arg)
            elif ann_is_dict_of_sets(arg.annotation):
                env.dict_of_set_names.add(arg.arg)
    # two passes so `x = a | b` after `a = set()` resolves regardless of
    # statement distance; assignment-order subtleties stay conservative
    for _ in range(2):
        for node in walk(func):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if ann_is_set(node.annotation):
                    env.set_names.add(node.target.id)
                elif ann_is_dict_of_sets(node.annotation):
                    env.dict_of_set_names.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and is_set_expr(node.value, env):
                    env.set_names.add(target.id)
    return env


def consumed_safely(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> bool:
    """True when the expression's order cannot escape: every enclosing
    consumer up the chain is an order-insensitive builtin call."""
    current = node
    parent = parents.get(current)
    while parent is not None:
        if isinstance(parent, ast.Call) and current in parent.args:
            name = call_func_name(parent)
            if name in SAFE_CONSUMERS:
                return True
            return False
        if isinstance(parent, (ast.Compare, ast.BoolOp)):
            # membership / equality tests never observe iteration order
            return True
        if isinstance(parent, (ast.expr,)) and not isinstance(
            parent, (ast.ListComp, ast.DictComp, ast.GeneratorExp, ast.SetComp)
        ):
            current, parent = parent, parents.get(parent)
            continue
        return False
    return False


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def body_is_order_free(stmts: Sequence[ast.stmt], loop_names: Set[str]) -> bool:
    """True when every statement folds commutatively (order cannot matter).

    Recognised shapes: unordered-container mutation (``s.add``/``update``/
    ``merge``), counter bumps (``x += 1``), subscript assignment keyed by the
    loop variable (each distinct element writes a distinct slot), pure-read
    helper binds (``v = d.get(k)`` / ``d.setdefault(k, default)``), early
    exits returning constants, and recursively clean ``if``/``for`` blocks.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Raise):
            continue
        if isinstance(stmt, ast.Return):
            if stmt.value is None or isinstance(stmt.value, ast.Constant):
                continue
            return False
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            if (
                isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in ORDER_FREE_METHODS
            ):
                continue
            return False
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.op, (ast.Add, ast.BitOr)) and isinstance(
                stmt.value, ast.Constant
            ):
                continue
            return False
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Subscript):
                index_names = _target_names(target.slice)
                if index_names and index_names <= loop_names:
                    continue
                return False
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Call):
                if (
                    isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr in ("get", "setdefault")
                ):
                    # binds a per-key slot; mutation through it is checked
                    # by the statements that follow
                    loop_names = loop_names | {target.id}
                    continue
            return False
        if isinstance(stmt, ast.If):
            if body_is_order_free(stmt.body, loop_names) and body_is_order_free(
                stmt.orelse, loop_names
            ):
                continue
            return False
        if isinstance(stmt, ast.For):
            inner = loop_names | _target_names(stmt.target)
            if body_is_order_free(stmt.body, inner) and not stmt.orelse:
                continue
            return False
        return False
    return True


def unwrap_sorted(node: ast.AST) -> bool:
    """True when the iterable is already ``sorted(...)`` (or a sort call)."""
    return isinstance(node, ast.Call) and call_func_name(node) == "sorted"


def contains_set_expr(
    node: ast.AST, env: SetEnv
) -> Optional[ast.AST]:
    """First definitely-set-typed subexpression not wrapped in ``sorted``."""
    if unwrap_sorted(node):
        return None
    if is_set_expr(node, env):
        return node
    for child in ast.iter_child_nodes(node):
        hit = contains_set_expr(child, env)
        if hit is not None:
            return hit
    return None


# --------------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------------- #
def classify_path(path: Path, root: Optional[Path] = None) -> Tuple[str, str]:
    """Return ``(kind, relpath)`` for a file, relative to the repo root."""
    resolved = path.resolve()
    base = (root or Path.cwd()).resolve()
    try:
        rel = resolved.relative_to(base)
    except ValueError:
        rel = Path(resolved.name)
    parts = rel.parts
    kind = "other"
    if parts:
        if parts[0] in ("src", "benchmarks", "tests", "examples"):
            kind = parts[0]
        elif "site-packages" not in parts and "repro" in parts:
            kind = "src"
    return kind, rel.as_posix()


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(
                    part in SKIP_DIRS or part.startswith(".")
                    for part in sub.relative_to(path).parts[:-1]
                ):
                    continue
                yield sub


def load_context(
    path: Path, root: Optional[Path] = None, kind: Optional[str] = None
) -> FileContext:
    text = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    detected_kind, relpath = classify_path(Path(path), root)
    lines = text.splitlines()
    pragmas, _ = parse_allow_pragmas(lines)
    return FileContext(
        path=Path(path),
        relpath=relpath,
        kind=kind or detected_kind,
        text=text,
        tree=tree,
        lines=lines,
        allow_pragmas=pragmas,
    )


@dataclass
class Project:
    """Everything a whole-system rule reads, each file parsed once."""

    #: the files the run reports on
    linted: List[FileContext]
    #: every file that counts as a caller: the linted files outside
    #: ``tests/`` plus the caller trees under the repo root
    system: List[FileContext]
    #: the run linted every module of ``src/repro``, so an allow-table entry
    #: that matches nothing is stale rather than merely out of scope
    complete: bool


class ProjectRule(Rule):
    """A rule over the whole system rather than one file at a time.

    It reports on the definitions of the linted files it
    :meth:`~Rule.applies_to`, and reads the calls and references of every
    file in :attr:`Project.system` (the linted files and ``CALLER_TREES``).
    ``allowed`` maps a definition's dotted path to the reason it stays; an
    entry that matches nothing in a :attr:`~Project.complete` run is itself
    a finding, so the table cannot rot.
    """

    allowed: Dict[str, str] = {}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def stale(self, project: Project, unallowed: Set[str]) -> Iterator[Finding]:
        """One finding per allow entry that names no current finding."""
        if not project.complete:
            return
        for entry in sorted(set(self.allowed) - unallowed):
            yield Finding(
                rule=self.rule_id,
                path=f"{self.rule_id} allow table",
                line=0,
                col=0,
                message=f"allow entry {entry!r} is stale: it is gone or no "
                "longer needs the exemption; delete the entry",
            )


def module_of(relpath: str) -> str:
    """Dotted module path under ``repro`` (``sim.runner`` for
    ``src/repro/sim/runner.py``); a file elsewhere keeps its own path."""
    path = relpath[len("src/repro/"):] if relpath.startswith("src/repro/") else relpath
    parts = path[: -len(".py")].split("/")
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _suppress(report: LintReport, finding: Finding, ctx: Optional[FileContext]) -> None:
    pragma = ctx.allow_pragmas.get(finding.line) if ctx is not None else None
    if pragma and finding.rule in pragma[0]:
        report.suppressed.append(replace(finding, justification=pragma[1]))
    else:
        report.findings.append(finding)


def lint_paths(
    paths: Iterable[Path],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[Path] = None,
    kind: Optional[str] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` (``lint_fixtures`` excluded).

    ``root`` is the repo root (default: the working directory); ``kind``
    overrides path-based rule scoping.  Each file is parsed once; a
    :class:`ProjectRule` also reads its caller trees under ``root``.
    """
    if rules is None:
        from tools.lint.rules import default_rules

        rules = default_rules()
    base = Path(root or Path.cwd())
    linted = [load_context(path, root=base, kind=kind) for path in iter_python_files(paths)]
    report = LintReport(files_checked=len(linted))
    for ctx in linted:
        _, malformed = parse_allow_pragmas(ctx.lines)
        for lineno, snippet in malformed:
            report.findings.append(
                Finding(
                    rule="LNT000",
                    path=ctx.relpath,
                    line=lineno,
                    col=1,
                    message="allowlist pragma needs a one-line justification",
                    snippet=snippet,
                )
            )
        for rule in rules:
            if rule.applies_to(ctx):
                for finding in rule.check(ctx):
                    _suppress(report, finding, ctx)
    project_rules = [
        rule
        for rule in rules
        if isinstance(rule, ProjectRule) and any(rule.applies_to(ctx) for ctx in linted)
    ]
    if project_rules:
        by_path = {ctx.relpath: ctx for ctx in linted}
        for path in iter_python_files(base / tree for tree in CALLER_TREES):
            relpath = classify_path(path, base)[1]
            if relpath not in by_path:
                by_path[relpath] = load_context(path, root=base)
        package = {
            classify_path(path, base)[1]
            for path in iter_python_files([base / "src" / "repro"])
        }
        project = Project(
            linted=linted,
            system=[ctx for ctx in by_path.values() if ctx.kind != "tests"],
            complete=bool(package) and package <= {ctx.relpath for ctx in linted},
        )
        for rule in project_rules:
            for finding in rule.check_project(project):
                _suppress(report, finding, by_path.get(finding.path))
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report

