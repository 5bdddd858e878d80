"""CALL001, KNOB001 and KNOB002: no name without a caller, no knob without a
second value, whether the knob is a parameter or a dataclass field.

All three report on definitions under ``src/repro`` and read the code that
makes up the system (``CALLER_TREES``); tests do not count, since a
name or a parameter value only tests reach is test scaffolding shipped as
library code.  Calls and references are matched by name, not by type
(``obj.size`` anywhere keeps every definition called ``size``), which errs
towards keeping code, never towards deleting code that has a caller.  Each
rule's ``allowed`` table gives the reason a definition stays without one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.lint.ast_checks import (
    CALLER_TREES,
    FileContext,
    Project,
    ProjectRule,
    call_func_name,
    module_of,
)
from tools.lint.report import Finding

_ENTRY = "a README or documentation entry point"
_ORACLE = "a paper oracle that the classifier and lower-bound checks will call"
_SEAM = "a test seam: the tests pass another value, the system the default"
_KERNEL = "set through the kernel(**pacing) splat that builds a run's kernel"
_EXPLORE = "an option of explore(), the documented search entry point"
_FORMULA = "a paper oracle: symbolic without n and f, numeric with them"

#: dotted path under ``repro`` -> why the definition stays without a caller
NAMES_ALLOWED: Dict[str, str] = {
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
}


def _each(dotted: str, params: str, reason: str) -> Dict[str, str]:
    return {f"{dotted}({param}=)": reason for param in params.split()}


#: ``dotted.def(param=)`` -> why the parameter stays without a caller setting it
KNOBS_ALLOWED: Dict[str, str] = {
    **_each("obs.export.main", "argv", _SEAM),
    **_each("obs.profile.main", "argv", _SEAM),
    **_each("obs.profile.profile_dir", "environ", _SEAM),
    **_each("obs.profile.profiled", "directory", _SEAM),
    **_each("obs.progress.TTYProgressReporter.__init__", "stream", _SEAM),
    **_each("sim.runner.Simulation.__init__",
            "process_factory stop_when_all_correct_decided", _SEAM
            + " (the conformance battery runs per-pid probes for a fixed span)"),
    **_each(
        "sanitizer.install._checked_send.checked_record_send", "module",
        "the signature of Trace.record_send, which it replaces",
    ),
    **_each(
        "runtime.runtime.AsyncRuntime.__init__",
        "unit seed delay_model fault_plan controller metrics", _KERNEL,
    ),
    **_each(
        "runtime.runtime.run_commit",
        "unit timeout_units seed delay_model crash_at",
        _ENTRY + " (README, docs/runtime.md)",
    ),
    **_each("exp.engine.run_sweep", "progress",
            _ENTRY + ' (docs/observability.md: "tty", "jsonl:PATH")'),
    **_each(
        "explore.driver.explore", "params votes delay fault workers shrink", _EXPLORE
    ),
    **_each("protocols.inbac.INBAC.__init__", "fast_abort",
            "the paper's fast-abort variant of INBAC (Appendix A)"),
    **_each("sim.network.LinkDelay.__init__", "links",
            "per-link policies, which ROADMAP item 2's link profiles will set"),
    **_each("exp.registry.named_fault", "label",
            "one signature for the named_* helpers; named_delay(label=) is set"),
    **_each("exp.registry.named_workload", "label",
            "one signature for the named_* helpers; named_delay(label=) is set"),
    **_each("core.table1.CellBound.as_fraction", "n f", _FORMULA),
    **_each("core.table1.message_lower_bound", "n f", _FORMULA),
}

#: ``dotted.Class(field=)`` -> why the dataclass field stays without a caller setting it
FIELDS_ALLOWED: Dict[str, str] = {
    **_each("db.coordinator.RetryPolicy", "max_attempts timeout_units", "client "
            'retry (docs/runtime.md, "Crash recovery: rejoin by WAL replay"); '
            "the recovery tests set both"),
    "db.cluster.ClusterConfig(retry_policy=)": "how a cluster gets the client "
    "retry policy above; the recovery tests set it",
    "sim.faults.DelayRule(extra=)": "a rule that adds to the drawn delay "
    "instead of replacing it (a link slowed past U, the paper's network "
    "failure); the fault-injection tests set it",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(
    tree: ast.AST, prefix: str, cls: Optional[ast.ClassDef] = None
) -> Iterator[Tuple[ast.AST, str, Optional[ast.ClassDef]]]:
    """``(def or class, dotted path, enclosing class)`` of every definition,
    nested ones too; a def nested in a function has no enclosing class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            path = f"{prefix}.{node.name}"
            yield node, path, cls
            yield from _definitions(node, path, node if isinstance(node, ast.ClassDef) else None)
        else:
            yield from _definitions(node, prefix, cls)


def _system_definitions(
    rule: ProjectRule, project: Project
) -> Iterator[Tuple[FileContext, ast.AST, str, Optional[ast.ClassDef]]]:
    """``(ctx, def, dotted, class)`` over the linted files the rule covers."""
    for ctx in project.linted:
        if rule.applies_to(ctx):
            for found in _definitions(ctx.tree, module_of(ctx.relpath)):
                yield (ctx, *found)


class NoCallerRule(ProjectRule):
    """CALL001 — a function, coroutine or class nothing in the system references.

    A module-level definition is referenced as a bare name or an attribute;
    one nested in a class (a method, a nested class) only as an attribute,
    since a local variable that shares a method's name does not call it.
    Imports, ``__all__`` entries and docstrings are not references, so a
    name that is merely exported stays an orphan.  ``visit_*`` methods and
    dunders are called by their protocol, not by name.
    """

    rule_id = "CALL001"
    description = "function or class with no caller in the system (tests do not count)"
    kinds = ("src",)
    allowed = NAMES_ALLOWED

    def check_project(self, project: Project) -> Iterator[Finding]:
        referenced: Set[str] = set()
        for ctx in project.system:
            for node in ctx.nodes():
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.update((node.attr, "." + node.attr))
        orphans: Set[str] = set()
        for ctx, node, dotted, cls in _system_definitions(self, project):
            name = node.name
            if name.startswith("visit_") or (name.startswith("__") and name.endswith("__")):
                continue
            if ("." + name if cls is not None else name) in referenced:
                continue
            orphans.add(dotted)
            if dotted not in self.allowed:
                yield ctx.finding(
                    self.rule_id, node,
                    f"{name!r} has no caller in {', '.join(CALLER_TREES)}; "
                    "delete it with its tests, or give a reason in the allow table",
                )
        yield from self.stale(project, orphans)


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in cls.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def _calls(ctx: FileContext) -> Iterator[Tuple[str, ast.Call]]:
    """``(callee name, call)`` of every call; ``super().__init__(...)`` inside a
    class is a call to each of its bases."""
    for node in ctx.nodes():
        if not isinstance(node, ast.Call):
            continue
        name = call_func_name(node)
        if (
            name == "__init__"
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Call)
            and call_func_name(node.func.value) == "super"
        ):
            cls = ctx.parents().get(node)
            while cls is not None and not isinstance(cls, ast.ClassDef):
                cls = ctx.parents().get(cls)
            if cls is not None:
                for base in _base_names(cls):
                    yield base, node
                continue
        if name:
            yield name, node


def _registered(ctx: FileContext) -> Set[str]:
    """Names passed to a ``register_*`` call, through a loop variable too."""
    loops: Dict[str, Set[str]] = {}
    calls: List[ast.Call] = []
    for node in ctx.nodes():
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, (ast.Tuple, ast.List))
        ):
            loops[node.target.id] = {
                elt.id for elt in node.iter.elts if isinstance(elt, ast.Name)
            }
        elif isinstance(node, ast.Call) and call_func_name(node).startswith("register_"):
            calls.append(node)
    names: Set[str] = set()
    for call in calls:
        for arg in call.args:
            if isinstance(arg, ast.Name):
                names |= {arg.id} | loops.get(arg.id, set())
            elif isinstance(arg, ast.Attribute):
                names.add(arg.attr)
    return names


def _defaulted(
    fn: ast.FunctionDef, cls: Optional[ast.ClassDef]
) -> List[Tuple[str, Optional[int]]]:
    """``(name, position)`` of each defaulted parameter; position counts the
    arguments a caller passes (``self`` / ``cls`` excluded), None if keyword-only."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )
    if cls is not None and not static and positional:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(name, i) for i, name in enumerate(positional) if i >= first]
    out += [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _binds(call: ast.Call, param: str, position: Optional[int]) -> bool:
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


class UnsetParameterRule(ProjectRule):
    """KNOB001 — a defaulted parameter no call in the system binds.

    A call binds a parameter by keyword, by position, or through a ``*`` /
    ``**`` splat.  ``f(...)`` and ``obj.f(...)`` reach every ``def f``,
    ``C(...)`` reaches ``C.__init__`` and ``super().__init__(...)`` the
    ``__init__`` of the enclosing class's bases.  A function or class passed
    to a ``register_*`` call is exempt: the registry builders and schedule
    strategies are called with the parameters a ``GridSpec`` names as data.
    """

    rule_id = "KNOB001"
    description = "defaulted parameter that no call in the system sets (tests do not count)"
    kinds = ("src",)
    allowed = KNOBS_ALLOWED

    def check_project(self, project: Project) -> Iterator[Finding]:
        calls: Dict[str, List[ast.Call]] = {}
        registered: Set[str] = set()
        for ctx in project.system:
            for name, call in _calls(ctx):
                calls.setdefault(name, []).append(call)
            registered |= _registered(ctx)
        unset: Set[str] = set()
        for ctx, fn, dotted, cls in _system_definitions(self, project):
            if not isinstance(fn, _FUNCTIONS):
                continue
            name = cls.name if fn.name == "__init__" and cls is not None else fn.name
            if name in registered:
                continue
            for param, position in _defaulted(fn, cls):
                if any(_binds(call, param, position) for call in calls.get(name, ())):
                    continue
                entry = f"{dotted}({param}=)"
                unset.add(entry)
                if entry not in self.allowed:
                    yield ctx.finding(
                        self.rule_id, fn,
                        f"parameter {param!r} of {dotted!r} is never set in "
                        f"{', '.join(CALLER_TREES)}; make it the constant "
                        "it always is, or give a reason in the allow table",
                    )
        yield from self.stale(project, unset)


def _last_name(node: ast.AST) -> str:
    """``dataclass`` for ``dataclass``, ``dataclasses.dataclass`` or a call of
    either; ``ClassVar`` for ``typing.ClassVar``."""
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    return target.attr if isinstance(target, ast.Attribute) else ""


def _keyword(call: ast.Call, name: str) -> Optional[ast.AST]:
    return next((k.value for k in call.keywords if k.arg == name), None)


def _is_false(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def _generates_init(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` that writes its own ``__init__`` (none in the body,
    no ``init=False``); a hand-written ``__init__`` is KNOB001's."""
    for node in cls.decorator_list:
        if _last_name(node) == "dataclass":
            if isinstance(node, ast.Call) and _is_false(_keyword(node, "init")):
                return False
            return not _defines_init(cls)
    return False


def _defines_init(cls: ast.ClassDef) -> bool:
    return any(isinstance(stmt, _FUNCTIONS) and stmt.name == "__init__" for stmt in cls.body)


def _init_fields(cls: ast.ClassDef) -> List[Tuple[str, Optional[ast.AnnAssign]]]:
    """``(name, node)`` of each ``__init__`` field the class body declares, in
    order; node is None unless the field is a knob (a plain default, or
    ``field(default=...)``).  ``ClassVar``s and ``init=False`` fields are not
    init fields; ``default_factory`` ones are state, not knobs."""
    out: List[Tuple[str, Optional[ast.AnnAssign]]] = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        ann = stmt.annotation
        if _last_name(ann.value if isinstance(ann, ast.Subscript) else ann) == "ClassVar":
            continue
        knob = stmt.value is not None
        if isinstance(stmt.value, ast.Call) and call_func_name(stmt.value) == "field":
            if _is_false(_keyword(stmt.value, "init")):
                continue
            knob = _keyword(stmt.value, "default") is not None
        out.append((stmt.target.id, stmt if knob else None))
    return out


def _constructions(ctx: FileContext) -> Iterator[Tuple[str, ast.Call]]:
    """``(class name, call)`` of every call that may build an instance:
    ``C(...)`` by name, and ``cls(...)`` as a call to its enclosing class."""
    for name, call in _calls(ctx):
        if name == "cls" and isinstance(call.func, ast.Name):
            scope = ctx.parents().get(call)
            while scope is not None and not isinstance(scope, ast.ClassDef):
                scope = ctx.parents().get(scope)
            if scope is not None:
                name = scope.name
        yield name, call


class UnsetFieldRule(ProjectRule):
    """KNOB002 — a defaulted dataclass field no call in the system sets.

    A field is set when a construction binds it by keyword, by position (its
    place among the class's init fields, a dataclass base's first) or through
    a ``*`` / ``**`` splat.  ``C(...)`` builds ``C`` and every dataclass base
    of ``C``; ``cls(...)`` inside a class body builds that class; and
    ``dataclasses.replace(obj, name=...)`` sets ``name`` on whatever it copies.
    A field the system assigns as an attribute (``obj.name = ...``) in a
    module that names the class or a subclass of it is state written after
    construction, not a knob; so is one declared with ``default_factory`` or
    ``init=False``.  Both are exempt.  A store in a module that names neither
    sets a field of the same name on some other class, and does not count.
    """

    rule_id = "KNOB002"
    description = "defaulted dataclass field that no call in the system sets (tests do not count)"
    kinds = ("src",)
    allowed = FIELDS_ALLOWED

    def check_project(self, project: Project) -> Iterator[Finding]:
        every = [
            node for ctx in project.system for node in ctx.nodes()
            if isinstance(node, ast.ClassDef)
        ]
        # the dataclasses, then the classes that may inherit a dataclass's
        # ``__init__`` (none of their own, e.g. ``DelaySpec``)
        classes: Dict[str, ast.ClassDef] = {}
        for node in [c for c in every if _generates_init(c)] + [
            c for c in every if not _defines_init(c)
        ]:
            classes.setdefault(node.name, node)

        def bases(name: str) -> List[str]:
            return [b for b in _base_names(classes[name]) if b in classes and b != name]

        def fields(name: str) -> List[str]:
            """The init fields of ``name`` in ``__init__`` order."""
            out: Dict[str, None] = {}
            for base in reversed(bases(name)):
                out.update(dict.fromkeys(fields(base)))
            if _generates_init(classes[name]):
                out.update(dict.fromkeys(f for f, _ in _init_fields(classes[name])))
            return list(out)

        def builds(name: str, target: str) -> bool:
            """Whether ``name(...)`` builds a ``target``: it is one, or a subclass."""
            return name == target or any(builds(base, target) for base in bases(name))

        calls: Dict[str, List[ast.Call]] = {}
        replaced: List[ast.Call] = []
        # (names the module mentions, attribute names it stores) per module
        modules: List[Tuple[Set[str], Set[str]]] = []
        for ctx in project.system:
            for name, call in _constructions(ctx):
                if name in classes:
                    calls.setdefault(name, []).append(call)
                elif name == "replace" and call.args:
                    replaced.append(call)
            named: Set[str] = set()
            stored: Set[str] = set()
            for node in ctx.nodes():
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.ClassDef):
                    named.add(node.name)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                    if isinstance(node.ctx, ast.Store):
                        stored.add(node.attr)
            modules.append((named, stored))
        unset: Set[str] = set()
        for ctx, cls, dotted, _ in _system_definitions(self, project):
            if not isinstance(cls, ast.ClassDef) or not _generates_init(cls):
                continue
            builders = [(name, fields(name)) for name in classes if builds(name, cls.name)]
            stored = set().union(*(
                attrs for named, attrs in modules
                if any(name in named for name, _ in builders)
            ))
            for field_name, node in _init_fields(cls):
                if node is None or field_name in stored or any(
                    _binds(call, field_name, None) for call in replaced
                ):
                    continue
                # a class of the same name elsewhere may lack the field: then
                # only a keyword or a splat binds it
                if any(
                    _binds(
                        call, field_name,
                        order.index(field_name) if field_name in order else None,
                    )
                    for name, order in builders
                    for call in calls.get(name, ())
                ):
                    continue
                entry = f"{dotted}({field_name}=)"
                unset.add(entry)
                if entry not in self.allowed:
                    yield ctx.finding(
                        self.rule_id, node,
                        f"field {field_name!r} of {dotted!r} is never set in "
                        f"{', '.join(CALLER_TREES)}; make it the constant it "
                        "always is, or give a reason in the allow table",
                    )
        yield from self.stale(project, unset)
