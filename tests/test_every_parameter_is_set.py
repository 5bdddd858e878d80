"""No knob without a second value.

Every defaulted parameter of a function, method or class under ``src/repro``
must be bound by some call in the code that makes up the system: ``src/``,
``bench/``, ``benchmarks/``, ``examples/`` or ``scripts/``.  Tests do not
count.  A parameter that every caller leaves at its default is a constant
spelled as an option: one more configuration to cover, with one value in use.

A call binds a parameter by keyword, by position, or through a ``*`` / ``**``
splat.  Calls are matched to definitions by name, not by type: ``f(...)`` and
``obj.f(...)`` both reach every ``def f``, ``C(...)`` reaches ``C.__init__``
and ``super().__init__(...)`` reaches the ``__init__`` of the enclosing
class's bases.  Matching by name errs towards keeping a parameter, never
towards removing one that has a caller.

The parameters of a function or class passed to a ``register_*`` call are
exempt: the registry builders and schedule strategies are called with the
parameters a :class:`~repro.exp.spec.GridSpec` names as data.

``KEPT`` lists the parameters kept without a caller that sets them, each with
the reason it stays; an entry that gains a caller or disappears must leave
the list, so the list cannot rot.

The scan parses source text and imports nothing from ``repro``.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SYSTEM = ("src", "bench", "benchmarks", "examples", "scripts")

_SEAM = "a test seam: the tests pass another value, the system the default"
_KERNEL = "set through the kernel(**pacing) splat that builds a run's kernel"
_ENTRY = "a documented entry point's option"
_EXPLORE = "an option of explore(), the documented search entry point"
_ORACLE = "a paper oracle: symbolic without n and f, numeric with them"


def _each(dotted: str, params: str, reason: str) -> Dict[str, str]:
    return {f"{dotted}({param}=)": reason for param in params.split()}


#: ``dotted.def(param=)`` -> why the parameter stays without a caller setting it
KEPT: Dict[str, str] = {
    **_each("lint.cli.main", "argv", _SEAM),
    **_each("lint.sanitizer._main", "argv", _SEAM),
    **_each("obs.export.main", "argv", _SEAM),
    **_each("obs.profile.main", "argv", _SEAM),
    **_each("obs.profile.is_enabled", "environ", _SEAM),
    **_each("obs.profile.profile_dir", "environ", _SEAM),
    **_each("obs.profile.profiled", "directory", _SEAM),
    **_each("obs.progress.TTYProgressReporter.__init__", "stream", _SEAM),
    **_each("lint.ast_checks.lint_file", "kind", _SEAM),
    **_each("lint.ast_checks.lint_paths", "root", _SEAM),
    **_each("sim.runner.Simulation.__init__",
            "process_factory stop_when_all_correct_decided", _SEAM
            + " (the conformance battery runs per-pid probes for a fixed span)"),
    **_each("lint.sanitizer.run_hashseed_check", "seeds start_methods", _SEAM
            + " (the spawn-safety test adds the fork and spawn pools)"),
    **_each(
        "lint.sanitizer.install._checked_send.checked_record_send", "module",
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
    **_each("core.table1.CellBound.as_fraction", "n f", _ORACLE),
    **_each("core.table1.message_lower_bound", "n f", _ORACLE),
}


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [
        base.id if isinstance(base, ast.Name) else base.attr
        for base in cls.bases
        if isinstance(base, (ast.Name, ast.Attribute))
    ]


def _calls(
    tree: ast.AST, cls: Optional[ast.ClassDef] = None
) -> Iterator[Tuple[str, ast.Call]]:
    """``(callee name, call)`` of every call; ``super().__init__(...)`` inside a
    class is a call to each of its bases."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = _callee(node)
            is_super = (
                name == "__init__"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _callee(node.func.value) == "super"
            )
            if is_super and cls is not None:
                for base in _base_names(cls):
                    yield base, node
            elif name is not None:
                yield name, node
        yield from _calls(node, node if isinstance(node, ast.ClassDef) else cls)


def _registered(tree: ast.AST) -> Set[str]:
    """Names passed to a ``register_*`` call, through a loop variable too."""
    loops: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, (ast.Tuple, ast.List))
        ):
            loops[node.target.id] = {
                elt.id for elt in node.iter.elts if isinstance(elt, ast.Name)
            }
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (_callee(node) or "").startswith("register_"):
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names |= {arg.id} | loops.get(arg.id, set())
                elif isinstance(arg, ast.Attribute):
                    names.add(arg.attr)
    return names


def _functions(
    tree: ast.AST, prefix: str, cls: Optional[ast.ClassDef] = None
) -> Iterator[Tuple[ast.FunctionDef, str, Optional[ast.ClassDef]]]:
    """``(def, dotted path, enclosing class)`` of every def, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            path = f"{prefix}.{node.name}"
            yield node, path, cls
            yield from _functions(node, path)
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}", node)
        else:
            yield from _functions(node, prefix, cls)


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


@functools.lru_cache(maxsize=1)
def _unset() -> Tuple[Tuple[str, str], ...]:
    """``(file:line, dotted(param=))`` of every defaulted parameter under
    ``src/repro`` that no call in the system binds."""
    calls: Dict[str, List[ast.Call]] = {}
    registered: Set[str] = set()
    functions = []
    for top in SYSTEM:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, call in _calls(tree):
                calls.setdefault(name, []).append(call)
            registered |= _registered(tree)
            if PACKAGE in path.parents:
                parts = path.relative_to(PACKAGE).with_suffix("").parts
                module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
                where = path.relative_to(ROOT).as_posix()
                functions += [(where, *found) for found in _functions(tree, module)]
    unset = []
    for where, fn, dotted, cls in functions:
        name = cls.name if fn.name == "__init__" and cls is not None else fn.name
        if name in registered:
            continue
        for param, position in _defaulted(fn, cls):
            if not any(_binds(call, param, position) for call in calls.get(name, ())):
                unset.append((f"{where}:{fn.lineno}", f"{dotted}({param}=)"))
    return tuple(unset)


def test_every_defaulted_parameter_in_src_is_set_somewhere_in_the_system():
    unset = [f"{where} {param}" for where, param in _unset() if param not in KEPT]
    assert not unset, (
        f"{len(unset)} parameters are never set in {', '.join(SYSTEM)} (make each "
        "the constant it always is, or give a reason in KEPT):\n" + "\n".join(unset)
    )


def test_every_kept_parameter_exists_and_is_still_unset():
    stale = sorted(set(KEPT) - {param for _, param in _unset()})
    assert not stale, f"KEPT entries that are gone or now set: {stale}"
