"""Determinism rules: unordered iteration, wall clocks, unseeded randomness.

These guard the simulator's core contract — a trial's outcome is a pure
function of its spec and derived seed.  Anything that lets hash order, wall
time or interpreter-global RNG state leak into protocol or engine code breaks
byte-identical replay across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.lint.ast_checks import (
    FileContext,
    Rule,
    body_is_order_free,
    build_module_env,
    call_func_name,
    consumed_safely,
    function_env,
    is_set_expr,
    unwrap_sorted,
    _target_names,
)
from repro.lint.report import Finding

#: conversions that freeze an iteration order into an ordered value
_ORDER_ESCAPES = frozenset({"list", "tuple", "enumerate", "repr"})


def iter_scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield ``(scope, nodes)`` — each function scope's own nodes only.

    Nested function bodies are excluded from the enclosing scope's node list
    (they form their own scope with their own type environment).
    """
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        nodes: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes.append(node)
            stack.extend(ast.iter_child_nodes(node))
        yield scope, nodes


class UnorderedIterationRule(Rule):
    """DET001 — iteration over a bare set leaks hash/insertion order.

    Flags ``for``-loops and comprehensions whose iterable is definitely a
    ``set``/``frozenset`` (and not wrapped in ``sorted(...)``) unless the
    consumption is provably order-insensitive: the loop body only folds into
    unordered containers / counters, or the comprehension feeds an
    order-insensitive builtin (``sum``/``any``/``min``/``set``/...).
    Also flags ``list()``/``tuple()``/``repr()``/``enumerate()``/``join()``
    over a set, which freeze the arbitrary order into an ordered value.
    """

    rule_id = "DET001"
    description = "unordered set iteration escapes into an ordered result"
    kinds = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_env = build_module_env(ctx.tree)
        parents = ctx.parents()
        flagged: Set[int] = set()

        def emit(node: ast.AST, message: str) -> Iterator[Finding]:
            if id(node) not in flagged:
                flagged.add(id(node))
                yield ctx.finding(self.rule_id, node, message)

        for scope, nodes in iter_scopes(ctx.tree):
            env = (
                module_env
                if isinstance(scope, ast.Module)
                else function_env(scope, module_env)
            )
            for node in nodes:
                if isinstance(node, ast.For):
                    if unwrap_sorted(node.iter) or not is_set_expr(node.iter, env):
                        continue
                    loop_names = _target_names(node.target)
                    if body_is_order_free(node.body, loop_names) and not node.orelse:
                        continue
                    yield from emit(
                        node.iter,
                        "loop over an unordered set with an order-sensitive "
                        "body; iterate sorted(...) or fold commutatively",
                    )
                elif isinstance(
                    node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        if unwrap_sorted(gen.iter) or not is_set_expr(gen.iter, env):
                            continue
                        if consumed_safely(node, parents):
                            continue
                        yield from emit(
                            gen.iter,
                            "comprehension over an unordered set escapes its "
                            "iteration order; wrap the set in sorted(...)",
                        )
                elif isinstance(node, ast.Call):
                    name = call_func_name(node)
                    is_escape = (
                        isinstance(node.func, ast.Name) and name in _ORDER_ESCAPES
                    ) or (isinstance(node.func, ast.Attribute) and name == "join")
                    if not is_escape or not node.args:
                        continue
                    if not is_set_expr(node.args[0], env):
                        continue
                    if consumed_safely(node, parents):
                        continue
                    yield from emit(
                        node,
                        f"{name}() over an unordered set freezes an arbitrary "
                        "order; use sorted(...) instead",
                    )


#: ``time`` module functions that read the wall clock (``perf_counter`` and
#: friends are measurement-only and stay allowed in benchmark timing code)
_WALL_CLOCK_ATTRS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns"})
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})
#: the only attributes of the ``random`` module deterministic code may touch
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})
#: ``numpy.random`` attributes that construct explicitly seeded generators —
#: everything else (``np.random.seed``, ``np.random.uniform``, ...) drives
#: numpy's interpreter-global RandomState and is as non-deterministic across
#: processes as bare ``random.random()``
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "RandomState",
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)


class WallClockAndGlobalRandomRule(Rule):
    """DET002 — wall-clock reads and interpreter-global RNG calls.

    Trial outcomes must be pure functions of ``(spec, derived_seed)``: a
    seeded ``random.Random`` instance threaded through the call chain is the
    only sanctioned randomness, and simulated time is the only clock.
    """

    rule_id = "DET002"
    description = "wall clock or module-level random.* in deterministic code"
    kinds = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _RANDOM_ALLOWED:
                            yield ctx.finding(
                                self.rule_id,
                                node,
                                f"'from random import {alias.name}' pulls in the "
                                "interpreter-global RNG; thread a seeded "
                                "random.Random instead",
                            )
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_ATTRS:
                            yield ctx.finding(
                                self.rule_id,
                                node,
                                f"'from time import {alias.name}' reads the wall "
                                "clock; simulated time is the only clock here",
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NUMPY_RANDOM_ALLOWED:
                            yield ctx.finding(
                                self.rule_id,
                                node,
                                f"'from numpy.random import {alias.name}' pulls "
                                "in numpy's interpreter-global RNG; construct a "
                                "seeded RandomState/Generator instead",
                            )
                continue
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            func = node.func
            base = func.value
            if isinstance(base, ast.Name) and base.id == "random":
                if func.attr not in _RANDOM_ALLOWED:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"random.{func.attr}() uses the interpreter-global RNG; "
                        "thread a seeded random.Random through the call chain",
                    )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ("numpy", "np")
            ):
                # np.random.X(...) / numpy.random.X(...): the module-level
                # calls share one hidden global RandomState across the whole
                # process; only explicitly seeded constructors are allowed
                if func.attr not in _NUMPY_RANDOM_ALLOWED:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{base.value.id}.random.{func.attr}() uses numpy's "
                        "interpreter-global RNG; construct a seeded "
                        "RandomState/Generator and call methods on it",
                    )
            elif isinstance(base, ast.Name) and base.id == "time":
                if func.attr in _WALL_CLOCK_ATTRS:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"time.{func.attr}() reads the wall clock; trial "
                        "outcomes must be pure functions of the derived seed",
                    )
            elif func.attr in _DATETIME_NOW_ATTRS:
                root = base
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in ("datetime", "date"):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"{root.id}.{func.attr}() reads the wall clock; "
                        "deterministic code may not observe real time",
                    )


class IdHashOrderingRule(Rule):
    """DET003 — sorting keyed on ``id()``/``hash()`` is process-dependent.

    ``id()`` is an address and ``hash()`` of str/bytes is randomised by
    ``PYTHONHASHSEED``, so any ordering derived from them differs across
    processes — exactly what the fingerprint contract forbids.
    """

    rule_id = "DET003"
    description = "id()/hash()-keyed ordering"
    kinds = ("src", "benchmarks", "tests", "examples")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_func_name(node)
            if not (
                (isinstance(node.func, ast.Name) and name == "sorted")
                or (isinstance(node.func, ast.Attribute) and name == "sort")
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                key = keyword.value
                if isinstance(key, ast.Name) and key.id in ("id", "hash"):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"sort keyed on builtin {key.id}; the order differs "
                        "across processes and PYTHONHASHSEED values",
                    )
                elif isinstance(key, ast.Lambda):
                    for sub in ast.walk(key.body):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id in ("id", "hash")
                        ):
                            yield ctx.finding(
                                self.rule_id,
                                node,
                                f"sort key calls {sub.func.id}(); the order "
                                "differs across processes and PYTHONHASHSEED "
                                "values",
                            )
                            break
