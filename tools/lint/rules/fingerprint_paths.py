"""Fingerprint-path rules: digest serialisation, payload canonicalisation,
and fold/merge ordering.

The repo's reproducibility contract funnels through a handful of functions:
``Trace._canonical``/``fingerprint``, the ``CellAccumulator`` fold/merge/row
pipeline, the reducer folds, and ``ScheduleTrace.to_json``.  These rules
police exactly those choke points:

* **FP001** — ``json.dumps`` inside a digest function must pass
  ``sort_keys=True`` (dict insertion order differs between the per-trial and
  chunked fold paths, so it may never reach the bytes being hashed);
* **FP002** — message payloads may not contain bare ``set``/``frozenset``
  values: ``Trace._canonical`` serialises payloads via ``repr``, and a set's
  repr order is implementation-defined (hash-seed-dependent for strings).
  Canonicalise with ``tuple(sorted(...))`` before ``self.send``;
* **FP003** — fold/merge/row code may not iterate unsorted dict views or
  sets order-sensitively (the PR 3 rule: float reductions happen over
  ``sorted(counts)`` at ``row()`` time; everything before that must be a
  commutative fold).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from tools.lint.ast_checks import (
    FileContext,
    Rule,
    body_is_order_free,
    build_module_env,
    call_func_name,
    contains_set_expr,
    function_env,
    is_dict_view,
    is_set_expr,
    unwrap_sorted,
    _target_names,
    walk,
)
from tools.lint.report import Finding

#: function names that form the digest/fold pipeline (checked wherever they
#: appear under src/ — the pipeline is defined by role, not by module list)
SINK_FUNCS = frozenset(
    {
        "fingerprint",
        "aggregate_fingerprint",
        "_canonical",
        "_canonical_trial",
        "_cell_rows",
        "digest_sum",
        "digest_percentile",
        "row",
        "merge",
        "fold",
        "to_json",
    }
)

#: consumers that stay order-insensitive even for float payloads
#: (``sum`` is deliberately absent: float addition is not associative, which
#: is exactly why ``digest_sum`` walks sorted distinct values)
_FOLD_SAFE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "len", "any", "all", "set", "frozenset"}
)


def _sink_functions(tree: ast.Module) -> List[ast.FunctionDef]:
    return [
        node
        for node in walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in SINK_FUNCS
    ]


class DigestSerialisationRule(Rule):
    """FP001 — ``json.dumps`` without ``sort_keys=True`` in a digest function."""

    rule_id = "FP001"
    description = "json.dumps without sort_keys=True in a digest function"
    kinds = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _sink_functions(ctx.tree):
            for node in walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if call_func_name(node) != "dumps":
                    continue
                base = node.func.value if isinstance(node.func, ast.Attribute) else None
                if not (isinstance(base, ast.Name) and base.id == "json"):
                    continue
                sorts = any(
                    kw.arg == "sort_keys"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
                if not sorts:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"json.dumps in digest function {func.name}() must "
                        "pass sort_keys=True — dict insertion order depends "
                        "on the fold path",
                    )


class SetInMessagePayloadRule(Rule):
    """FP002 — a ``set``/``frozenset`` inside a sent message payload.

    Payload reprs are part of the full-level trace fingerprint, and a set's
    repr order is implementation-defined; emit ``tuple(sorted(...))``.
    """

    rule_id = "FP002"
    description = "unordered set inside a message payload"
    kinds = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_env = build_module_env(ctx.tree)
        for func in walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            env = function_env(func, module_env)
            # locals bound to an expression that embeds a set (the common
            # `ack = ("C", frozenset(...))` share-one-copy idiom)
            tainted: dict = {}
            for node in walk(func):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        hit = contains_set_expr(node.value, env)
                        if hit is not None:
                            tainted[target.id] = hit
            flagged: Set[int] = set()
            for node in walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if not (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"
                ):
                    continue
                for arg in node.args:
                    hit = contains_set_expr(arg, env)
                    if hit is None:
                        for sub in walk(arg):
                            if isinstance(sub, ast.Name) and sub.id in tainted:
                                hit = tainted[sub.id]
                                break
                    if hit is not None and id(hit) not in flagged:
                        flagged.add(id(hit))
                        yield ctx.finding(
                            self.rule_id,
                            hit,
                            "message payload contains an unordered set; its "
                            "repr feeds the trace fingerprint — send "
                            "tuple(sorted(...)) instead",
                        )


class UnsortedFoldRule(Rule):
    """FP003 — order-sensitive iteration in fold/merge/row/digest code."""

    rule_id = "FP003"
    description = "unsorted dict-view/set iteration in fold or digest code"
    kinds = ("src",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_env = build_module_env(ctx.tree)
        parents = ctx.parents()
        flagged: Set[int] = set()
        for func in _sink_functions(ctx.tree):
            env = function_env(func, module_env)
            for node in walk(func):
                if isinstance(node, ast.For):
                    iterable = node.iter
                    if unwrap_sorted(iterable):
                        continue
                    if not (is_dict_view(iterable) or is_set_expr(iterable, env)):
                        continue
                    loop_names = _target_names(node.target)
                    if body_is_order_free(node.body, loop_names) and not node.orelse:
                        continue
                    if id(iterable) in flagged:
                        continue
                    flagged.add(id(iterable))
                    yield ctx.finding(
                        self.rule_id,
                        iterable,
                        f"{func.name}() iterates an unsorted collection with "
                        "an order-sensitive body; reduce over sorted(...) "
                        "(digests sort at row() time) or fold commutatively",
                    )
                elif isinstance(
                    node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for gen in node.generators:
                        iterable = gen.iter
                        if unwrap_sorted(iterable):
                            continue
                        if not (
                            is_dict_view(iterable) or is_set_expr(iterable, env)
                        ):
                            continue
                        parent = parents.get(node)
                        if (
                            isinstance(parent, ast.Call)
                            and node in parent.args
                            and call_func_name(parent) in _FOLD_SAFE_CONSUMERS
                        ):
                            continue
                        if id(iterable) in flagged:
                            continue
                        flagged.add(id(iterable))
                        yield ctx.finding(
                            self.rule_id,
                            iterable,
                            f"{func.name}() builds an ordered value from an "
                            "unsorted collection; iterate sorted(...) so the "
                            "bytes are a pure function of the contents",
                        )
