"""Spawn-safety rule and the shared spec-field rule table.

The sweep engine's ``spawn`` start method pickles every spec component, so a
lambda (or a function defined inside another function) in a spec field dies
at the pool boundary.  :data:`SPAWN_AXIS_FIELDS` is the single source of
truth for *which* fields must survive pickling: the static rule here scans
the same fields the runtime check (:func:`repro.exp.engine.ensure_spawn_safe`)
pickles, so the two checks cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set, Tuple

from repro.lint.ast_checks import FileContext, Rule, call_func_name
from repro.lint.report import Finding

#: GridSpec axis field -> TrialSpec attribute.  Shared rule table: the
#: runtime check iterates these (field, attr) pairs and pickles each spec;
#: the static rule flags lambdas/local closures in calls that build them.
SPAWN_AXIS_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("protocols", "protocol"),
    ("delays", "delay"),
    ("faults", "fault"),
    ("votes", "votes"),
    ("workloads", "workload"),
    ("schedules", "schedule"),
)

#: constructor/registration calls whose arguments become spec fields and
#: therefore must be picklable end to end
SPEC_CALLS = frozenset(
    {
        "GridSpec",
        "TrialSpec",
        "make_cases",
        "ProtocolSpec",
        "DelaySpec",
        "FaultSpec",
        "VoteSpec",
        "WorkloadSpec",
        "ScheduleSpec",
        "DelayRule",
        "FaultPlan",
        "named_delay",
        "named_fault",
        "named_workload",
        "register_delay_model",
        "register_fault_plan",
        "register_vote_pattern",
        "register_workload",
        "register_schedule_strategy",
    }
)

#: engine entry points where only specific keywords cross the pool boundary
RUN_CALL_KEYWORDS: Dict[str, Set[str]] = {
    "run_sweep": {"collector", "reducer"},
    "run_trials": {"collector", "reducer"},
}


def _local_def_names(tree: ast.Module) -> Dict[ast.AST, Set[str]]:
    """Per enclosing function: names of functions defined *inside* it."""
    out: Dict[ast.AST, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = {
                sub.name
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            out[node] = inner
    return out


class SpawnSafetyRule(Rule):
    """SP001 — lambda / local closure in a spec field.

    Such values cannot cross a ``spawn`` process boundary — and on the
    delay, fault, votes and workload axes a callable is not an axis value at
    all (:mod:`repro.exp.spec` rejects it when the grid is built); use a
    registry name (``named_*`` / ``register_*`` with a module-level builder)
    instead.  The fields scanned are exactly the ones
    :func:`repro.exp.engine.ensure_spawn_safe` pickles at runtime.
    """

    rule_id = "SP001"
    description = "non-picklable value (lambda/local closure) in a spec field"
    kinds = ("src", "benchmarks", "examples")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        local_defs = _local_def_names(ctx.tree)
        flagged: Set[int] = set()
        # which function each node sits in, to resolve local-closure refs
        for func, inner_names in [(None, set())] + list(local_defs.items()):
            nodes = (
                ast.walk(ctx.tree)
                if func is None
                else (n for stmt in func.body for n in ast.walk(stmt))
            )
            for node in nodes:
                if not isinstance(node, ast.Call):
                    continue
                name = call_func_name(node)
                if name in SPEC_CALLS:
                    values = list(node.args) + [kw.value for kw in node.keywords]
                elif name in RUN_CALL_KEYWORDS:
                    wanted = RUN_CALL_KEYWORDS[name]
                    values = [
                        kw.value for kw in node.keywords if kw.arg in wanted
                    ]
                else:
                    continue
                for value in values:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Lambda):
                            if id(sub) in flagged:
                                continue
                            flagged.add(id(sub))
                            yield ctx.finding(
                                self.rule_id,
                                sub,
                                f"lambda in a {name}(...) spec field cannot "
                                "cross a spawn process boundary; use a "
                                "registry name or a module-level callable",
                            )
                        elif (
                            func is not None
                            and isinstance(sub, ast.Name)
                            and sub.id in inner_names
                        ):
                            if id(sub) in flagged:
                                continue
                            flagged.add(id(sub))
                            yield ctx.finding(
                                self.rule_id,
                                sub,
                                f"locally-defined function {sub.id!r} in a "
                                f"{name}(...) spec field cannot cross a spawn "
                                "process boundary; move it to module level",
                            )
