"""One queue, no task per event: the runtime's shape, guarded by an AST walk.

``repro.runtime`` hosts synchronous handlers on one thread with one FIFO of
events, one dispatcher and one table of ``loop.call_later`` handles
(docs/runtime.md, "The deadline table").  The mechanisms that design replaced
— an ``asyncio.Queue`` and a consumer ``Task`` per process, a ``Task`` +
``asyncio.sleep`` per delayed message, crash or rejoin — each came back as a
few innocent-looking lines, so they are refused by name here rather than
noticed in a profile later.  So is a second ledger: what happened in a run
is written once, into ``runtime.trace`` (docs/runtime.md, "What the runtime
records").
"""

from __future__ import annotations

import ast
import os

import repro.runtime

PACKAGE = os.path.dirname(repro.runtime.__file__)

#: module -> the one call it may make, and why
ALLOWED = {
    # AsyncHarness.run: the settle wait past the scenario horizon — the
    # harness is a driver waiting on the wall clock, not the runtime
    ("conformance.py", "asyncio.sleep"): 1,
}


def _modules():
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
                yield filename, ast.parse(handle.read(), filename)


def _refused_uses():
    found = {}
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = ast.unparse(node)
            if name in ("asyncio.Queue", "asyncio.sleep"):
                use = name
            elif name.endswith(("create_task", "ensure_future")):
                use = "create_task"
            else:
                continue
            found[(filename, use)] = found.get((filename, use), 0) + 1
    return found


def test_no_queue_per_process_and_no_task_or_sleep_per_event():
    assert _refused_uses() == ALLOWED


def test_the_transport_is_link_policy_and_accounting_only():
    with open(os.path.join(PACKAGE, "transport.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not any(name.split(".")[0] == "asyncio" for name in imported)


#: what the execution record (``runtime.trace``, the simulator's ``Trace``)
#: holds: who decided what, who crashed and rejoined when, how many messages
#: per module.  An attribute of one of these names is a second ledger.
RECORD_FIELDS = {
    "decisions", "decision_times", "crashes", "recoveries",
    "messages_total", "messages_by_module",
}


def test_nothing_under_runtime_keeps_a_second_ledger():
    found = []
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found.extend(
                f"{filename}:{node.lineno} self.{target.attr}"
                for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in RECORD_FIELDS
            )
    assert found == []
