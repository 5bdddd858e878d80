"""OBS001 — observability must stay out of band.

The obs package (:mod:`repro.obs`) may *watch* the deterministic layers but
must never be able to *influence* them: a ``repro.obs`` import inside the
simulator, the protocol implementations, or the spec/results modules of the
sweep engine would let telemetry state leak into computation — the exact
failure mode the determinism-under-observation test battery exists to catch,
caught here statically instead.

Obs objects reach deterministic code only as duck-typed constructor
arguments (``AsyncClusterService(metrics=...)``, ``LinkDelay(metrics=...)``),
so those layers compile against nothing; transaction spans are read off a
finished run's report.  The sanctioned import sites are the engine's lazy
hooks (:mod:`repro.exp.engine` resolves ``progress=`` and the
``REPRO_PROFILE`` wrapper on demand), the CLI/analysis layers, and the obs
package itself — none of which are protected prefixes below.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from tools.lint.ast_checks import FileContext, Rule, walk
from tools.lint.report import Finding

#: repo-relative prefixes (and exact files) where a repro.obs import is a
#: layering violation: everything a trial's outcome is a pure function of
PROTECTED_PREFIXES: Tuple[str, ...] = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/protocols/",
    "src/repro/consensus/",
    "src/repro/env",
    "src/repro/db/",
    "src/repro/exp/spec.py",
    "src/repro/exp/results.py",
)

_OBS_PACKAGE = "repro.obs"


def _is_protected(rel_path: str) -> bool:
    return any(
        rel_path == prefix or rel_path.startswith(prefix)
        for prefix in PROTECTED_PREFIXES
    )


class ObsIsolationRule(Rule):
    """OBS001 — deterministic layers must not import the obs package."""

    rule_id = "OBS001"
    description = "deterministic layer imports repro.obs (observability must stay out of band)"
    kinds = ("src",)

    def applies_to(self, ctx: FileContext) -> bool:
        return super().applies_to(ctx) and _is_protected(ctx.relpath)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _OBS_PACKAGE or alias.name.startswith(
                        _OBS_PACKAGE + "."
                    ):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"import of {alias.name!r} from a deterministic "
                            f"layer; hand obs objects in as duck-typed "
                            f"arguments instead (e.g. LinkDelay(metrics=...))",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and (
                    module == _OBS_PACKAGE
                    or module.startswith(_OBS_PACKAGE + ".")
                    or (
                        module == "repro"
                        and any(alias.name == "obs" for alias in node.names)
                    )
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"import from {module or 'repro'!r} pulls repro.obs "
                        f"into a deterministic layer; hand obs objects in as "
                        f"duck-typed arguments instead (e.g. "
                        f"LinkDelay(metrics=...))",
                    )


__all__ = ["ObsIsolationRule", "PROTECTED_PREFIXES"]
