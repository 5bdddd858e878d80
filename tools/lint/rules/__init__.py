"""Rule registry for :mod:`tools.lint`.

``default_rules()`` assembles one instance of every built-in rule; the CLI
and the test suite both go through it so the active rule set has a single
definition point.

Per-package scoping
-------------------
Some packages exist precisely to do what a rule forbids.  Rather than
spraying ``# lint: allow[...]`` pragmas over every call site (noise that
drowns the allowlist audit), the registry scopes such a rule *out* of the
package wholesale via :data:`SCOPE_EXEMPTIONS` — rule id to repo-relative
path prefixes, each entry justified in place.  Every other rule still runs
over those files, and the exempted rule still runs everywhere else.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tools.lint.ast_checks import Rule
from tools.lint.rules.determinism import (
    IdHashOrderingRule,
    UnorderedIterationRule,
    WallClockAndGlobalRandomRule,
)
from tools.lint.rules.fingerprint_paths import (
    DigestSerialisationRule,
    SetInMessagePayloadRule,
    UnsortedFoldRule,
)
from tools.lint.rules.dead_code import NoCallerRule, UnsetFieldRule, UnsetParameterRule
from tools.lint.rules.imports import UnusedImportRule
from tools.lint.rules.obs_isolation import ObsIsolationRule
from tools.lint.rules.spawn_safety import SpawnSafetyRule

__all__ = [
    "default_rules",
    "SCOPE_EXEMPTIONS",
    "IdHashOrderingRule",
    "UnorderedIterationRule",
    "WallClockAndGlobalRandomRule",
    "DigestSerialisationRule",
    "SetInMessagePayloadRule",
    "UnsortedFoldRule",
    "ObsIsolationRule",
    "SpawnSafetyRule",
    "NoCallerRule",
    "UnsetParameterRule",
    "UnsetFieldRule",
    "UnusedImportRule",
]

#: rule id -> repo-relative path prefixes (posix) the rule does not run under.
#: Keep this table small and every entry justified: an exemption here must be
#: *definitional* (the package's purpose conflicts with the rule), never a
#: convenience.
SCOPE_EXEMPTIONS: Dict[str, Tuple[str, ...]] = {
    # The asyncio transport runtime exists to run the protocols on the wall
    # clock: time.monotonic() is its clock source, not an accident.  The
    # observability package exists to timestamp telemetry and compute live
    # rates — wall-clock time is its subject matter, and the OBS001 rule plus
    # the determinism-under-observation battery guarantee none of it can leak
    # back into computation.  The determinism contract is carried by the
    # simulator, which stays fully covered; DET002 still runs over everything
    # else under src/.
    "DET002": ("src/repro/runtime/", "src/repro/obs/"),
}


def default_rules() -> List[Rule]:
    rules: List[Rule] = [
        UnorderedIterationRule(),
        WallClockAndGlobalRandomRule(),
        IdHashOrderingRule(),
        DigestSerialisationRule(),
        SetInMessagePayloadRule(),
        UnsortedFoldRule(),
        SpawnSafetyRule(),
        ObsIsolationRule(),
        UnusedImportRule(),
        NoCallerRule(),
        UnsetParameterRule(),
        UnsetFieldRule(),
    ]
    for rule in rules:
        rule.exempt_prefixes = SCOPE_EXEMPTIONS.get(rule.rule_id, ())
    return rules
