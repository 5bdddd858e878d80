"""Findings and report rendering for :mod:`tools.lint`.

A :class:`Finding` is one rule violation anchored to a file and line.  The
two renderers — compact text for humans, JSON for automation — consume the
same finding list, so ``python -m tools.lint --format=json`` can be diffed
across revisions while the default output stays terminal-friendly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class Finding:
    """One rule violation (or one suppressed-by-allowlist observation)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    #: set when an allowlist pragma suppressed this finding
    justification: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, Any]:
        data = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }
        if self.justification:
            data["justification"] = self.justification
        return data


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def render_text(self) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(f"{finding.location()} {finding.rule} {finding.message}")
            if finding.snippet:
                lines.append(f"    {finding.snippet}")
        for finding in self.suppressed:
            lines.append(
                f"{finding.location()} {finding.rule} allowed: "
                f"{finding.justification}"
            )
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
        )
        if self.suppressed:
            summary += f", {len(self.suppressed)} suppressed by allowlist"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "counts": self.counts(),
                "findings": [f.as_dict() for f in self.findings],
                "suppressed": [f.as_dict() for f in self.suppressed],
                "ok": self.ok,
            },
            sort_keys=True,
            indent=2,
        )
