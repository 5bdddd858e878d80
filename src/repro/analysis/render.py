"""Plain-text table rendering for benchmarks, examples and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


def render_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table.

    Column order follows ``columns`` when given, else the key order of the
    first row.  Missing values render as ``-``.
    """
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols: List[str] = list(columns) if columns else list(rows[0].keys())
    table = [[_format_cell(row.get(c)) for c in cols] for row in rows]
    widths = [
        max(len(str(c)), max(len(line[i]) for line in table)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in table:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)
