"""Markdown report generation from experiment results.

``python -m repro.experiments --markdown out.md`` writes the
reproduction report: one section per experiment with its rows as a
markdown table and its notes as bullets.  With default flags and every
experiment, it is RESULTS.md's paper half, byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence

from repro.experiments.runner import ExperimentResult, _format_cell


def render_markdown(result: ExperimentResult) -> str:
    """One experiment as a markdown section."""
    lines: List[str] = [f"## {result.experiment_id} — {result.title}", ""]
    columns = result.column_names()
    if columns:
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "---|" * len(columns))
        for row in result.rows:
            cells = [_format_cell(row.get(col, "")) for col in columns]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    for note in result.notes:
        lines.append(f"* {note}")
    if result.notes:
        lines.append("")
    return "\n".join(lines)


def render_report(results: Sequence[ExperimentResult]) -> str:
    """A complete markdown report over many experiments."""
    parts = ["# Reproduction report — SLIM (SOSP 1999)", ""]
    parts.extend(render_markdown(result) for result in results)
    return "\n".join(parts)


def write_report(results: Sequence[ExperimentResult], path: Path) -> Path:
    """Render and write the report; returns the path."""
    path = Path(path)
    path.write_text(render_report(results), encoding="utf-8")
    return path
