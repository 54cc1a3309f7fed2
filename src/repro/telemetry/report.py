"""Render a metrics registry as a text report or JSON document.

``python -m repro.experiments --metrics ...`` prints the text form after
the experiment tables; the JSON form exists for machine consumption
(dashboards, regression tracking across PRs).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.telemetry.metrics import Histogram, Instrument, MetricsRegistry

__all__ = ["render_report", "render_json"]

#: Gauge/counter families with more label sets than this are summarised
#: (top values shown, the rest folded into one line) to keep reports
#: readable when hundreds of sessions are instrumented.
MAX_SERIES_PER_FAMILY = 8


def _format_value(value: float) -> str:
    if isinstance(value, float):
        if abs(value) < 1e15 and value == int(value):
            return str(int(value))
        if abs(value) >= 1000 or (value != 0 and abs(value) < 0.001):
            return f"{value:.4g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def _histogram_lines(hist: Histogram, indent: str) -> List[str]:
    lines = [
        f"{indent}count={hist.count} sum={_format_value(hist.sum)} "
        f"mean={_format_value(hist.mean)}"
        + (
            f" min={_format_value(hist.min)} max={_format_value(hist.max)}"
            if hist.count
            else ""
        )
    ]
    if hist.count:
        quantiles = " ".join(
            f"p{int(q * 100)}={_format_value(v)}" for q, v in hist.quantiles().items()
        )
        lines.append(f"{indent}{quantiles}")
    buckets = hist.buckets()
    if buckets and hist.count:
        parts = []
        for bound, count in buckets:
            if count == 0:
                continue
            label = "+inf" if bound == float("inf") else _format_value(bound)
            parts.append(f"<= {label}: {count}")
        if parts:
            lines.append(f"{indent}buckets: " + "  ".join(parts))
    return lines


def _group_by_family(instruments: List[Instrument]) -> "Dict[tuple, List[Instrument]]":
    families: Dict[tuple, List[Instrument]] = {}
    for inst in instruments:
        families.setdefault((inst.kind, inst.name), []).append(inst)
    return families


def render_report(
    registry: MetricsRegistry,
    prefix: str = "",
    title: str = "telemetry report",
) -> str:
    """Human-readable dump of every instrument in the registry."""
    instruments = registry.collect(prefix)
    lines = [f"== {title} =="]
    if not instruments:
        lines.append("  (no metrics recorded — registry disabled or empty)")
        return "\n".join(lines)
    for (kind, name), members in _group_by_family(instruments).items():
        lines.append(f"[{kind}] {name}")
        if kind in ("counter", "gauge"):
            members = sorted(members, key=lambda m: m.value, reverse=True)
            shown = members[:MAX_SERIES_PER_FAMILY]
            for inst in shown:
                label = inst.label_str() or "(total)"
                lines.append(f"  {label:<40s} {_format_value(inst.value)}")
            hidden = members[MAX_SERIES_PER_FAMILY:]
            if hidden:
                rest = sum(m.value for m in hidden)
                lines.append(
                    f"  … {len(hidden)} more series "
                    f"(combined {_format_value(rest)})"
                )
        else:
            for inst in members:
                if inst.labels:
                    lines.append(f"  {inst.label_str()}")
                lines.extend(_histogram_lines(inst, "    "))
    return "\n".join(lines)


def _jsonable(value):
    """Replace non-finite floats so the output is strict JSON."""
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(registry: MetricsRegistry, indent: Optional[int] = 2) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(_jsonable(registry.snapshot()), indent=indent)
