"""Terminal plotting for the reproduction's figures.

The paper's figures are mostly cumulative distributions and latency
curves; this module renders both as fixed-width ASCII so experiments can
be *seen* without a plotting stack (the repository deliberately has no
matplotlib dependency).  Used by ``examples/paper_figures.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.analysis.cdf import Cdf

#: Glyphs assigned to successive series in a multi-series plot.
SERIES_GLYPHS = "*o+x#@%&"

#: Density ramp for sparklines and heatstrips, light to heavy.  Pure
#: ASCII on purpose: the dashboard must survive dumb terminals and CI
#: logs where the Unicode block elements render as tofu.
DENSITY_RAMP = " .:-=+*#%@"


def _log_ticks(lo: float, hi: float) -> List[float]:
    """Decade ticks covering [lo, hi]."""
    if lo <= 0:
        raise ReproError("log axis requires positive values")
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def render_cdf(
    cdfs: Dict[str, Cdf],
    width: int = 64,
    height: int = 16,
    log_x: bool = True,
    x_label: str = "",
) -> str:
    """Render one or more CDFs as an ASCII chart.

    Args:
        cdfs: name -> CDF; each gets its own glyph.
        width: Plot area width in characters.
        height: Plot area height in rows (y spans 0..100 %).
        log_x: Use a log10 x-axis (the paper's figures mostly do).
        x_label: Axis caption.
    """
    if not cdfs:
        raise ReproError("nothing to plot")
    if width < 8 or height < 4:
        raise ReproError("plot area too small")
    lo = min(max(c.min, 1e-12) for c in cdfs.values())
    hi = max(c.max for c in cdfs.values())
    if log_x:
        # Cap the span at six decades so zero-adjacent samples don't
        # stretch the axis into unreadability.
        lo = max(lo, hi / 1e6)
    if hi <= lo:
        hi = lo * 10 if log_x else lo + 1.0

    def x_of(value: float) -> int:
        if log_x:
            value = max(value, lo)
            frac = (math.log10(value) - math.log10(lo)) / (
                math.log10(hi) - math.log10(lo)
            )
        else:
            frac = (value - lo) / (hi - lo)
        return min(width - 1, max(0, int(round(frac * (width - 1)))))

    grid = [[" "] * width for _ in range(height)]
    for index, (name, cdf) in enumerate(cdfs.items()):
        glyph = SERIES_GLYPHS[index % len(SERIES_GLYPHS)]
        for column in range(width):
            if log_x:
                x_value = 10 ** (
                    math.log10(lo)
                    + column / (width - 1) * (math.log10(hi) - math.log10(lo))
                )
            else:
                x_value = lo + column / (width - 1) * (hi - lo)
            fraction = cdf.fraction_below(x_value)
            row = height - 1 - min(
                height - 1, int(round(fraction * (height - 1)))
            )
            if grid[row][column] == " ":
                grid[row][column] = glyph

    lines: List[str] = []
    for row_index, row in enumerate(grid):
        fraction = 1.0 - row_index / (height - 1)
        label = f"{fraction * 100:3.0f}% |"
        lines.append(label + "".join(row))
    lines.append("     +" + "-" * width)
    if log_x:
        ticks = [t for t in _log_ticks(lo, hi) if lo <= t <= hi * 1.01]
        tick_line = [" "] * (width + 14)
        last_end = -2
        for tick in ticks:
            pos = 6 + x_of(tick)
            text = f"{tick:g}"
            if pos <= last_end + 1:
                continue  # would collide with the previous label
            for offset, ch in enumerate(text):
                if pos + offset < len(tick_line):
                    tick_line[pos + offset] = ch
            last_end = pos + len(text)
        lines.append("".join(tick_line).rstrip())
    if x_label:
        lines.append(f"      {x_label}")
    legend = "      " + "   ".join(
        f"{SERIES_GLYPHS[i % len(SERIES_GLYPHS)]} {name}"
        for i, name in enumerate(cdfs)
    )
    lines.append(legend)
    return "\n".join(lines)


def _ramp_glyph(value: float, lo: float, hi: float) -> str:
    """Map a value onto the density ramp; None-safe callers filter first."""
    if hi <= lo:
        return DENSITY_RAMP[-1] if value > lo else DENSITY_RAMP[0]
    if value >= hi:
        return DENSITY_RAMP[-1]
    frac = (value - lo) / (hi - lo)
    if not frac > 0.0:  # at or under lo, or NaN on an unbounded scale
        return DENSITY_RAMP[0]
    return DENSITY_RAMP[int(round(frac * (len(DENSITY_RAMP) - 1)))]


def render_sparkline(
    values: Sequence[float],
    width: int = 60,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-row density sparkline for a numeric series.

    Values are resampled onto ``width`` columns (mean per column) and
    mapped onto :data:`DENSITY_RAMP`.  ``lo``/``hi`` pin the scale so
    several sparklines can share one axis; they default to the series'
    own range.
    """
    if not values:
        return " " * width
    if lo is None:
        lo = min(values)
    if hi is None:
        hi = max(values)
    columns: List[str] = []
    n = len(values)
    for col in range(width):
        start = col * n // width
        end = max(start + 1, (col + 1) * n // width)
        chunk = values[start:end]
        columns.append(_ramp_glyph(sum(chunk) / len(chunk), lo, hi))
    return "".join(columns)


def render_heatstrip(
    rows: Dict[str, Sequence[float]],
    width: int = 60,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Stacked sparklines on a shared scale — one labelled row per
    series, rendered like a heat map strip chart."""
    if not rows:
        raise ReproError("nothing to plot")
    pooled = [v for values in rows.values() for v in values]
    if pooled:
        if lo is None:
            lo = min(pooled)
        if hi is None:
            hi = max(pooled)
    label_width = max(len(name) for name in rows)
    lines = [
        f"{name:<{label_width}} |{render_sparkline(values, width, lo, hi)}|"
        for name, values in rows.items()
    ]
    if pooled:
        lines.append(
            f"{'':{label_width}}  scale {lo:g}..{hi:g} "
            f"({DENSITY_RAMP[0]!r} low, {DENSITY_RAMP[-1]!r} high)"
        )
    return "\n".join(lines)


def render_series(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render (x, y) series — e.g. the Figure 9 latency curves."""
    if not series:
        raise ReproError("nothing to plot")
    points = [p for s in series.values() for p in s]
    if not points:
        raise ReproError("series are empty")
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = 0.0
    y_hi = max(p[1] for p in points) or 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        glyph = SERIES_GLYPHS[index % len(SERIES_GLYPHS)]
        for x, y in pts:
            col = min(width - 1, int(round((x - x_lo) / (x_hi - x_lo) * (width - 1))))
            row = height - 1 - min(
                height - 1, int(round((y - y_lo) / (y_hi - y_lo) * (height - 1)))
            )
            grid[row][col] = glyph

    lines = []
    for row_index, row in enumerate(grid):
        value = y_hi * (1.0 - row_index / (height - 1))
        lines.append(f"{value:8.3g} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(f"{'':9}{x_lo:<10g}{'':{max(0, width - 20)}}{x_hi:>10g}")
    caption = []
    if x_label:
        caption.append(f"x: {x_label}")
    if y_label:
        caption.append(f"y: {y_label}")
    if caption:
        lines.append("      " + "; ".join(caption))
    lines.append(
        "      " + "   ".join(
            f"{SERIES_GLYPHS[i % len(SERIES_GLYPHS)]} {name}"
            for i, name in enumerate(series)
        )
    )
    return "\n".join(lines)
