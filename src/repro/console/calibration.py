"""Reproduction of the Table 5 measurement methodology (Section 4.3).

The paper determined console protocol-processing costs by transmitting
command sequences "up to the point where the terminal cannot process the
transmitted commands and begins to drop them", then expressing the
observed sustained rates as a constant overhead per command plus an
incremental cost per pixel.

We do the same against the micro-op console model: for each command type
we probe the maximum sustained rate at a ladder of region sizes (binary
search over offered rate, watching the console's drop counter), convert
rates to per-command service times, and fit the two-parameter linear
model by least squares.  The fitted constants should land on Table 5 —
the micro-op model's extra per-row term is absorbed into the slope just
as real second-order hardware effects were absorbed by the paper's fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.core.commands import Opcode
from repro.core.costs import CostKey, SUN_RAY_1_COSTS
from repro.console.console import Console
from repro.console.microops import MicroOpModel
from repro.framebuffer.regions import Rect

#: Square region edge sizes probed per command (pixel counts span ~3
#: orders of magnitude, like the paper's "various command types and
#: sizes").
DEFAULT_EDGE_SIZES = (8, 16, 32, 64, 128, 256, 512)


def _probe_command(opcode: Opcode, edge: int, bits_per_pixel: int) -> cmd.DisplayCommand:
    """Build an accounting-only command of the given type and size."""
    rect = Rect(0, 0, edge, edge)
    if opcode == Opcode.SET:
        return cmd.SetCommand(rect=rect)
    if opcode == Opcode.BITMAP:
        return cmd.BitmapCommand(rect=rect)
    if opcode == Opcode.FILL:
        return cmd.FillCommand(rect=rect)
    if opcode == Opcode.COPY:
        return cmd.CopyCommand(rect=rect, src_x=0, src_y=0)
    if opcode == Opcode.CSCS:
        return cmd.CscsCommand(rect=rect, bits_per_pixel=bits_per_pixel)
    raise ProtocolError(f"not a display opcode: {opcode}")


def probe_sustained_rate(
    console: Console,
    command: cmd.DisplayCommand,
    rate_floor: float = 1.0,
    rate_ceiling: float = 1e7,
    iterations: int = 60,
) -> float:
    """Binary-search the highest command rate the console sustains.

    Mirrors the paper's ramp-until-drop experiment: at each candidate
    rate we ask whether the console keeps up; the bisection converges on
    the knee.
    """
    lo, hi = rate_floor, rate_ceiling
    if not console.offered_rate_sustainable(command, lo):
        raise ProtocolError("console cannot sustain even the floor rate")
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if console.offered_rate_sustainable(command, mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted linear cost model for one command type."""

    key: CostKey
    startup_ns: float
    per_pixel_ns: float
    residual_rms_ns: float
    samples: Tuple[Tuple[int, float], ...]  # (pixels, measured service ns)


def fit_linear_cost(samples: Sequence[Tuple[int, float]]) -> Tuple[float, float, float]:
    """Least-squares fit service_ns = startup + per_pixel * pixels.

    Returns (startup_ns, per_pixel_ns, residual_rms_ns).
    """
    if len(samples) < 2:
        raise ProtocolError("need at least two samples to fit a line")
    pixels = np.array([s[0] for s in samples], dtype=np.float64)
    times = np.array([s[1] for s in samples], dtype=np.float64)
    design = np.stack([np.ones_like(pixels), pixels], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, times, rcond=None)
    startup, slope = float(coeffs[0]), float(coeffs[1])
    residuals = times - (startup + slope * pixels)
    rms = float(np.sqrt(np.mean(residuals**2)))
    return startup, slope, rms


def calibrate_command(
    key: CostKey,
    console: Optional[Console] = None,
    edges: Sequence[int] = DEFAULT_EDGE_SIZES,
) -> CalibrationResult:
    """Run the full probe-and-fit procedure for one command type."""
    if console is None:
        console = Console(width=1280, height=1024, timing=MicroOpModel())
    if isinstance(key, tuple):
        opcode, bpp = key
    else:
        opcode, bpp = key, 16
    samples: List[Tuple[int, float]] = []
    for edge in edges:
        command = _probe_command(opcode, edge, bpp)
        rate = probe_sustained_rate(console, command)
        service_ns = 1e9 / rate
        pixels = (
            command.source_pixels
            if isinstance(command, cmd.CscsCommand)
            else command.pixels
        )
        samples.append((pixels, service_ns))
    startup, slope, rms = fit_linear_cost(samples)
    return CalibrationResult(
        key=key,
        startup_ns=startup,
        per_pixel_ns=slope,
        residual_rms_ns=rms,
        samples=tuple(samples),
    )


def calibrate(
    console: Optional[Console] = None,
    keys: Optional[Sequence[CostKey]] = None,
) -> Dict[CostKey, CalibrationResult]:
    """Calibrate every Table 5 row; returns results keyed like the table."""
    if keys is None:
        keys = list(SUN_RAY_1_COSTS.keys())
    return {key: calibrate_command(key, console=console) for key in keys}


def calibration_report(
    results: Dict[CostKey, CalibrationResult]
) -> List[Tuple[str, float, float, float, float]]:
    """Rows of (name, fitted startup, fitted slope, paper startup, slope)."""
    rows = []
    for key, result in results.items():
        if isinstance(key, tuple):
            name = f"CSCS ({key[1]} bits/pixel)"
        else:
            name = key.name
        reference = SUN_RAY_1_COSTS[key]
        rows.append(
            (
                name,
                result.startup_ns,
                result.per_pixel_ns,
                reference.startup_ns,
                reference.per_pixel_ns,
            )
        )
    return rows
