"""Console protocol-processing cost model (Table 5 of the paper).

The paper characterises the Sun Ray 1 console by a startup cost per
command plus an incremental cost per pixel.  This module is the canonical
holder of those constants and evaluates service times for command streams;
:mod:`repro.console.microops` contains the micro-operation model the
constants are *derived from*, and :mod:`repro.console.calibration`
re-measures them the way the paper did (sustained-rate probes + linear
fit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.core.commands import Opcode
from repro.units import NANOSECOND


@dataclass(frozen=True)
class CostEntry:
    """Linear cost model for one command type: startup + per-pixel."""

    startup_ns: float
    per_pixel_ns: float

    def service_time(self, pixels: int) -> float:
        """Service time in seconds for a command touching ``pixels``."""
        if pixels < 0:
            raise ProtocolError(f"negative pixel count {pixels}")
        return (self.startup_ns + self.per_pixel_ns * pixels) * NANOSECOND


#: Cost keys: plain opcodes for SET/BITMAP/FILL/COPY and (CSCS, bpp) pairs.
CostKey = Union[Opcode, Tuple[Opcode, int]]

#: Table 5, verbatim.
SUN_RAY_1_COSTS: Dict[CostKey, CostEntry] = {
    Opcode.SET: CostEntry(5000.0, 270.0),
    Opcode.BITMAP: CostEntry(11080.0, 22.0),
    Opcode.FILL: CostEntry(5000.0, 2.0),
    Opcode.COPY: CostEntry(5000.0, 10.0),
    (Opcode.CSCS, 16): CostEntry(24000.0, 205.0),
    (Opcode.CSCS, 12): CostEntry(24000.0, 193.0),
    (Opcode.CSCS, 8): CostEntry(24000.0, 178.0),
    (Opcode.CSCS, 5): CostEntry(24000.0, 150.0),
}


def _interpolate_cscs(costs: Dict[CostKey, CostEntry], bpp: int) -> CostEntry:
    """Linear interpolation for CSCS depths Table 5 does not list (e.g. 6)."""
    depths = sorted(k[1] for k in costs if isinstance(k, tuple) and k[0] == Opcode.CSCS)
    if not depths:
        raise ProtocolError("cost table has no CSCS entries")
    if bpp <= depths[0]:
        return costs[(Opcode.CSCS, depths[0])]
    if bpp >= depths[-1]:
        return costs[(Opcode.CSCS, depths[-1])]
    for lo, hi in zip(depths, depths[1:]):
        if lo <= bpp <= hi:
            a = costs[(Opcode.CSCS, lo)]
            b = costs[(Opcode.CSCS, hi)]
            t = (bpp - lo) / (hi - lo)
            return CostEntry(
                startup_ns=a.startup_ns + t * (b.startup_ns - a.startup_ns),
                per_pixel_ns=a.per_pixel_ns + t * (b.per_pixel_ns - a.per_pixel_ns),
            )
    raise ProtocolError(f"cannot interpolate CSCS depth {bpp}")


class ConsoleCostModel:
    """Evaluates console service times for SLIM command streams.

    Args:
        costs: Cost table; defaults to the published Sun Ray 1 constants.
        input_event_ns: Fixed handling cost charged for keyboard/mouse/audio
            and status messages (not part of Table 5; small constant).
    """

    def __init__(
        self,
        costs: Dict[CostKey, CostEntry] = None,
        input_event_ns: float = 2000.0,
    ) -> None:
        self.costs = dict(SUN_RAY_1_COSTS if costs is None else costs)
        self.input_event_ns = input_event_ns

    def entry_for(self, command: cmd.Command) -> CostEntry:
        """Return the cost entry applicable to one command."""
        if isinstance(command, cmd.CscsCommand):
            key = (Opcode.CSCS, command.bits_per_pixel)
            if key in self.costs:
                return self.costs[key]
            return _interpolate_cscs(self.costs, command.bits_per_pixel)
        if isinstance(command, cmd.DisplayCommand):
            try:
                return self.costs[command.opcode]
            except KeyError as exc:
                raise ProtocolError(
                    f"no cost entry for {command.opcode.name}"
                ) from exc
        return CostEntry(self.input_event_ns, 0.0)

    def billable_pixels(self, command: cmd.Command) -> int:
        """Pixels the console's decode loop actually processes.

        For CSCS the per-pixel work happens on the *transmitted* (source)
        pixels; the optional bilinear upscale runs in the graphics
        controller and is covered by the startup constant.
        """
        if isinstance(command, cmd.CscsCommand):
            return command.source_pixels
        if isinstance(command, cmd.DisplayCommand):
            return command.pixels
        return 0

    def service_time(self, command: cmd.Command) -> float:
        """Console processing time, in seconds, for one command."""
        return self.entry_for(command).service_time(self.billable_pixels(command))

    def sustained_rate(self, command: cmd.Command) -> float:
        """Maximum commands/second the console sustains for this command.

        This is the quantity the paper's calibration experiment measures
        directly: the rate beyond which the console starts dropping
        commands (Section 4.3).
        """
        service = self.service_time(command)
        if service <= 0:
            raise ProtocolError("command has non-positive service time")
        return 1.0 / service
