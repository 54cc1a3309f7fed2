"""Server machine models (the hardware column of Table 3).

A :class:`MachineSpec` describes one of the paper's machines: CPU count
and clock rate, memory capacity and network uplink rate.  CPU costs
elsewhere in the reproduction are expressed in seconds *on a 296 MHz
UltraSPARC-II*; machines scale them by relative clock rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import GBPS, MBPS

#: The clock rate all CPU-cost constants in this package are normalised to.
REFERENCE_MHZ = 296.0


@dataclass(frozen=True)
class MachineSpec:
    """Static description of a server machine."""

    name: str
    num_cpus: int
    cpu_mhz: float
    ram_mb: float
    swap_mb: float
    uplink_bps: float

    @property
    def speed_factor(self) -> float:
        """CPU speed relative to the 296 MHz reference."""
        return self.cpu_mhz / REFERENCE_MHZ


#: Machines from Table 3 and the Section 6.3 case studies.
ULTRA_2 = MachineSpec("Ultra 2", 2, 296.0, 512.0, 1024.0, 100 * MBPS)
ULTRA_2_1CPU = MachineSpec("Ultra 2 (1 cpu)", 1, 296.0, 512.0, 1024.0, 100 * MBPS)
E4500 = MachineSpec("Enterprise E4500", 8, 336.0, 6144.0, 13312.0, 1 * GBPS)
E4500_10CPU = MachineSpec("Enterprise E4500 (10x296)", 10, 296.0, 4096.0, 4608.0, 1 * GBPS)
E250 = MachineSpec("Enterprise E250", 2, 400.0, 2048.0, 13312.0, 1 * GBPS)
