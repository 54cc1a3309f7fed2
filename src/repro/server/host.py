"""Server machine models (the hardware column of Table 3).

A :class:`ServerHost` bundles a CPU scheduler sized like one of the
paper's machines with memory capacity and a network uplink rate.  CPU
costs elsewhere in the reproduction are expressed in seconds *on a
296 MHz UltraSPARC-II*; machines scale them by relative clock rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SchedulerError
from repro.netsim.engine import Simulator
from repro.server.scheduler import Scheduler
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

    def scale_cost(self, reference_seconds: float) -> float:
        """Convert a reference-CPU cost to this machine's CPU time."""
        return reference_seconds / self.speed_factor


#: Machines from Table 3 and the Section 6.3 case studies.
ULTRA_2 = MachineSpec("Ultra 2", 2, 296.0, 512.0, 1024.0, 100 * MBPS)
ULTRA_2_1CPU = MachineSpec("Ultra 2 (1 cpu)", 1, 296.0, 512.0, 1024.0, 100 * MBPS)
E4500 = MachineSpec("Enterprise E4500", 8, 336.0, 6144.0, 13312.0, 1 * GBPS)
E4500_10CPU = MachineSpec("Enterprise E4500 (10x296)", 10, 296.0, 4096.0, 4608.0, 1 * GBPS)
E250 = MachineSpec("Enterprise E250", 2, 400.0, 2048.0, 13312.0, 1 * GBPS)


class ServerHost:
    """A running server: scheduler + memory + uplink.

    Args:
        sim: Event engine the scheduler runs on.
        spec: The machine being modelled.
        active_cpus: Optionally restrict the number of enabled CPUs (the
            Figure 9 experiment ran the E4500 "with a single processor
            enabled"; Figure 10 sweeps 1-8).
        quantum: Scheduler time slice.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        active_cpus: Optional[int] = None,
        quantum: float = 0.010,
    ) -> None:
        cpus = active_cpus if active_cpus is not None else spec.num_cpus
        if not 1 <= cpus <= spec.num_cpus:
            raise SchedulerError(
                f"{spec.name} has {spec.num_cpus} CPUs; cannot enable {cpus}"
            )
        self.sim = sim
        self.spec = spec
        self.active_cpus = cpus
        self.scheduler = Scheduler(
            sim,
            num_cpus=cpus,
            quantum=quantum,
            memory_mb=spec.ram_mb,
        )

    def scale_cost(self, reference_seconds: float) -> float:
        """Reference-CPU seconds -> this machine's CPU seconds."""
        return self.spec.scale_cost(reference_seconds)

    def utilization(self) -> float:
        return self.scheduler.utilization()
