"""SLIM server substrate: machines, CPU scheduling, display drivers.

The servers run all application computation (Section 2.4).  This package
models the machines used in Table 3 (Ultra 2 workstations, Enterprise
E4500s), their multiprocessor time-share scheduling (the substrate under
Figures 9 and 10), the virtual display driver that turns rendering calls
into SLIM protocol traffic, and the X-server whose x11perf performance
Table 4 reports.
"""

from repro.server.host import MachineSpec, ULTRA_2, E4500, E250
from repro.server.scheduler import (
    Scheduler,
    Task,
    PeriodicTask,
    ProfilePlaybackTask,
)
from repro.server.priority import PriorityScheduler
from repro.server.slimdriver import SlimDriver, UpdateRecord
from repro.server.xserver import XPerfSuite, XPerfOp, xmark

__all__ = [
    "MachineSpec",
    "ULTRA_2",
    "E4500",
    "E250",
    "Scheduler",
    "Task",
    "PeriodicTask",
    "ProfilePlaybackTask",
    "PriorityScheduler",
    "SlimDriver",
    "UpdateRecord",
    "XPerfSuite",
    "XPerfOp",
    "xmark",
]
