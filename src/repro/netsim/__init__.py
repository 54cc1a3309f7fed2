"""Discrete-event network simulation substrate.

Models the paper's interconnection fabric: dedicated, switched, full-duplex
100 Mbps Ethernet (Section 2.1), as well as the constrained links used for
the scalability study (Section 5.4, Figure 6) and the shared-uplink
contention experiment (Section 6.2, Figure 11).

All components talk to the engine through the
:class:`~repro.netsim.backend.SimulationBackend` protocol; the default
implementation is the single-process :class:`LocalBackend`
(= :class:`Simulator`), and :class:`~repro.netsim.sharded.ShardedBackend`
scales the same interface across worker processes for fleet-sized runs.
"""

from repro.netsim.backend import LocalBackend, SimulationBackend
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, Train
from repro.netsim.link import GilbertElliottLoss, Link, LinkStats
from repro.netsim.profiles import PROFILES, NetworkProfile, get_profile
from repro.netsim.sharded import (
    COORDINATOR,
    LocalBus,
    ShardContext,
    ShardedBackend,
    merge_telemetry,
)
from repro.netsim.switch import Switch
from repro.netsim.transport import Endpoint, Network

__all__ = [
    "COORDINATOR",
    "GilbertElliottLoss",
    "LocalBackend",
    "LocalBus",
    "NetworkProfile",
    "PROFILES",
    "ShardContext",
    "ShardedBackend",
    "SimulationBackend",
    "Simulator",
    "Packet",
    "Link",
    "LinkStats",
    "Switch",
    "Train",
    "Endpoint",
    "Network",
    "get_profile",
    "merge_telemetry",
]
