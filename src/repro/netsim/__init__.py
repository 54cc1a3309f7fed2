"""Discrete-event network simulation substrate.

Models the paper's interconnection fabric: dedicated, switched, full-duplex
100 Mbps Ethernet (Section 2.1), as well as the constrained links used for
the scalability study (Section 5.4, Figure 6) and the shared-uplink
contention experiment (Section 6.2, Figure 11).

Every component advances simulated time on one :class:`Simulator`
(also importable as :class:`LocalBackend`).
"""

from repro.netsim.backend import LocalBackend
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet, Train
from repro.netsim.link import GilbertElliottLoss, Link, LinkStats
from repro.netsim.profiles import PROFILES, NetworkProfile, get_profile
from repro.netsim.switch import Switch
from repro.netsim.transport import Endpoint, Network

__all__ = [
    "GilbertElliottLoss",
    "LocalBackend",
    "NetworkProfile",
    "PROFILES",
    "Simulator",
    "Packet",
    "Link",
    "LinkStats",
    "Switch",
    "Train",
    "Endpoint",
    "Network",
    "get_profile",
]
