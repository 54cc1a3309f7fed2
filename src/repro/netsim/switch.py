"""A store-and-forward Ethernet switch.

The paper's interconnection fabric is built from workgroup switches
(Foundry FastIron); the essential behaviours for the experiments are
per-output-port queueing (the contention point in Figure 11 is the shared
link from the switch to the server) and a small forwarding latency.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List

from repro.errors import SimulationError
from repro.netsim.backend import SimulationBackend
from repro.netsim.link import QUEUE_DEPTH_BUCKETS, Link
from repro.netsim.packet import Packet
from repro.telemetry.metrics import get_registry


class Switch:
    """Forwards packets to per-destination output links.

    Args:
        sim: The event engine.
        forwarding_delay: Fixed store-and-forward lookup latency applied
            to each packet before it is queued on the output port.
        name: Diagnostic label.
    """

    def __init__(
        self,
        sim: SimulationBackend,
        forwarding_delay: float = 5e-6,
        name: str = "switch",
    ) -> None:
        if forwarding_delay < 0:
            raise SimulationError("forwarding delay cannot be negative")
        self.sim = sim
        self.forwarding_delay = forwarding_delay
        self.name = name
        self._ports: Dict[str, Link] = {}
        self._forwarded = 0
        self.packets_unrouteable = 0
        #: Admission order of the arrivals on record at the ports: the
        #: tie-break the engine's insertion counter gave their events.
        self._serial = itertools.count()
        self._metrics = get_registry()
        # Pre-resolved telemetry handles (enablement is fixed here).
        self._m_forwarded = self._m_unrouteable = self._m_queue_depth = None
        if self._metrics.enabled:
            m = self._metrics
            self._m_forwarded = m.counter("net.switch.packets_forwarded", switch=name)
            self._m_unrouteable = m.counter(
                "net.switch.packets_unrouteable", switch=name
            )
            self._m_queue_depth = m.histogram(
                "net.switch.queue_depth", buckets=QUEUE_DEPTH_BUCKETS, switch=name
            )
            # One histogram over all ports, whose streaming quantiles
            # depend on order: observations are kept as (arrival,
            # serial, depth) and filed in that order before a read.
            m.add_collector(self._settle)
            sim.at_idle(self._settle)
        self._depths: List[tuple] = []

    def attach_port(self, address: str, link: Link) -> None:
        """Bind the output link that reaches ``address``."""
        if address in self._ports:
            raise SimulationError(f"port for {address!r} already attached")
        self._ports[address] = link
        link._port_of = self
        link._rearm()

    def _settle(self) -> None:
        """Settle the ports (arrivals on record are credited when their
        port admits them), then file the depths seen by the horizon."""
        for link in self._ports.values():
            link._settle()
        depths = self._depths
        if depths:
            depths.sort()
            horizon = self.sim.horizon
            due = [depth for arrive, _, depth in depths if arrive <= horizon]
            for depth in due:
                self._m_queue_depth.observe(depth)
            del depths[: len(due)]

    @property
    def packets_forwarded(self) -> int:
        """Packets forwarded as of now."""
        self._settle()
        return self._forwarded

    def ingress(self, packet: Packet) -> None:
        """Receive a packet from any input port and forward it."""
        link = self._ports.get(packet.dst)
        if link is None:
            self.packets_unrouteable += 1
            if self._m_unrouteable is not None:
                self._m_unrouteable.inc()
            return
        now = self.sim.now
        if link._inboxes:
            # Arrivals on record come before one an event carries.
            link._pull(now)
        self._forwarded += 1
        if self._m_forwarded is not None:
            self._observe(link, now, next(self._serial))
        # No forwarding event: arrivals come in time order and the delay
        # is constant, so per-link ready times stay monotone.
        link.admit(((now + self.forwarding_delay, packet.nbytes, packet),))

    def _observe(self, link: Link, arrive: float, serial: int) -> None:
        self._m_forwarded.inc()
        # Output-port occupancy at forwarding time: the contention
        # signal of Figure 11 (the shared switch->server port).
        self._depths.append((arrive, serial, link._waiting(arrive)[0]))

    def forward_due(self, link: Link, through: float) -> Iterator[tuple]:
        """The run port ``link`` admits late: its arrivals on record due
        by ``through``, merged over its feeders by (arrival, admission
        serial), each forwarded as of its own arrival instant."""
        delay, metered = self.forwarding_delay, self._m_forwarded is not None
        looked = ()
        while True:
            first = None
            for inbox in link._inboxes:
                if (
                    inbox
                    and inbox[0][0] <= through
                    and (first is None or inbox[0] < first[0])
                ):
                    first = inbox
            if first is None:
                return
            arrive, serial, nbytes, carrier = first.popleft()
            self._forwarded += 1
            if metered:
                # Admitting this packet settles the port to its ready
                # instant: what arrives inside its forwarding delay
                # cannot see it queued, and looks first.
                soon = min(arrive + delay, through)
                for key in [(arrive, serial)] + sorted(
                    rec[:2]
                    for inbox in link._inboxes
                    for rec in itertools.takewhile(lambda rec: rec[0] < soon, inbox)
                ):
                    if key > looked:
                        looked = key
                        self._observe(link, *key)
            yield arrive + delay, nbytes, carrier
