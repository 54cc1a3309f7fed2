"""Endpoints and topology wiring.

The SLIM protocol runs over unreliable datagrams (Section 2.2).  This
module is the *packet* layer: :class:`Endpoint` counts what arrives and
hands it to its receive hook; :class:`Network` builds the switched star
fabric.  Gap detection and recovery live in :mod:`repro.transport` — the
console channel tracks sequence holes and NACKs them, and the server
re-encodes damaged regions from its current framebuffer, because
replaying old bytes verbatim is wrong for COPY (its source may have
changed) and for ordering (a stale SET can overwrite newer content).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet, Train
from repro.netsim.profiles import NetworkProfile
from repro.netsim.switch import Switch
from repro.runcontext import current_run


class Endpoint:
    """A network-attached node: receives packets and counts them.

    With no receive hook an arrival is only counted, and the links that
    feed the endpoint (:meth:`Link.feeds`) count it from their fold
    instead of firing an event; the counters settle those links when
    read, so they are exact at any instant either way.

    Args:
        address: Fabric address (must be unique in the network).
        on_receive: Callback invoked with each delivered packet.
    """

    def __init__(
        self,
        address: str,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.address = address
        self._on_receive = on_receive
        self._packets = 0
        self._bytes = 0
        self._feeds: List[Link] = []

    @property
    def on_receive(self) -> Optional[Callable[[Packet], None]]:
        """The receive hook.  Assigned mid-run, it sees exactly the
        packets that arrive from then on."""
        return self._on_receive

    @on_receive.setter
    def on_receive(self, hook: Optional[Callable[[Packet], None]]) -> None:
        # What is due is settled as it happened: heard, or not, by the
        # hook that was there.
        self._settle()
        self._on_receive = hook
        for link in self._feeds:
            link._rearm()

    def _settle(self) -> None:
        for link in self._feeds:
            link._settle()

    @property
    def packets_received(self) -> int:
        self._settle()
        return self._packets

    @property
    def bytes_received(self) -> int:
        self._settle()
        return self._bytes

    def deliver(self, packet: Packet) -> None:
        """Called by the fabric when a packet arrives; the receive hook
        may keep what it is handed."""
        self._packets += 1
        self._bytes += packet.nbytes
        if self._on_receive is not None:
            self._on_receive(packet)


def _split_rng(
    rng: Optional[np.random.Generator],
) -> Tuple[Optional[np.random.Generator], Optional[np.random.Generator]]:
    """Two independent generators derived from one attach-time rng.

    The uplink and downlink must not consume a single stream: reverse-path
    control traffic (NACKs, FRONTIERs) would then shift the forward
    path's loss pattern, coupling the two directions' error processes.
    ``Generator.spawn`` (numpy >= 1.25) derives statistically independent
    children; older numpys fall back to seeding from the parent.
    """
    if rng is None:
        return None, None
    try:
        up, down = rng.spawn(2)
    except (AttributeError, TypeError):
        seeds = rng.integers(0, 2**63, size=2)
        up = np.random.default_rng(int(seeds[0]))
        down = np.random.default_rng(int(seeds[1]))
    return up, down


class Network:
    """Builds and owns a switched star topology.

    Every endpoint hangs off one switch via a full-duplex pair of links,
    mirroring the paper's configuration (consoles and servers on a
    workgroup switch).  Asymmetric rates are supported so the server can
    have a faster uplink (the case studies use 1 Gbps server links).

    The links report to the run current at :meth:`attach`, which builds
    them; the uplink tap is the capture of the run current here.
    """

    def __init__(
        self,
        sim: Simulator,
        default_rate_bps: float,
        propagation_delay: float = 5e-6,
        forwarding_delay: float = 5e-6,
    ) -> None:
        self.sim = sim
        self.default_rate_bps = default_rate_bps
        self.propagation_delay = propagation_delay
        self._capture = current_run().capture
        self.switch = Switch(sim, forwarding_delay=forwarding_delay)
        self._endpoints: Dict[str, Endpoint] = {}
        self._uplinks: Dict[str, Link] = {}   # endpoint -> switch
        self._downlinks: Dict[str, Link] = {}  # switch -> endpoint

    def attach(
        self,
        endpoint: Endpoint,
        rate_bps: Optional[float] = None,
        queue_limit_bytes: Optional[int] = None,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        profile: Optional[NetworkProfile] = None,
    ) -> Endpoint:
        """Connect an endpoint to the switch with a full-duplex link pair.

        Pass a :class:`~repro.netsim.profiles.NetworkProfile` to model a
        WAN/mobile access link (asymmetric rates, latency, jitter, burst
        loss); a profile replaces the explicit link kwargs.  The ``rng``
        is split into independent per-direction streams, so loss and
        jitter decisions on the reverse path (NACKs, FRONTIERs) never
        perturb the forward path's patterns.
        """
        if endpoint.address in self._endpoints:
            raise SimulationError(f"address {endpoint.address!r} already attached")
        if profile is not None:
            if rate_bps is not None or queue_limit_bytes is not None or loss_rate:
                raise SimulationError(
                    "pass either a profile or explicit link kwargs, not both"
                )
            if profile.randomized and rng is None:
                raise SimulationError(
                    f"profile {profile.name!r} requires an rng for determinism"
                )
            up_params, down_params = profile.link_params()
        else:
            rate = rate_bps if rate_bps is not None else self.default_rate_bps
            common = {
                "propagation_delay": self.propagation_delay,
                "loss_rate": loss_rate,
            }
            up_params = dict(common, rate_bps=rate)
            down_params = dict(
                common, rate_bps=rate, queue_limit_bytes=queue_limit_bytes
            )
        up_rng, down_rng = _split_rng(rng)
        uplink = Link(
            self.sim,
            deliver=self.switch.ingress,
            rng=up_rng,
            name=f"{endpoint.address}->switch",
            **up_params,
        )
        downlink = Link(
            self.sim,
            deliver=endpoint.deliver,
            rng=down_rng,
            name=f"switch->{endpoint.address}",
            **down_params,
        )
        if self._capture is not None:
            # Tap uplinks only: every frame enters the fabric exactly
            # once, so the capture sees each datagram exactly once.
            uplink.capture = self._capture
        uplink.enters(self.switch)
        downlink.feeds(endpoint)
        self.switch.attach_port(endpoint.address, downlink)
        self._endpoints[endpoint.address] = endpoint
        self._uplinks[endpoint.address] = uplink
        self._downlinks[endpoint.address] = downlink
        return endpoint

    def send(self, packet: Packet) -> bool:
        """Inject a packet from its source endpoint's uplink."""
        uplink = self._uplinks.get(packet.src)
        if uplink is None:
            raise SimulationError(f"unknown source endpoint {packet.src!r}")
        if packet.dst not in self._endpoints:
            raise SimulationError(f"unknown destination endpoint {packet.dst!r}")
        packet.created_at = self.sim.now
        return uplink.send(packet)

    def send_burst(self, packets: Union[List[Packet], Train]) -> List[bool]:
        """Inject a same-source packet train in one fabric operation.

        Equivalent to calling :meth:`send` on each packet in order, but
        the uplink admits the train as one run — the natural entry point
        for fragment trains and per-tick workload bursts.  A
        :class:`Train` stands for its packets without an object for each.
        """
        if not packets:
            return []
        members = (packets,) if isinstance(packets, Train) else packets
        src = members[0].src
        uplink = self._uplinks.get(src)
        if uplink is None:
            raise SimulationError(f"unknown source endpoint {src!r}")
        now = self.sim.now
        for packet in members:
            if packet.src != src:
                raise SimulationError(
                    "send_burst requires a single source endpoint, got "
                    f"{src!r} and {packet.src!r}"
                )
            if packet.dst not in self._endpoints:
                raise SimulationError(
                    f"unknown destination endpoint {packet.dst!r}"
                )
            packet.created_at = now
        return uplink.send_burst(packets)

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError as exc:
            raise SimulationError(f"unknown endpoint {address!r}") from exc

    def downlink(self, address: str) -> Link:
        """The switch->endpoint link (the Figure 11 contention point)."""
        return self._downlinks[address]

    def uplink(self, address: str) -> Link:
        return self._uplinks[address]
