"""A store-and-forward Ethernet switch.

The paper's interconnection fabric is built from workgroup switches
(Foundry FastIron); the essential behaviours for the experiments are
per-output-port queueing (the contention point in Figure 11 is the shared
link from the switch to the server) and a small forwarding latency.

Hops nobody hears cost no event: the switch keeps records instead — its
sources' bursts offered ahead of their instants, and each port's
arrivals, one inbox per feeding link — and admits them, each as of its
own instant, when something is due.  The bursts go to their uplink as
``(when, port, train)`` (:meth:`Switch._admit_offers`); a port takes
its arrivals merged over its feeders, in stretches where nothing can
differ per packet (``Link._admit_record``) and through
:meth:`Switch.forward_due` otherwise (DESIGN.md section 16.2).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Iterator

from repro.errors import SimulationError
from repro.netsim.engine import Simulator
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
        sim: Simulator,
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
        #: The record of the sources: bursts offered ahead of their
        #: instants (:meth:`Link.offer`) for ports nobody hears, as
        #: ``(when, offer serial, nbytes, terms)`` with ``terms =
        #: (uplink, port, train, sender)`` shared by one offer's bursts.
        #: The serial is the tie-break the engine's insertion counter
        #: gave the bursts' events.  Every link of this switch holds the
        #: deque (``Link._offers``), so it is only ever mutated in place.
        self._offers: Deque[tuple] = deque()
        self._offer_serial = itertools.count()
        self._offers_sorted = True
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

    def attach_port(self, address: str, link: Link) -> None:
        """Bind the output link that reaches ``address``."""
        if address in self._ports:
            raise SimulationError(f"port for {address!r} already attached")
        self._ports[address] = link
        link._port_of = self
        link._offers = self._offers
        link._rearm()

    def _settle(self) -> None:
        """Settle the ports: arrivals on record are credited when their
        port admits them."""
        for link in self._ports.values():
            link._settle()

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
        if link._inboxes or link._offers:
            # Arrivals on record come before one an event carries.
            link._pull(now)
        self._forwarded += 1
        if self._m_forwarded is not None:
            self._observe(link, now)
        # No forwarding event: arrivals come in time order and the delay
        # is constant, so per-link ready times stay monotone.
        link.admit(((now + self.forwarding_delay, packet.nbytes, packet),))

    # -- the record of the sources ------------------------------------------------
    def _keep_offer(self, terms: tuple, bursts) -> None:
        """Put one offer's ``(when, nbytes)`` bursts on record."""
        serial = self._offer_serial
        self._offers.extend(
            (when, next(serial), nbytes, terms) for when, nbytes in bursts
        )
        # Sorted when next read: Timsort over a few sorted runs.
        self._offers_sorted = False

    def _ordered_offers(self) -> Deque[tuple]:
        offers = self._offers
        if not self._offers_sorted:
            # Offer serials are unique: terms are never compared.
            ordered = sorted(offers)
            offers.clear()
            offers.extend(ordered)
            self._offers_sorted = True
        return offers

    def _admit_offers(self, through: float) -> None:
        """Admit the bursts on record due by ``through``, each as of its
        own instant, in ``(when, offer serial)`` order — the order their
        events would have fired, so the ports' admission serials are
        drawn as they were — consecutive bursts of one uplink as one
        run, handed over as ``(when, port, train)`` each
        (:meth:`Link._admit_bursts`).  The head is re-read per run: an
        uplink folds once its run is admitted, and a fold pulls what is
        due here first."""
        offers = self._ordered_offers()
        while offers and offers[0][0] <= through:
            uplink = offers[0][3][0]
            bursts = []
            while offers and offers[0][0] <= through and offers[0][3][0] is uplink:
                when, _, nbytes, (_, port, train, _) = offers.popleft()
                bursts.append((when, port, train(when, nbytes)))
            uplink._admit_bursts(bursts)

    def _rearm_offers(self, port: Link) -> None:
        """``port`` can keep no burst waiting any more (somebody hears
        it, or it is tapped): the bursts on record for it ride their
        events again, in order."""
        offers = self._ordered_offers()
        kept = []
        for offer in offers:
            when, _, nbytes, (_, bound_for, _, sender) = offer
            if bound_for is port:
                self.sim.schedule_at(when, sender(nbytes))
            else:
                kept.append(offer)
        offers.clear()
        offers.extend(kept)

    def _observe(self, link: Link, arrive: float) -> None:
        self._m_forwarded.inc()
        # Output-port occupancy at forwarding time: the contention
        # signal of Figure 11 (the shared switch->server port).
        self._m_queue_depth.observe(link._waiting(arrive)[0])

    def forward_due(self, link: Link, through: float) -> Iterator[tuple]:
        """The run port ``link`` admits late through :meth:`Link.admit`:
        its arrivals on record due by ``through``, merged over its
        feeders by (arrival, admission serial), each forwarded as of its
        own arrival instant."""
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
                        self._observe(link, key[0])
            yield arrive + delay, nbytes, carrier
