"""Packets carried by the simulated interconnection fabric."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.errors import SimulationError

_packet_ids = itertools.count()


class Packet:
    """One datagram on the wire.

    A plain ``__slots__`` class rather than a dataclass: packets are the
    single most-allocated object in a simulation, and slots cut both the
    per-instance memory (no ``__dict__``) and the attribute-access cost
    on the fabric's hot paths.

    Attributes:
        src: Source endpoint address (string, e.g. "server").
        dst: Destination endpoint address.
        nbytes: Size on the physical link, headers included.
        payload: Opaque content — usually a :class:`repro.core.wire.Datagram`
            or an experiment-specific marker; never inspected by the fabric.
        flow: Optional flow label for per-flow statistics.
        created_at: Simulation time the packet entered the network.
        trace_id: Causal-trace identifier (:mod:`repro.obs`) stamped by
            the sending channel; ``None`` when tracing is off.
        hops: A traced packet's itinerary, newest hop first: each link
            that admits it prepends one ``(link, ready, start, finish,
            earlier hops)`` record.  The receiving channel hands the
            chain to the tracer; nobody else reads it.
    """

    __slots__ = (
        "src",
        "dst",
        "nbytes",
        "payload",
        "flow",
        "created_at",
        "trace_id",
        "hops",
        "packet_id",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        nbytes: int,
        payload: Any = None,
        flow: Optional[str] = None,
        created_at: float = 0.0,
        trace_id: Optional[int] = None,
        packet_id: Optional[int] = None,
    ) -> None:
        if nbytes <= 0:
            raise SimulationError(f"packet size must be positive, got {nbytes}")
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.flow = flow
        self.created_at = created_at
        self.trace_id = trace_id
        self.hops = None
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id

    def __repr__(self) -> str:
        return (
            f"Packet(src={self.src!r}, dst={self.dst!r}, nbytes={self.nbytes!r}, "
            f"payload={self.payload!r}, flow={self.flow!r}, "
            f"created_at={self.created_at!r}, trace_id={self.trace_id!r}, "
            f"packet_id={self.packet_id!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.src,
            self.dst,
            self.nbytes,
            self.payload,
            self.flow,
            self.created_at,
            self.trace_id,
            self.packet_id,
        ) == (
            other.src,
            other.dst,
            other.nbytes,
            other.payload,
            other.flow,
            other.created_at,
            other.trace_id,
            other.packet_id,
        )


class Train:
    """Packets nobody can tell apart, handed to the fabric at one instant.

    With no payload and no trace id nothing can trace or capture them
    (both test exactly those fields), so the fabric keeps no object per
    packet: a link's books carry the train where a packet would ride —
    it reads as a payload-less, untraced one — and :meth:`packet` builds
    a :class:`Packet` only where one is demanded, for a receive hook or
    to ride an event.  ``sizes`` holds each packet's size on the wire,
    in sending order; the other attributes are :class:`Packet`'s.
    """

    __slots__ = ("src", "dst", "sizes", "flow", "created_at")

    payload = None
    trace_id = None

    def __init__(
        self, src: str, dst: str, sizes, flow: Optional[str] = None
    ) -> None:
        if sizes and min(sizes) <= 0:
            raise SimulationError(f"packet sizes must be positive, got {sizes}")
        self.src = src
        self.dst = dst
        self.sizes = sizes
        self.flow = flow
        self.created_at = 0.0

    def __len__(self) -> int:
        return len(self.sizes)

    def packet(self, nbytes: int) -> Packet:
        """One of this train's packets as an object."""
        return Packet(self.src, self.dst, nbytes, None, self.flow, self.created_at)
