"""The console's network bandwidth allocation mechanism (Section 7).

Multiple senders — the X-server for the interactive session, video
libraries for multimedia streams, possibly on different servers — request
bandwidth from the display console based on their past needs.  The console
"sorts the requests in ascending order and grants them one at a time until
a request exceeds the available bandwidth, at which point all remaining
requests are granted a fair share of the unallocated bandwidth."  This
keeps high-demand multimedia from starving interactive traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import BandwidthError


@dataclass(frozen=True)
class Grant:
    """The allocator's answer for one client."""

    client_id: int
    requested_bps: float
    granted_bps: float

    @property
    def satisfied(self) -> bool:
        """True when the client received its full request."""
        return self.granted_bps >= self.requested_bps - 1e-9


class BandwidthAllocator:
    """Implements the Sun Ray 1 console's allocation policy.

    Args:
        capacity_bps: Total bandwidth the console can absorb, bits/second.
            The Sun Ray 1's limit is its 100 Mbps link (minus protocol
            processing ceilings, which the caller may fold in).
    """

    def __init__(self, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise BandwidthError(f"capacity must be positive, got {capacity_bps}")
        self.capacity_bps = capacity_bps
        self._requests: Dict[int, float] = {}
        self._grants: Dict[int, Grant] = {}

    # -- request management -------------------------------------------------
    def request(self, client_id: int, bits_per_second: float) -> None:
        """Record (or update) a client's bandwidth request."""
        if bits_per_second < 0:
            raise BandwidthError(
                f"negative bandwidth request from client {client_id}"
            )
        self._requests[client_id] = float(bits_per_second)
        self._recompute()

    def withdraw(self, client_id: int) -> None:
        """Remove a client (session disconnected, stream stopped)."""
        if client_id not in self._requests:
            raise BandwidthError(f"unknown client {client_id}")
        del self._requests[client_id]
        self._grants.pop(client_id, None)
        self._recompute()

    def grant_for(self, client_id: int) -> Grant:
        """Return the current grant for one client."""
        try:
            return self._grants[client_id]
        except KeyError as exc:
            raise BandwidthError(f"no grant for client {client_id}") from exc

    def grants(self) -> List[Grant]:
        """All current grants, sorted by client id."""
        return [self._grants[cid] for cid in sorted(self._grants)]

    # -- the policy ----------------------------------------------------------
    def _recompute(self) -> None:
        """Re-run the paper's allocation policy over all requests."""
        self._grants.clear()
        if not self._requests:
            return
        # Ascending by requested rate; ties broken by client id for
        # determinism.
        order = sorted(self._requests.items(), key=lambda kv: (kv[1], kv[0]))
        remaining = self.capacity_bps
        index = 0
        while index < len(order):
            client_id, requested = order[index]
            if requested > remaining:
                break
            self._grants[client_id] = Grant(client_id, requested, requested)
            remaining -= requested
            index += 1
        leftovers = order[index:]
        if leftovers:
            share = remaining / len(leftovers)
            for client_id, requested in leftovers:
                self._grants[client_id] = Grant(client_id, requested, share)

    # -- reporting -----------------------------------------------------------
    @property
    def allocated_bps(self) -> float:
        """Sum of granted bandwidth."""
        return sum(g.granted_bps for g in self._grants.values())

    def utilization(self) -> float:
        """Fraction of capacity granted (0..1)."""
        return self.allocated_bps / self.capacity_bps

