"""The console's network bandwidth allocation mechanism (Section 7).

Multiple senders — the X-server for the interactive session, video
libraries for multimedia streams, possibly on different servers — request
bandwidth from the display console based on their past needs.  The console
"sorts the requests in ascending order and grants them one at a time until
a request exceeds the available bandwidth, at which point all remaining
requests are granted a fair share of the unallocated bandwidth."  This
keeps high-demand multimedia from starving interactive traffic.

The static policy assumes the paper's dedicated switched LAN, where
capacity is a constant.  On WAN/mobile access links capacity is both
smaller and effectively variable (loss, jitter, bufferbloat), so
:class:`TieredAllocator` layers congestion adaptation on top: it watches
grant shortfall and downlink queue pressure and shifts senders through
quality *tiers* — full fidelity, sliding-window progressive refinement
(coarse pass now, refine when capacity allows; Mundani et al.), then
thumbnail rate — and restores them hysteretically once pressure clears,
so interactivity degrades gracefully instead of collapsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import BandwidthError
from repro.telemetry.metrics import get_registry


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

    @property
    def unallocated_bps(self) -> float:
        """Capacity not granted to anyone."""
        return self.capacity_bps - self.allocated_bps

    def utilization(self) -> float:
        """Fraction of capacity granted (0..1)."""
        return self.allocated_bps / self.capacity_bps


@dataclass(frozen=True)
class QualityTier:
    """One rung of the graceful-degradation ladder.

    ``scale`` is the fraction of a sender's full-fidelity rate requested
    at this tier; the allocator grants the scaled rate.  A video sender
    meets a lower rate with its stream geometry (Section 7's "reducing
    the resolution of the media streams and scaling them locally").
    """

    name: str
    scale: float

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise BandwidthError(
                f"tier scale must be in (0, 1], got {self.scale}"
            )


#: The default degradation ladder: full fidelity, a sliding-window
#: progressive-refinement pass at roughly 2x subsampling per axis, and a
#: thumbnail-rate floor that keeps the session alive on any link.
DEFAULT_TIERS: Tuple[QualityTier, ...] = (
    QualityTier("full", 1.0),
    QualityTier("progressive", 0.45),
    QualityTier("thumbnail", 0.12),
)


@dataclass
class TierStats:
    """Transition counters the tiered allocator maintains."""

    demotions: int = 0
    promotions: int = 0
    observations: int = 0
    #: Peak combined pressure seen by observe() (diagnostics).
    peak_pressure: float = 0.0
    #: Transition log: (client_id, from_tier_name, to_tier_name).
    transitions: List[Tuple[int, str, str]] = field(default_factory=list)


class TieredAllocator:
    """Congestion-adaptive quality tiers over the Section 7 allocator.

    Senders register their *desired* (full-fidelity) rates; the
    allocator requests only the tier-scaled rate from the underlying
    :class:`BandwidthAllocator`.  A periodic :meth:`observe` call feeds
    it the downlink queue pressure; combined with the grant shortfall it
    drives the tier state machine:

    * sustained pressure above ``demote_pressure`` (for ``demote_after``
      consecutive observations) demotes the sender with the largest
      current request one tier — the biggest contributor sheds load
      first;
    * sustained calm below ``promote_pressure`` (for ``promote_after``
      observations) promotes one demoted sender back up — smallest
      desired rate first, the restoration least likely to re-trigger
      congestion — but only if the restored request would still be
      granted with shortfall at most ``promote_pressure`` (the
      restoration is admission-checked, tentatively applied and rolled
      back if it would not fit).

    The threshold gap, the longer promote streak, and the admission
    check are the hysteresis: a link hovering at the demote threshold
    cannot flap, and a sender whose full-rate demand still exceeds
    capacity stays parked at its degraded tier instead of oscillating.

    Args:
        capacity_bps: Downlink capacity being allocated.
        tiers: Degradation ladder, best quality first.
        demote_pressure: Combined-pressure level treated as congestion.
        promote_pressure: Level below which the link counts as clear.
        demote_after: Consecutive congested observations before demoting.
        promote_after: Consecutive clear observations before promoting.

    Tier transitions are counted as ``bw.tier.transitions`` (labeled by
    direction and new tier) in the registry of the run it is built under.
    """

    def __init__(
        self,
        capacity_bps: float,
        tiers: Sequence[QualityTier] = DEFAULT_TIERS,
        demote_pressure: float = 0.35,
        promote_pressure: float = 0.15,
        demote_after: int = 2,
        promote_after: int = 6,
    ) -> None:
        if not tiers:
            raise BandwidthError("at least one quality tier is required")
        if any(
            tiers[i].scale <= tiers[i + 1].scale for i in range(len(tiers) - 1)
        ):
            raise BandwidthError("tiers must have strictly decreasing scales")
        if not 0 <= promote_pressure < demote_pressure <= 1.5:
            raise BandwidthError(
                "thresholds must satisfy 0 <= promote < demote"
            )
        if demote_after < 1 or promote_after < 1:
            raise BandwidthError("streak lengths must be positive")
        self.base = BandwidthAllocator(capacity_bps)
        self.tiers: Tuple[QualityTier, ...] = tuple(tiers)
        self.demote_pressure = demote_pressure
        self.promote_pressure = promote_pressure
        self.demote_after = demote_after
        self.promote_after = promote_after
        self.stats = TierStats()
        self._desired: Dict[int, float] = {}
        self._tier_index: Dict[int, int] = {}
        self._congested_streak = 0
        self._clear_streak = 0
        self._metrics = get_registry()

    # -- request management --------------------------------------------------
    def request(self, client_id: int, bits_per_second: float) -> None:
        """Record a sender's desired full-fidelity rate."""
        if bits_per_second < 0:
            raise BandwidthError(
                f"negative bandwidth request from client {client_id}"
            )
        self._desired[client_id] = float(bits_per_second)
        if client_id not in self._tier_index:
            self._tier_index[client_id] = 0
            self._record_tier_level(client_id)
        self._push_request(client_id)

    def withdraw(self, client_id: int) -> None:
        if client_id not in self._desired:
            raise BandwidthError(f"unknown client {client_id}")
        del self._desired[client_id]
        del self._tier_index[client_id]
        self.base.withdraw(client_id)

    def _push_request(self, client_id: int) -> None:
        scale = self.tiers[self._tier_index[client_id]].scale
        self.base.request(client_id, self._desired[client_id] * scale)

    # -- reading the current state -------------------------------------------
    def tier_of(self, client_id: int) -> QualityTier:
        try:
            return self.tiers[self._tier_index[client_id]]
        except KeyError as exc:
            raise BandwidthError(f"unknown client {client_id}") from exc

    def grant_for(self, client_id: int) -> Grant:
        return self.base.grant_for(client_id)

    def effective_rate(self, client_id: int) -> float:
        """The rate the sender should actually emit at: its grant."""
        return self.base.grant_for(client_id).granted_bps

    def shortfall(self) -> float:
        """Fraction of currently requested (tier-scaled) bps not granted."""
        requested = sum(g.requested_bps for g in self.base.grants())
        if requested <= 0:
            return 0.0
        granted = sum(g.granted_bps for g in self.base.grants())
        return max(0.0, 1.0 - granted / requested)

    # -- the adaptation loop ---------------------------------------------------
    def observe(self, queue_pressure: float) -> Optional[Tuple[int, str, str]]:
        """Feed one congestion observation; returns a transition, if any.

        Args:
            queue_pressure: Downlink buffer occupancy as a fraction of
                its limit (values above 1 are clamped; callers without a
                buffer limit may pass queue delay normalized by their
                latency budget instead).
        """
        if queue_pressure < 0:
            raise BandwidthError("queue pressure cannot be negative")
        pressure = max(min(queue_pressure, 1.0), self.shortfall())
        self.stats.observations += 1
        self.stats.peak_pressure = max(self.stats.peak_pressure, pressure)
        if pressure >= self.demote_pressure:
            self._congested_streak += 1
            self._clear_streak = 0
            if self._congested_streak >= self.demote_after:
                self._congested_streak = 0
                return self._demote()
        elif pressure <= self.promote_pressure:
            self._clear_streak += 1
            self._congested_streak = 0
            if self._clear_streak >= self.promote_after:
                self._clear_streak = 0
                return self._promote()
        else:
            # The hysteresis band: neither congested nor provably clear.
            self._congested_streak = 0
            self._clear_streak = 0
        return None

    def _demote(self) -> Optional[Tuple[int, str, str]]:
        candidates = [
            (self._desired[cid] * self.tiers[idx].scale, cid)
            for cid, idx in self._tier_index.items()
            if idx < len(self.tiers) - 1 and self._desired[cid] > 0
        ]
        if not candidates:
            return None
        # Largest current request sheds load first; id breaks ties.
        _, client_id = max(candidates, key=lambda item: (item[0], -item[1]))
        return self._shift(client_id, +1, "demote")

    def _promote(self) -> Optional[Tuple[int, str, str]]:
        candidates = sorted(
            (self._desired[cid], cid)
            for cid, idx in self._tier_index.items()
            if idx > 0
        )
        # Cheapest restoration first; admission-check each tentatively
        # and keep the first that still fits at the promoted rate.
        for _, client_id in candidates:
            index = self._tier_index[client_id]
            self._tier_index[client_id] = index - 1
            self._push_request(client_id)
            if self.shortfall() <= self.promote_pressure:
                self._tier_index[client_id] = index  # _shift re-applies
                self._push_request(client_id)
                return self._shift(client_id, -1, "promote")
            self._tier_index[client_id] = index
            self._push_request(client_id)
        return None

    def _shift(
        self, client_id: int, delta: int, direction: str
    ) -> Tuple[int, str, str]:
        old = self.tiers[self._tier_index[client_id]]
        self._tier_index[client_id] += delta
        new = self.tiers[self._tier_index[client_id]]
        self._push_request(client_id)
        if direction == "demote":
            self.stats.demotions += 1
        else:
            self.stats.promotions += 1
        self.stats.transitions.append((client_id, old.name, new.name))
        if self._metrics.enabled:
            self._metrics.counter(
                "bw.tier.transitions", direction=direction, tier=new.name
            ).inc()
            self._record_tier_level(client_id)
        return (client_id, old.name, new.name)

    def _record_tier_level(self, client_id: int) -> None:
        """Publish the client's tier index as a gauge (0 = full
        fidelity) so time-series windows can track residency — the
        tier_residency SLO reads this series."""
        if self._metrics.enabled:
            self._metrics.gauge("bw.tier.level", client=client_id).set(
                self._tier_index[client_id]
            )
