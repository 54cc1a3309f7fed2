"""Network-dimension load playback (the Figure 11 background traffic).

The generator replays the network portion of recorded resource profiles:
for each profile interval it emits the recorded byte volume as a burst
pattern of MTU-sized datagrams from the server toward a sink console.
Display traffic is bursty — bytes cluster into display updates — so the
generator reproduces that second-order structure instead of smoothing
bytes into a constant rate (smooth traffic would never queue, and the
experiment's whole point is queueing at the shared server link).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.netsim.engine import Simulator
from repro.netsim.packet import Train
from repro.netsim.transport import Network
from repro.workloads.session import ResourceProfile

#: Bytes per full datagram on the wire (payload + IP/UDP headers).
FULL_DATAGRAM_NBYTES = 1500


@dataclass(frozen=True)
class TrafficPattern:
    """Shape of within-interval traffic bursts.

    Attributes:
        updates_per_second: Mean display-update bursts per second while
            the user is active.
        active_fraction: Fraction of each interval that carries traffic
            (users don't paint continuously).
    """

    updates_per_second: float = 1.2
    active_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.updates_per_second <= 0:
            raise WorkloadError("updates_per_second must be positive")
        if not 0 < self.active_fraction <= 1:
            raise WorkloadError("active_fraction must be in (0, 1]")


class NetworkLoadGenerator:
    """Replays one user's network profile onto the fabric.

    Args:
        sim: Event engine.
        network: The fabric to inject into.
        src: Source endpoint address (the server).
        dst: Sink endpoint address (a console absorbing the traffic).
        profile: The recorded resource profile to play back.
        pattern: Burst structure parameters.
        rng: Jitter source (burst times within the interval).
        flow: Flow label on emitted packets.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        src: str,
        dst: str,
        profile: ResourceProfile,
        pattern: TrafficPattern = TrafficPattern(),
        rng: Optional[np.random.Generator] = None,
        flow: str = "background",
        scale: float = 1.0,
    ) -> None:
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        self.sim = sim
        self.network = network
        self.src = src
        self.dst = dst
        self.profile = profile
        self.pattern = pattern
        self.rng = rng or np.random.default_rng(0)
        self.flow = flow
        self.scale = scale
        self._bytes_emitted = 0
        self._packets_emitted = 0
        #: The source's uplink, resolved by :meth:`start`.
        self._uplink = None

    @property
    def bytes_emitted(self) -> int:
        """Bytes sent as of now, headers included."""
        self._settle()
        return self._bytes_emitted

    @property
    def packets_emitted(self) -> int:
        """Packets sent as of now."""
        self._settle()
        return self._packets_emitted

    def _settle(self) -> None:
        # A burst waiting on the fabric's record is built, and counted,
        # when the fabric admits it: reading the uplink admits what is due.
        if self._uplink is not None:
            _ = self._uplink.stats

    def start(self) -> None:
        """Schedule the whole playback (loops over the profile)."""
        if self._uplink is not None:
            raise WorkloadError("generator already started")
        if not self.profile.net_bytes:
            raise WorkloadError(
                f"profile of {self.profile.user!r} has no network intervals"
            )
        # An unknown address is a SimulationError here, by name, not at
        # the first burst.
        self.network.endpoint(self.src)
        self.network.endpoint(self.dst)
        self._uplink = self.network.uplink(self.src)
        self._schedule_interval(0)

    def _schedule_interval(self, index: int) -> None:
        interval = self.profile.interval
        nbytes = self.profile.net_bytes[index % len(self.profile.net_bytes)]
        nbytes = int(round(nbytes * self.scale))
        start = self.sim.now
        if nbytes > 0:
            self._emit_bursts(start, interval, int(nbytes))
        self.sim.schedule_at(start + interval, lambda: self._schedule_interval(index + 1))

    def _emit_bursts(self, start: float, interval: float, nbytes: int) -> None:
        """Split an interval's bytes into randomly timed update bursts
        and offer them to the fabric."""
        mean_updates = self.pattern.updates_per_second * interval
        n_bursts = max(1, int(self.rng.poisson(mean_updates)))
        # Lognormal burst weights: most updates small, a few dominate.
        weights = self.rng.lognormal(0.0, 1.2, size=n_bursts)
        weights /= weights.sum()
        window = interval * self.pattern.active_fraction
        times = np.sort(self.rng.uniform(0.0, window, size=n_bursts))
        burst_bytes = np.rint(nbytes * weights).astype(np.int64)
        sent = burst_bytes > 0
        self._uplink.offer(
            self.dst,
            list(zip((start + times)[sent].tolist(), burst_bytes[sent].tolist())),
            self.train,
            self._burst_sender,
        )

    def train(self, when: float, burst_bytes: int) -> Train:
        """The burst sent at ``when``, counted as emitted."""
        full, tail = divmod(burst_bytes, FULL_DATAGRAM_NBYTES)
        sizes = [FULL_DATAGRAM_NBYTES] * full
        if tail:
            # Runt datagrams still pay their headers.
            tail = max(tail, 64)
            sizes.append(tail)
        self._bytes_emitted += full * FULL_DATAGRAM_NBYTES + tail
        self._packets_emitted += len(sizes)
        # No payload, no trace id: nothing can tell these packets
        # apart, so the burst is one record and the fabric builds no
        # object for a packet nobody receives.
        train = Train(self.src, self.dst, sizes, flow=self.flow)
        train.created_at = when
        return train

    def _burst_sender(self, burst_bytes: int):
        """The event a burst costs when its sending can be observed."""

        def send() -> None:
            self.network.send_burst(self.train(self.sim.now, burst_bytes))

        return send
