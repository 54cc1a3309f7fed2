"""A reliable server -> console display channel over the simulated fabric.

:class:`DisplayChannel` wires the full stack end to end:

    SlimDriver -> ServerChannel -> WireCodec fragmentation -> Network
      -> ConsoleChannel -> WireCodec reassembly -> Console decode

with loss recovery done in-band: the console's gap detection emits real
NACK packets over the reverse path, the server re-encodes the damaged
regions from its *current* framebuffer (full-screen refresh once the
damage map has evicted the seq), and the periodic status exchange bounds
tail-loss recovery — the last update of a burst is recovered
deterministically, with no out-of-band settle loop.

The status timer quiesces once the console confirms every sent seq, so
``sim.run()`` drains naturally after convergence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.encoder import SlimEncoder
from repro.console.console import Console
from repro.framebuffer.framebuffer import FrameBuffer
from repro.netsim.engine import Simulator
from repro.netsim.transport import Network
from repro.transport.console import ConsoleChannel
from repro.transport.server import DEFAULT_STATUS_INTERVAL, ServerChannel
from repro.units import ETHERNET_100


class DisplayChannel:
    """One server framebuffer reliably mirrored onto one console.

    Args:
        framebuffer: The authoritative server framebuffer.
        sim: Event engine; created if omitted.
        network: Fabric; a default switched star is built if omitted.
        rate_bps: Link rate for a built network.
        loss_rate: Random loss probability on the *server's* link pair —
            display traffic and the console's NACKs both cross it, so
            recovery requests are lossy too.
        seed: RNG seed for loss decisions (determinism).
        console: Console to feed; one matching the framebuffer is
            created if omitted (simulator-attached).
        status_interval: Status-exchange period, seconds.
        nack_delay: Console reorder-tolerance window before NACKing.
        nack_timeout: Unanswered-NACK retry period; defaults to twice
            the status interval.
        damage_capacity: Server damage-map entries before eviction.
        queue_limit_bytes: Console downlink buffer size (tail drops).

    Every layer built here (and by :meth:`make_driver`) takes its
    registry, tracer and wire capture from the run it is built under.
    """

    def __init__(
        self,
        framebuffer: FrameBuffer,
        sim: Optional[Simulator] = None,
        network: Optional[Network] = None,
        rate_bps: float = ETHERNET_100,
        loss_rate: float = 0.0,
        seed: int = 0,
        console: Optional[Console] = None,
        console_address: str = "console",
        server_address: str = "server",
        status_interval: float = DEFAULT_STATUS_INTERVAL,
        nack_delay: float = 0.002,
        nack_timeout: Optional[float] = None,
        recovery_encoder: Optional[SlimEncoder] = None,
        damage_capacity: int = 1024,
        queue_limit_bytes: Optional[int] = None,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.network = network if network is not None else Network(
            self.sim, default_rate_bps=rate_bps
        )
        self.framebuffer = framebuffer
        self.console = console if console is not None else Console(
            framebuffer.width,
            framebuffer.height,
            sim=self.sim,
            address=console_address,
        )
        if nack_timeout is None:
            nack_timeout = 2 * status_interval
        self.console_channel = ConsoleChannel(
            self.console,
            self.network,
            server_address=server_address,
            nack_delay=nack_delay,
            nack_timeout=nack_timeout,
        )
        self.server_channel = ServerChannel(
            framebuffer,
            self.network,
            self.sim,
            address=server_address,
            console_address=console_address,
            recovery_encoder=recovery_encoder,
            damage_capacity=damage_capacity,
            status_interval=status_interval,
        )
        self.console_channel.attach(queue_limit_bytes=queue_limit_bytes)
        rng = np.random.default_rng(seed) if loss_rate > 0 else None
        self.server_channel.attach(loss_rate=loss_rate, rng=rng)

    # -- the driver-facing surface ---------------------------------------------
    def send_command(self, command) -> int:
        """The :class:`SlimDriver` ``send`` hook (server -> console)."""
        return self.server_channel.send_command(command)

    def make_driver(self, encoder: Optional[SlimEncoder] = None, **kwargs):
        """A :class:`SlimDriver` painting ``framebuffer`` into this channel."""
        from repro.server.slimdriver import SlimDriver

        return SlimDriver(
            encoder=encoder,
            framebuffer=self.framebuffer,
            send=self.send_command,
            **kwargs,
        )

    # -- running ----------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> None:
        """Run the simulation until it drains (recovery included)."""
        self.sim.run(max_events=max_events)

    def run_until(self, deadline: float) -> None:
        self.sim.run_until(deadline)

    # -- state ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        """Console framebuffer is pixel-exact against the server's."""
        return self.framebuffer.equals(self.console.framebuffer)

    @property
    def resolved(self) -> bool:
        """Every sent seq is accounted for at the console."""
        return self.server_channel.converged

    @property
    def recoveries(self) -> int:
        """Region re-encodes performed in response to NACKs."""
        return self.server_channel.stats.recoveries

    @property
    def refreshes(self) -> int:
        """Full-screen fallback refreshes performed."""
        return self.server_channel.stats.refreshes
