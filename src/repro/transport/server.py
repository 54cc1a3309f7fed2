"""Server half of the display channel: stateless recovery + status sync.

Section 2.2's claim under reproduction: SLIM's "application-specific
error recovery scheme allows for more efficient recovery than packet
replay".  Replaying an old command verbatim would be wrong for COPY (its
source may have changed) and for ordering (a stale SET can overwrite
newer content); the faithful scheme re-encodes the *current* server
framebuffer contents of the damaged region as fresh messages —
idempotent, order-safe, and exactly what a stateless console needs.

The server answers console NACKs from a bounded
:class:`~repro.transport.damage.DamageMap`; an evicted seq falls back to
a full-screen refresh (always correct, merely more expensive).  A
periodic ``SYNC`` status message announces the highest seq sent so the
console can detect tail losses; the console's ``FRONTIER`` replies tell
the server when everything is accounted for, at which point the timer
stops and the simulation can drain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core import commands as cmd
from repro.core.commands import StatusKind
from repro.core.encoder import EncoderConfig, SlimEncoder
from repro.core.wire import Datagram, WireCodec, message_wire_nbytes
from repro.framebuffer.framebuffer import FrameBuffer
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint, Network
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry
from repro.transport.damage import DamageMap

#: Server -> console display traffic flow label.
DISPLAY_FLOW = "display"

#: Recovery re-encodes use small tiles: a message is lost if *any* of its
#: fragments is, so small units converge much faster on a lossy link
#: (large SET tiles at 20% packet loss fail ~90% of sends).
RECOVERY_TILE = 24

#: Default status-exchange period, seconds.
DEFAULT_STATUS_INTERVAL = 0.05


@dataclass
class ServerChannelStats:
    """Counters the server half maintains (always on, telemetry aside)."""

    messages_sent: int = 0
    wire_bytes: int = 0
    nacks_received: int = 0
    recoveries: int = 0
    recovery_commands: int = 0
    recovery_bytes: int = 0
    refreshes: int = 0
    syncs_sent: int = 0
    frontiers_received: int = 0
    inputs_received: int = 0


class ServerChannel:
    """Sender half of the reliable display channel.

    Install :meth:`send_command` as a :class:`SlimDriver`'s ``send``
    hook; every display command is sequenced, fragmented, recorded in
    the damage map, and pushed onto the fabric.

    Args:
        framebuffer: The authoritative server framebuffer recovery
            re-encodes from.
        network: The fabric both halves hang off.
        sim: Event engine (drives the status-exchange timer).
        address: This half's fabric address.
        console_address: The console half's fabric address.
        recovery_encoder: Encoder for recovery re-encodes; defaults to a
            materializing encoder with small (:data:`RECOVERY_TILE`)
            tiles.
        damage_capacity: Damage-map entries retained before eviction.
        status_interval: Status-exchange period, seconds.
        on_input: Callback for input events arriving from the console.

    The causal tracer of the run it is built under, if any, follows
    each display command from here to the console's paint.
    """

    def __init__(
        self,
        framebuffer: FrameBuffer,
        network: Network,
        sim: Simulator,
        address: str = "server",
        console_address: str = "console",
        recovery_encoder: Optional[SlimEncoder] = None,
        damage_capacity: int = 1024,
        status_interval: float = DEFAULT_STATUS_INTERVAL,
        on_input: Optional[Callable[[cmd.Command], None]] = None,
    ) -> None:
        self.framebuffer = framebuffer
        self.network = network
        self.sim = sim
        self.address = address
        self.console_address = console_address
        self.status_interval = status_interval
        self.on_input = on_input
        self.codec = WireCodec()
        self.rx = WireCodec()
        self.damage = DamageMap(damage_capacity)
        self.recovery_encoder = recovery_encoder or SlimEncoder(
            config=EncoderConfig(tile_w=RECOVERY_TILE, tile_h=RECOVERY_TILE),
            materialize=True,
        )
        self.stats = ServerChannelStats()
        #: Recent COPY commands as (seq, command): a *delivered* COPY
        #: that read from a *lost* region propagated stale pixels, so
        #: recovery must chase the damage through later copies.  Bounded
        #: by the damage window — older seqs fall back to refresh anyway.
        self._copies: "deque[tuple]" = deque(maxlen=damage_capacity)
        self.endpoint: Optional[Endpoint] = None
        self._last_seq = -1
        self._confirmed_frontier = 0
        self._timer_active = False
        self._refresh_covering_seq = -1
        self._trace = current_run().tracer
        self._metrics = get_registry()
        # Pre-resolved telemetry handles: hot paths pay one None test
        # when telemetry is disabled (enablement is fixed at construction).
        self._m_recoveries = None
        self._m_refreshes = self._m_syncs = self._m_recovery_bytes = None
        if self._metrics.enabled:
            m = self._metrics
            self._m_recoveries = {
                outcome: m.counter("transport.channel.recoveries", outcome=outcome)
                for outcome in ("reencode", "refresh", "covered", "ephemeral")
            }
            self._m_refreshes = m.counter("transport.channel.refreshes")
            self._m_syncs = m.counter("transport.channel.syncs_sent")
            self._m_recovery_bytes = m.counter("transport.channel.recovery_bytes")

    # -- wiring ---------------------------------------------------------------
    def attach(self, **link_kwargs: object) -> Endpoint:
        """Attach this half to the network (loss/rate via kwargs)."""
        self.endpoint = Endpoint(self.address, on_receive=self.handle_packet)
        self.network.attach(self.endpoint, **link_kwargs)
        return self.endpoint

    @property
    def converged(self) -> bool:
        """Has the console confirmed every sent seq as accounted for?"""
        return self._confirmed_frontier > self._last_seq

    # -- send path (server -> console) ----------------------------------------
    def send_command(self, command: cmd.Command) -> int:
        """Sequence, record, fragment, and send one command."""
        return self._send(command)

    def _send(
        self,
        command: cmd.Command,
        recovery: bool = False,
        recovery_of: Optional[int] = None,
    ) -> int:
        seq = self.codec.next_seq()
        rect = command.rect if isinstance(command, cmd.DisplayCommand) else None
        if isinstance(command, cmd.CopyCommand):
            self._copies.append((seq, command))
        return self._transmit(command, seq, rect, recovery, recovery_of)

    def _transmit(
        self,
        command: cmd.Command,
        seq: int,
        rect: Optional[object],
        recovery: bool,
        recovery_of: Optional[int] = None,
    ) -> int:
        self.damage.record(seq, rect)
        self._last_seq = seq
        datagrams = self.codec.fragment(command, seq=seq)
        nbytes = message_wire_nbytes(command)
        trace_id = None
        if self._trace is not None:
            trace_id = self._trace.message_sent(
                (self.sim.trace_space, self.address, self.console_address, seq),
                command,
                self.sim.now,
                nbytes,
                recovery=recovery,
                recovery_of=recovery_of,
            )
        # Fragment trains ride the burst path: one fabric call per
        # command instead of one per datagram.
        burst = [
            Packet(
                self.address,
                self.console_address,
                datagram.wire_nbytes,
                payload=datagram,
                flow=DISPLAY_FLOW,
                trace_id=trace_id,
            )
            for datagram in datagrams
        ]
        self.network.send_burst(burst)
        self.stats.messages_sent += 1
        self.stats.wire_bytes += nbytes
        if recovery:
            self.stats.recovery_bytes += nbytes
            if isinstance(command, cmd.DisplayCommand):
                self.stats.recovery_commands += 1
            if self._m_recovery_bytes is not None:
                self._m_recovery_bytes.inc(nbytes)
        self._ensure_timer()
        return nbytes

    # -- receive path (console -> server) --------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Endpoint receive hook for NACKs, statuses, and input events."""
        payload = packet.payload
        if not isinstance(payload, Datagram):
            return
        result = self.rx.accept(payload)
        if result is None:
            return
        command, seq = result
        if self._trace is not None:
            key = (self.sim.trace_space, packet.src, packet.dst, seq)
            self._trace.reassembled(key, command, self.sim.now, packet.hops)
        if isinstance(command, cmd.StatusMessage):
            if command.kind == StatusKind.NACK:
                self._recover(command.value)
            elif command.kind == StatusKind.FRONTIER:
                self.stats.frontiers_received += 1
                self._confirmed_frontier = max(
                    self._confirmed_frontier, command.value
                )
            return
        self.stats.inputs_received += 1
        if self.on_input is not None:
            self.on_input(command)

    # -- recovery -------------------------------------------------------------
    def _recover(self, seq: int) -> None:
        """Answer one NACK: re-encode current pixels, never replay."""
        self.stats.nacks_received += 1
        if self._trace is not None:
            # Whatever the outcome below, the lost message's pixels now
            # travel under fresh seqs (or were never pixels): close its
            # trace as superseded rather than leaving it open forever.
            self._trace.message_superseded(
                (self.sim.trace_space, self.address, self.console_address, seq),
                self.sim.now,
            )
        known, rect = self.damage.lookup(seq)
        if known and rect is not None:
            outcome = "reencode"
            self.stats.recoveries += 1
            for command in self.recovery_encoder.encode_damage(
                self.framebuffer, self._damage_closure(seq, rect)
            ):
                self._send(command, recovery=True, recovery_of=seq)
        elif known:
            outcome = "ephemeral"  # a lost status; nothing to re-send
        elif seq <= self._refresh_covering_seq:
            outcome = "covered"  # an earlier refresh already repainted it
        else:
            outcome = "refresh"
            self.refresh(covering=seq)
        if self._m_recoveries is not None:
            self._m_recoveries[outcome].inc()
        # Confirm so the console stops asking: the damaged pixels now
        # travel under fresh sequence numbers (or were never pixels).
        self._send(
            cmd.StatusMessage(kind=StatusKind.RECOVERED, value=seq),
            recovery=True,
            recovery_of=seq,
        )

    def _damage_closure(self, seq: int, rect: object) -> List[object]:
        """The lost rect plus every region a later COPY smeared it into.

        Only copies sequenced *after* the lost message can have read
        its stale pixels at the console; a single forward pass over the
        (seq-ordered) copy log handles chains.  That holds where
        delivery is FIFO, i.e. on an unjittered path; a jittered link
        reorders, and the console paints in arrival order
        (ROADMAP.md item 4(i)).
        """
        rects = [rect]
        for copy_seq, copy in self._copies:
            if copy_seq > seq:
                src = copy.src
                if any(r.intersects(src) for r in rects):
                    rects.append(copy.rect)
        return rects

    def refresh(self, covering: Optional[int] = None) -> None:
        """Full-screen re-encode: the stateless catch-all.

        Args:
            covering: Seq of the lost message this refresh answers, if
                any, so the tracer can attribute the re-encode to the
                update whose message was lost.
        """
        self.stats.refreshes += 1
        self._refresh_covering_seq = self._last_seq
        if self._m_refreshes is not None:
            self._m_refreshes.inc()
        for command in self.recovery_encoder.encode_damage(
            self.framebuffer, [self.framebuffer.bounds]
        ):
            self._send(command, recovery=True, recovery_of=covering)

    # -- status exchange ------------------------------------------------------
    def _ensure_timer(self) -> None:
        if self._timer_active:
            return
        self._timer_active = True
        self.sim.schedule(self.status_interval, self._status_tick)

    def _status_tick(self) -> None:
        self._timer_active = False
        if self.converged:
            return  # quiesce; the next send re-arms the timer
        self._send_sync()

    def _send_sync(self) -> None:
        """Announce the highest seq sent (the SYNC's own seq, by design:
        everything below it has gone out before, and on an unjittered
        path, where delivery is FIFO, arrives before it too; a jittered
        link reorders — ROADMAP.md item 4(i))."""
        seq = self.codec.next_seq()
        self.stats.syncs_sent += 1
        if self._m_syncs is not None:
            self._m_syncs.inc()
        self._transmit(
            cmd.StatusMessage(kind=StatusKind.SYNC, value=seq),
            seq,
            None,
            recovery=False,
        )
