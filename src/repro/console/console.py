"""The SLIM console: network interface + decoder + timed processing queue.

A console is "merely an I/O multiplexor connected to a network"
(Section 1.1).  This class glues together the pieces built elsewhere:

* a :class:`~repro.core.wire.WireCodec` reassembling datagrams,
* a :class:`~repro.core.decoder.SlimDecoder` mutating the local
  framebuffer,
* a :class:`~repro.console.microops.MicroOpModel` (or the published
  :class:`~repro.core.costs.ConsoleCostModel`) charging decode time,
* a bounded command queue — when commands arrive faster than the decode
  loop drains them, the console drops them, which is exactly the
  behaviour the paper's sustained-rate probe exploits (Section 4.3),
* a :class:`~repro.core.bandwidth.BandwidthAllocator` for multimedia
  senders (Section 7).

It can run attached to the discrete-event simulator (packets in, timed
decode) or stand-alone (immediate decode with virtual-time accounting),
which is how the fidelity tests and calibration probes use it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Union

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.core.bandwidth import BandwidthAllocator
from repro.core.costs import ConsoleCostModel
from repro.core.decoder import SlimDecoder
from repro.core.wire import Datagram, WireCodec
from repro.console.microops import MicroOpModel
from repro.framebuffer.framebuffer import FrameBuffer
from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.transport import Endpoint
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry
from repro.units import ETHERNET_100

#: Command-queue occupancy buckets (the Sun Ray buffers a few hundred).
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

TimingModel = Union[MicroOpModel, ConsoleCostModel]


@dataclass
class ConsoleStats:
    """Counters the console maintains for the experiments."""

    commands_processed: int = 0
    commands_dropped: int = 0
    busy_time: float = 0.0
    service_times: List[float] = field(default_factory=list)


class Console:
    """A simulated Sun Ray 1 desktop unit.

    Args:
        width: Display width in pixels.
        height: Display height in pixels.
        timing: Decode-cost model; defaults to the micro-op model.
        sim: Event engine for timed operation; None for stand-alone use.
        address: Fabric address when attached to a network.
        queue_limit: Maximum commands buffered awaiting decode.  The Sun
            Ray 1 has 2 MB in use total (Section 2.3); a few hundred
            queued commands is generous.
        link_rate_bps: Capacity advertised to the bandwidth allocator.
        record_service_times: Keep per-command service times (Figure 7).

    The causal tracer of the run it is built under, if any, stamps
    decode-start and paint times on traced commands.
    """

    def __init__(
        self,
        width: int = 1280,
        height: int = 1024,
        timing: Optional[TimingModel] = None,
        sim: Optional[Simulator] = None,
        address: str = "console",
        queue_limit: int = 512,
        link_rate_bps: float = ETHERNET_100,
        record_service_times: bool = False,
    ) -> None:
        self.framebuffer = FrameBuffer(width, height)
        self.timing = timing if timing is not None else MicroOpModel()
        self.sim = sim
        self.address = address
        self.queue_limit = queue_limit
        self.record_service_times = record_service_times
        self.decoder = SlimDecoder(self.framebuffer)
        self.codec = WireCodec()
        self.allocator = BandwidthAllocator(link_rate_bps)
        self.stats = ConsoleStats()
        self._queue: Deque[cmd.Command] = deque()
        self._busy_until = 0.0
        self._decoding = False
        self.on_input: Optional[Callable[[cmd.Command], None]] = None
        #: Virtual clock used when running stand-alone (no simulator).
        self.virtual_time = 0.0
        self._trace = current_run().tracer
        self._metrics = get_registry()
        if self._metrics.enabled:
            m = self._metrics
            self._m_dropped = m.counter("console.decode.dropped", console=address)
            self._m_queue_depth = m.histogram(
                "console.queue.depth", buckets=QUEUE_DEPTH_BUCKETS, console=address
            )
            self._m_service = m.histogram(
                "console.decode.service_seconds", console=address
            )

    def _record_decode(self, command: cmd.Command, service: float) -> None:
        """Telemetry for one decoded command (per-opcode count + cost)."""
        m = self._metrics
        opcode = (
            command.opcode.name
            if isinstance(command, cmd.DisplayCommand)
            else type(command).__name__
        )
        m.counter("console.decode.count", opcode=opcode).inc()
        m.counter("console.decode.seconds", opcode=opcode).inc(service)
        self._m_service.observe(service)

    # ------------------------------------------------------------------
    # Stand-alone operation (calibration probes, fidelity tests).
    # ------------------------------------------------------------------
    def service_time(self, command: cmd.Command) -> float:
        """Decode time this console's model charges for a command."""
        if not isinstance(command, cmd.DisplayCommand):
            return 0.0
        return self.timing.service_time(command)

    def process(self, command: cmd.Command, apply_pixels: bool = True) -> float:
        """Decode one command immediately; returns its service time.

        With ``apply_pixels`` False only timing is simulated (used when
        commands are accounting-only).
        """
        service = self.service_time(command)
        if apply_pixels and isinstance(command, cmd.DisplayCommand):
            self.decoder.apply(command)
        self.stats.commands_processed += 1
        self.stats.busy_time += service
        self.virtual_time += service
        if self.record_service_times and isinstance(command, cmd.DisplayCommand):
            self.stats.service_times.append(service)
        if self._metrics.enabled:
            self._record_decode(command, service)
        return service

    def offered_rate_sustainable(
        self, command: cmd.DisplayCommand, rate_per_second: float
    ) -> bool:
        """Would the console keep up with this command at this rate?

        The calibration probe ramps the offered rate until this turns
        False (commands start dropping).
        """
        if rate_per_second <= 0:
            raise ProtocolError("offered rate must be positive")
        return self.service_time(command) <= 1.0 / rate_per_second

    # ------------------------------------------------------------------
    # Simulated (timed) operation.
    # ------------------------------------------------------------------
    def make_endpoint(self) -> Endpoint:
        """Create the netsim endpoint that feeds this console."""
        return Endpoint(self.address, on_receive=self.receive_packet)

    def receive_packet(self, packet: Packet) -> None:
        """Handle one datagram off the wire."""
        payload = packet.payload
        if isinstance(payload, Datagram):
            result = self.codec.accept(payload)
            if result is not None:
                command, _seq = result
                self.enqueue(command)

    def enqueue(self, command: cmd.Command) -> bool:
        """Queue a command for decode; False when the queue overflowed."""
        if not isinstance(command, cmd.DisplayCommand):
            # Input echoes / status: negligible handling cost, no queue.
            self.stats.commands_processed += 1
            if self._metrics.enabled:
                self._record_decode(command, 0.0)
            return True
        if len(self._queue) >= self.queue_limit:
            self.stats.commands_dropped += 1
            if self._metrics.enabled:
                self._m_dropped.inc()
            if self._trace is not None and self.sim is not None:
                self._trace.command_dropped(command, self.sim.now)
            return False
        self._queue.append(command)
        if self._metrics.enabled:
            self._m_queue_depth.observe(len(self._queue))
        self._maybe_start_decode()
        return True

    def _maybe_start_decode(self) -> None:
        if self.sim is None:
            # Stand-alone: drain synchronously.
            while self._queue:
                self.process(self._queue.popleft())
            return
        if self._decoding or not self._queue:
            return
        self._decoding = True
        command = self._queue.popleft()
        service = self.service_time(command)
        materialized = not self._is_accounting_only(command)
        if self._trace is not None:
            self._trace.decode_start(command, self.sim.now)

        def finish() -> None:
            if materialized:
                self.decoder.apply(command)
            self.stats.commands_processed += 1
            self.stats.busy_time += service
            if self.record_service_times:
                self.stats.service_times.append(service)
            if self._metrics.enabled:
                self._record_decode(command, service)
            if self._trace is not None:
                self._trace.painted(command, self.sim.now)
            self._decoding = False
            self._maybe_start_decode()

        self.sim.schedule(service, finish)

    @staticmethod
    def _is_accounting_only(command: cmd.Command) -> bool:
        if isinstance(command, cmd.SetCommand):
            return command.data is None
        if isinstance(command, cmd.BitmapCommand):
            return command.bitmap is None
        if isinstance(command, cmd.CscsCommand):
            return command.payload is None
        return False

    # ------------------------------------------------------------------
    # Input devices (keyboard / mouse out to the server).
    # ------------------------------------------------------------------
    def key_event(self, code: int, pressed: bool) -> cmd.KeyEvent:
        """Produce a key event; forwarded via ``on_input`` when wired."""
        event = cmd.KeyEvent(code=code, pressed=pressed)
        if self.on_input is not None:
            self.on_input(event)
        return event

    def mouse_event(self, x: int, y: int, buttons: int = 0) -> cmd.MouseEvent:
        """Produce a mouse report; forwarded via ``on_input`` when wired."""
        event = cmd.MouseEvent(x=x, y=y, buttons=buttons)
        if self.on_input is not None:
            self.on_input(event)
        return event

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)
