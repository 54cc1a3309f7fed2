"""The SLIM virtual display driver (the paper's X-server port path).

"We have implemented a virtual device driver for the X-server, and all X
applications can run unchanged" (Section 2.2).  This class is that
driver: it sits between application rendering (paint ops) and the wire,
translating each display update into SLIM commands and — because it is
also the instrumented driver of the user studies (Section 5) — logging a
timestamped :class:`~repro.analysis.traces.UpdateRecord` per update with
everything the post-processing needs: per-opcode bytes and pixels,
console service time, and the X/raw baselines' costs for the same update.

Server-side encoding overhead is charged per update; the paper measured
it at 1.7% of X-server execution time (Section 5.5).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core import commands as cmd
from repro.core.encoder import SlimEncoder
from repro.core.wire import payload_wire_nbytes
from repro.analysis.traces import UpdateRecord
from repro.console.microops import MicroOpModel
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import Painter, PaintOp
from repro.runcontext import current_run
from repro.telemetry.metrics import get_registry
from repro.xproto.baseline import RawPixelDriver, XDriver

#: Reference-CPU encode cost per output byte, tuned so that encoding
#: accounts for ~1.7% of server time on the benchmark workloads.
ENCODE_NS_PER_BYTE = 45.0
ENCODE_NS_PER_COMMAND = 3000.0

#: Each opcode's name, the trace's per-opcode key, read once: the name
#: of an ``Opcode`` member is a descriptor call.
_OPCODE_NAMES = {opcode: opcode.name for opcode in cmd.Opcode}


@dataclass
class DriverStats:
    """Aggregate counters over a driver's lifetime."""

    updates: int = 0
    commands: int = 0
    wire_bytes: int = 0
    payload_bytes: int = 0
    pixels: int = 0
    encode_cpu_seconds: float = 0.0


class SlimDriver:
    """Translates paint-op display updates into SLIM traffic and logs them.

    Args:
        encoder: The command encoder; defaults to a full-featured one.
        cost_model: Console timing model used to tag each update with its
            decode service time (Figure 7).  Defaults to the micro-op
            model.
        framebuffer: Server-side authoritative framebuffer; required when
            the encoder materializes payloads.
        track_baselines: Also run each update through the X and raw-pixel
            drivers so traces carry Figure 8's three-way comparison.
        send: Optional callback receiving each encoded command (wired to
            a network in the examples; None for pure trace collection).

    Built under a run with a causal tracer, every :meth:`update` opens
    an update trace so the commands it sends are grouped under one
    ``update_id``.
    """

    def __init__(
        self,
        encoder: Optional[SlimEncoder] = None,
        cost_model=None,
        framebuffer: Optional[FrameBuffer] = None,
        track_baselines: bool = True,
        send: Optional[Callable[[cmd.DisplayCommand], None]] = None,
    ) -> None:
        self.encoder = encoder or SlimEncoder(materialize=framebuffer is not None)
        self.cost_model = cost_model if cost_model is not None else MicroOpModel()
        self.framebuffer = framebuffer
        self._painter = Painter(framebuffer) if framebuffer is not None else None
        self.send = send
        self.x_driver = XDriver() if track_baselines else None
        self.raw_driver = RawPixelDriver() if track_baselines else None
        self.stats = DriverStats()
        self.records: List[UpdateRecord] = []
        self._trace = current_run().tracer
        self._metrics = get_registry()
        if self._metrics.enabled:
            m = self._metrics
            self._m_updates = m.counter("server.driver.updates")
            self._m_commands = m.counter("server.driver.commands")
            self._m_wire_bytes = m.counter("server.driver.wire_bytes")
            self._m_update_bytes = m.histogram("server.driver.update_wire_bytes")
            self._m_service = m.histogram("server.driver.update_service_seconds")
            self._m_compression = m.gauge("server.driver.compression_factor")
            self._m_span = None

    def update(self, time: float, ops: List[PaintOp]) -> UpdateRecord:
        """Process one display update: paint + encode + log + send.

        With a framebuffer attached this is the faithful driver call
        order: a real device driver is invoked per rendering operation,
        so each op is painted into the server framebuffer and then
        encoded against the state it produced — required for
        correctness when ops within one update overlap (a COPY whose
        source a later op repaints, for example).  Accounting-only
        drivers (no framebuffer) have nothing to paint and only encode.
        """
        if self._trace is not None:
            # Causal tracing: group everything this update sends (its
            # commands are encoded and pushed synchronously below).
            self._trace.begin_update(time)
            try:
                return self._timed_update(time, ops)
            finally:
                self._trace.end_update()
        return self._timed_update(time, ops)

    def _timed_update(self, time: float, ops: List[PaintOp]) -> UpdateRecord:
        if not self._metrics.enabled:
            return self._update(time, ops)
        # Wall-clock span: where does the *reproduction's* time go.
        started = _time.perf_counter()
        try:
            return self._update(time, ops)
        finally:
            span = self._m_span
            if span is None:
                # Resolved at the first update's end, not at construction:
                # an earlier handle would move it up the registry's listing.
                span = self._m_span = self._metrics.histogram(
                    "span.server.driver.update.seconds"
                )
            span.observe(_time.perf_counter() - started)

    def _update(self, time: float, ops: List[PaintOp]) -> UpdateRecord:
        if self._painter is not None:
            commands: List[cmd.DisplayCommand] = []
            for op in ops:
                self._painter.apply(op)
                commands.extend(self.encoder.encode_op(op, self.framebuffer))
        else:
            commands = self.encoder.encode_ops(ops, self.framebuffer)
        return self._log_update(time, ops, commands)

    def _log_update(
        self, time: float, ops: List[PaintOp], commands: List[cmd.DisplayCommand]
    ) -> UpdateRecord:
        # One pricing pass: each command's body is priced once, and its
        # wire bytes follow from that.
        payload_by: dict = {}
        pixels_by: dict = {}
        count_by: dict = {}
        payload_bytes = wire_bytes = 0
        service_time = 0.0
        price, send = self.cost_model.service_time, self.send
        for command in commands:
            name = _OPCODE_NAMES[command.opcode]
            payload = command.payload_nbytes()
            payload_by[name] = payload_by.get(name, 0) + payload
            pixels_by[name] = pixels_by.get(name, 0) + command.pixels
            count_by[name] = count_by.get(name, 0) + 1
            payload_bytes += payload
            wire_bytes += payload_wire_nbytes(payload)
            service_time += price(command)
            if send is not None:
                send(command)

        x_bytes = self.x_driver.encode_ops(ops) if self.x_driver else 0
        raw_bytes = self.raw_driver.encode_ops(ops) if self.raw_driver else 0
        pixels = 0
        for op in ops:
            pixels += op.rect.area

        record = UpdateRecord(
            time,
            pixels,
            wire_bytes,
            payload_by,
            pixels_by,
            count_by,
            service_time,
            x_bytes,
            raw_bytes,
        )
        self.records.append(record)
        self._account(record, len(commands), payload_bytes)
        return record

    def _account(
        self, record: UpdateRecord, ncommands: int, payload_bytes: int
    ) -> None:
        stats = self.stats
        stats.updates += 1
        stats.commands += ncommands
        stats.wire_bytes += record.wire_bytes
        stats.payload_bytes += payload_bytes
        stats.pixels += record.pixels
        stats.encode_cpu_seconds += (
            ncommands * ENCODE_NS_PER_COMMAND + record.wire_bytes * ENCODE_NS_PER_BYTE
        ) * 1e-9
        if self._metrics.enabled:
            self._m_updates.inc()
            self._m_commands.inc(ncommands)
            self._m_wire_bytes.inc(record.wire_bytes)
            self._m_update_bytes.observe(record.wire_bytes)
            self._m_service.observe(record.service_time)
            if stats.wire_bytes > 0:
                # Compression vs 24-bit raw pixels (the Figure 4 headline).
                self._m_compression.set(stats.pixels * 3 / stats.wire_bytes)

    # -- convenience -----------------------------------------------------------
    def mean_bandwidth_bps(self, duration: float) -> float:
        """Average SLIM bandwidth over a session of ``duration`` seconds."""
        return self.stats.wire_bytes * 8 / duration
