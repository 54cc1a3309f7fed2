"""Cross-shard display relay: SLIM wire traffic over boundary ports.

A sharded fleet puts the server's encode pipeline on one shard and
(consolidated) console populations on others; display commands that
cross that cut travel as wire bytes over a :class:`ShardContext`
boundary port rather than a simulated link.  This module is the small
transport shim that keeps the *observability* contract intact across
the cut:

* :class:`DisplayRelaySender` fragments a command with a
  :class:`WireCodec`, registers it with the causal tracer, and ships
  each datagram's bytes through ``ctx.send`` together with the trace's
  boundary-export context (``TraceCollector.boundary_export``), so the
  update's identity and birth timestamps survive the process hop.
* :class:`DisplayRelayReceiver` reassembles on the far side, adopts the
  trace (``boundary_adopt``) under the same global id, and enqueues the
  command on a :class:`Console` — whose decode/paint hooks then close
  the trace with a full telescoping stage partition, ``shard_transit``
  carrying the boundary-port hop.

The same pair built against a :class:`LocalBus` degenerates to plain
in-simulator delivery with identical delays, which is how the
sharded-vs-single-shard trace-continuity tests pin the stitching down.
"""

from __future__ import annotations

from typing import Optional

from repro.core.wire import Datagram, WireCodec
from repro.runcontext import current_run

__all__ = ["DisplayRelaySender", "DisplayRelayReceiver"]


class DisplayRelaySender:
    """Serializes display commands onto a boundary port, traced.

    Args:
        ctx: The sending shard's context (or a :class:`LocalBus`).
        port: Boundary port name; the receiver registers the same one.
        dst_shard: Destination shard index.
        src, dst: Endpoint addresses stamped on trace keys and captured
            frames (one logical flow per sender/receiver pair).
        delay: Boundary propagation delay; defaults to the lookahead.
    """

    def __init__(
        self,
        ctx,
        port: str,
        dst_shard: int = 0,
        src: str = "relay:server",
        dst: str = "relay:console",
        delay: Optional[float] = None,
    ) -> None:
        run = current_run()
        self._trace = run.tracer
        self._capture = run.capture
        self.ctx = ctx
        self.port = port
        self.dst_shard = dst_shard
        self.src = src
        self.dst = dst
        self.delay = delay
        self.codec = WireCodec()
        self.messages_sent = 0
        self.bytes_sent = 0

    def send(self, command) -> int:
        """Fragment and ship one command; returns its wire seq."""
        now = self.ctx.sim.now
        datagrams = self.codec.fragment(command)
        seq = datagrams[0].seq
        key = (self.src, self.dst, seq)
        export = None
        if self._trace is not None:
            self._trace.message_sent(
                key, command, now, sum(d.wire_nbytes for d in datagrams)
            )
            export = self._trace.boundary_export(
                key, self.ctx.shard_index, now
            )
        for datagram in datagrams:
            if self._capture is not None:
                self._capture.frame(now, self.src, self.dst, datagram)
            self.ctx.send(
                self.port,
                datagram.to_bytes(),
                delay=self.delay,
                dst_shard=self.dst_shard,
                trace=export,
            )
            self.bytes_sent += datagram.wire_nbytes
        self.messages_sent += 1
        return seq


class DisplayRelayReceiver:
    """Reassembles relayed commands and feeds a console, adopting the
    sender's causal trace so the stage partition stays telescoping."""

    def __init__(self, ctx, port: str, console) -> None:
        self._trace = current_run().tracer
        self.ctx = ctx
        self.console = console
        self.codec = WireCodec()
        self.messages_received = 0
        ctx.on_receive(port, self._receive)

    def _receive(self, payload, arrival: float) -> None:
        datagram = Datagram.from_bytes(payload)
        result = self.codec.accept(datagram)
        if result is None:
            return
        command, _seq = result
        context = self.ctx.current_trace
        if self._trace is not None and isinstance(context, dict):
            self._trace.boundary_adopt(context, command, arrival)
        self.messages_received += 1
        self.console.enqueue(command)
