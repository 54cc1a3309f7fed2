"""``.slimcap`` — a pcap-style capture of SLIM wire traffic.

A capture is the debugging artifact every perf investigation starts
from: the exact framed protocol messages that crossed the fabric, with
simulated timestamps, stored compactly enough that long sessions stay
cheap.  The format is length-prefixed binary::

    file   := magic records*
    magic  := "SLIMCAP" version(1 byte, = 1)
    record := kind(1) time(f64 BE) length(u32 BE) payload[length]

Record kinds:

* ``ENDPOINT`` — interns an endpoint address: ``id(u16) utf8-name``.
  Frames then refer to endpoints by id, so addresses cost 2 bytes.
* ``FRAME`` — one datagram that crossed a tapped link:
  ``src(u16) dst(u16)`` + the datagram bytes (fragment header + SLIM
  message slice, exactly what :meth:`Datagram.to_bytes` produces).
* ``DROP`` / ``LOSS`` — same payload as ``FRAME``, for datagrams that a
  queue tail-dropped or the wire corrupted at a tapped link.
* ``TRACE`` — a completed causal trace as JSON
  (:meth:`MessageTrace.to_dict`), embedded so one file carries both the
  wire view and the latency decomposition.

The recorder taps :class:`~repro.netsim.link.Link` objects (set
``link.capture``).  When the :class:`~repro.runcontext.RunContext`
carries a writer, the network taps every endpoint *uplink* — each frame
is captured exactly once, at injection, like tcpdump at the sender.

A tapped link holds a frame back until the clock reaches the instant it
leaves the interface; a writer settles those sources before it is read
or closed, and then holds exactly the frames with ``t <= now``.
"""

from __future__ import annotations

import io
import json
import struct
import weakref
from collections import deque
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from repro.core import commands as cmd
from repro.core.wire import FRAGMENT_HEADER_BYTES, Datagram, WireCodec
from repro.errors import WireFormatError

__all__ = [
    "SlimcapWriter",
    "RingSlimcapWriter",
    "SlimcapReader",
    "CaptureRecord",
    "CapturedMessage",
    "MAGIC",
]

MAGIC = b"SLIMCAP\x01"

_RECORD_HEADER = struct.Struct(">Bd I".replace(" ", ""))
_ENDPOINT_ID = struct.Struct(">H")
_FRAME_HEADER = struct.Struct(">HH")
#: Ring cost of a frame record beyond its datagram's payload bytes.
_FRAME_OVERHEAD = _RECORD_HEADER.size + _FRAME_HEADER.size + FRAGMENT_HEADER_BYTES

KIND_ENDPOINT = 0x01
KIND_FRAME = 0x02
KIND_DROP = 0x03
KIND_LOSS = 0x04
KIND_TRACE = 0x05

_KIND_NAMES = {
    KIND_ENDPOINT: "endpoint",
    KIND_FRAME: "frame",
    KIND_DROP: "drop",
    KIND_LOSS: "loss",
    KIND_TRACE: "trace",
}


class SlimcapWriter:
    """Streams capture records to disk as the simulation runs.

    Args:
        path: Output file; created/truncated on construction.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[BinaryIO] = self.path.open("wb")
        self._handle.write(MAGIC)
        self._endpoints: Dict[str, int] = {}
        self._sources: List[weakref.WeakMethod] = []
        self.frames_written = 0

    # -- sources that hold frames back -------------------------------------
    def add_source(self, hook) -> None:
        """Register a bound method that :meth:`settle` runs.  Held
        weakly, once: a finished simulation drops out on its own."""
        ref = weakref.WeakMethod(hook)
        if ref not in self._sources:
            self._sources.append(ref)

    def settle(self) -> None:
        """Take every frame that is due from every source (reads of a
        writer and :meth:`close` do this first)."""
        live = []
        for ref in self._sources:
            hook = ref()
            if hook is not None:
                live.append(ref)
                hook()
        self._sources = live

    # -- recording ---------------------------------------------------------
    def frame(
        self,
        now: float,
        src: str,
        dst: str,
        datagram: Datagram,
        kind: int = KIND_FRAME,
    ) -> None:
        """Record one datagram crossing a tapped link."""
        payload = (
            _FRAME_HEADER.pack(self._intern(src, now), self._intern(dst, now))
            + datagram.to_bytes()
        )
        self._write(kind, now, payload)
        self.frames_written += 1

    def trace(self, record: Dict[str, object], now: float = 0.0) -> None:
        """Embed one completed causal trace (JSON payload)."""
        self._write(
            KIND_TRACE, now, json.dumps(record, separators=(",", ":")).encode()
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._handle is not None:
            self.settle()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SlimcapWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------
    def _intern(self, address: str, now: float) -> int:
        endpoint_id = self._endpoints.get(address)
        if endpoint_id is None:
            endpoint_id = len(self._endpoints)
            self._endpoints[address] = endpoint_id
            self._write(
                KIND_ENDPOINT,
                now,
                _ENDPOINT_ID.pack(endpoint_id) + address.encode("utf-8"),
            )
        return endpoint_id

    def _write(self, kind: int, now: float, payload: bytes) -> None:
        if self._handle is None:
            raise WireFormatError(f"capture {self.path} is closed")
        self._handle.write(_RECORD_HEADER.pack(kind, now, len(payload)))
        self._handle.write(payload)


class RingSlimcapWriter(SlimcapWriter):
    """A bounded in-memory ``.slimcap`` recorder — the flight-recorder tap.

    Keeps the most recent records in a byte-budgeted ring instead of a
    file; when the budget overflows, the oldest records fall off the
    front.  The ring holds the datagrams themselves and serialises them
    only when dumped — almost every frame is evicted unread.  Endpoint
    interning is kept *out* of the ring (the table is tiny and must
    survive eviction), and :meth:`dump_bytes` re-emits it ahead of the
    surviving records so a dump is always a well-formed capture —
    possibly minus frames that aged out.

    Args:
        max_bytes: Ring budget counting record headers + payloads.
        tee: Optional file-backed :class:`SlimcapWriter` that also
            receives every frame (so ``--capture`` and the flight
            recorder can share one tap).
    """

    def __init__(self, max_bytes: int = 1 << 20, tee: Optional[SlimcapWriter] = None):
        # Deliberately skip SlimcapWriter.__init__: no file handle.
        self.path = None
        self._handle = None
        self._endpoints: Dict[str, int] = {}
        self._sources: List[weakref.WeakMethod] = []
        self.frames_written = 0
        self.max_bytes = max_bytes
        self.tee = tee
        #: (kind, time, src id, dst id, Datagram, cost) per frame and
        #: (KIND_TRACE, time, None, None, JSON bytes, cost) per trace;
        #: ``cost`` is the bytes the record takes in a dump.
        self._ring: deque = deque()
        self._ring_bytes = 0
        self.evicted = 0

    def frame(self, now, src, dst, datagram, kind=KIND_FRAME):
        try:
            src_id, dst_id = self._endpoints[src], self._endpoints[dst]
        except KeyError:
            src_id, dst_id = self._intern(src, now), self._intern(dst, now)
        cost = _FRAME_OVERHEAD + len(datagram.payload)
        self._ring.append((kind, now, src_id, dst_id, datagram, cost))
        self._ring_bytes += cost
        self.frames_written += 1
        if self._ring_bytes > self.max_bytes:
            self._evict()
        if self.tee is not None:
            self.tee.frame(now, src, dst, datagram, kind)

    def _write(self, kind: int, now: float, payload: bytes) -> None:
        # Traces arrive serialised; frames ring their datagrams (above).
        cost = _RECORD_HEADER.size + len(payload)
        self._ring.append((kind, now, None, None, payload, cost))
        self._ring_bytes += cost
        self._evict()

    def _intern(self, address: str, now: float) -> int:
        # Endpoint records never enter the evictable ring.
        endpoint_id = self._endpoints.get(address)
        if endpoint_id is None:
            endpoint_id = self._endpoints[address] = len(self._endpoints)
        return endpoint_id

    def _evict(self) -> None:
        ring = self._ring
        while self._ring_bytes > self.max_bytes and len(ring) > 1:
            self._ring_bytes -= ring.popleft()[5]
            self.evicted += 1

    def _serialised(self) -> Iterator[Tuple[int, float, bytes]]:
        """The ring as ``(kind, time, record payload)``."""
        for kind, when, src_id, dst_id, body, _cost in self._ring:
            if kind != KIND_TRACE:
                body = _FRAME_HEADER.pack(src_id, dst_id) + body.to_bytes()
            yield kind, when, body

    def __len__(self) -> int:
        self.settle()
        return len(self._ring)

    @property
    def ring_bytes(self) -> int:
        self.settle()
        return self._ring_bytes

    def dump_bytes(self) -> bytes:
        """Freeze the ring into well-formed ``.slimcap`` bytes."""
        self.settle()
        out = io.BytesIO()
        out.write(MAGIC)
        for address, endpoint_id in sorted(
            self._endpoints.items(), key=lambda item: item[1]
        ):
            payload = _ENDPOINT_ID.pack(endpoint_id) + address.encode("utf-8")
            out.write(_RECORD_HEADER.pack(KIND_ENDPOINT, 0.0, len(payload)))
            out.write(payload)
        for kind, when, payload in self._serialised():
            out.write(_RECORD_HEADER.pack(kind, when, len(payload)))
            out.write(payload)
        return out.getvalue()

    def export_state(self) -> Dict[str, object]:
        """Picklable ring state, for a sweep cell to ship to its parent."""
        self.settle()
        return {
            "endpoints": dict(self._endpoints),
            "records": list(self._serialised()),
            "evicted": self.evicted,
        }

    def absorb_state(self, state: Dict[str, object]) -> None:
        """Append a cell's exported ring to this one, as if the cell's
        frames had been tapped here after everything already held: the
        ring then keeps the same newest frames, evicted the same count,
        as one that ran the cells in turn."""
        if state["evicted"]:
            # The cell's ring overflowed: in one ring, its oldest frames
            # would have gone only after everything held before them.
            self.evicted += len(self._ring)
            self._ring.clear()
            self._ring_bytes = 0
        remap = {
            state["endpoints"][name]: self._intern(name, 0.0)
            for name in state["endpoints"]
        }
        for kind, when, payload in state["records"]:
            cost = _RECORD_HEADER.size + len(payload)
            if kind == KIND_TRACE:
                self._ring.append((kind, when, None, None, payload, cost))
            else:
                src_id, dst_id = _FRAME_HEADER.unpack_from(payload, 0)
                self._ring.append(
                    (
                        kind, when, remap[src_id], remap[dst_id],
                        Datagram.from_bytes(payload[_FRAME_HEADER.size:]), cost,
                    )
                )
            self._ring_bytes += cost
        self.evicted += state["evicted"]
        self._evict()

    def close(self) -> None:
        self.settle()
        if self.tee is not None:
            self.tee.close()


class CaptureRecord:
    """One decoded ``.slimcap`` record."""

    __slots__ = ("kind", "time", "src", "dst", "datagram", "trace")

    def __init__(self, kind, time, src=None, dst=None, datagram=None, trace=None):
        self.kind = kind
        self.time = time
        self.src = src
        self.dst = dst
        self.datagram = datagram
        self.trace = trace

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"0x{self.kind:02x}")


class CapturedMessage:
    """One SLIM message reassembled from a capture's frames."""

    __slots__ = (
        "time", "first_time", "src", "dst", "seq", "command",
        "wire_bytes", "ndatagrams",
    )

    def __init__(
        self, time, first_time, src, dst, seq, command, wire_bytes, ndatagrams
    ):
        self.time = time  # when the last fragment crossed the tap
        self.first_time = first_time
        self.src = src
        self.dst = dst
        self.seq = seq
        self.command = command
        self.wire_bytes = wire_bytes
        self.ndatagrams = ndatagrams

    @property
    def opcode(self) -> str:
        if isinstance(self.command, cmd.DisplayCommand):
            return self.command.opcode.name
        return type(self.command).__name__


class SlimcapReader:
    """Parses a ``.slimcap`` file (or in-memory bytes) back into records.

    A truncated *trailing* record — a ring-buffer dump or interrupt-time
    flush can cut mid-record — is tolerated: iteration stops cleanly at
    the last complete record and :attr:`truncated` is set.  A bad magic
    header still raises, since that means the file was never a capture.
    """

    def __init__(
        self, path: Union[str, Path, None], data: Optional[bytes] = None
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._data = data
        #: True once records() hit a cut-off trailing record.
        self.truncated = False

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlimcapReader":
        """Read records out of in-memory capture bytes (ring dumps)."""
        return cls(None, data=data)

    def _open(self) -> BinaryIO:
        if self._data is not None:
            return io.BytesIO(self._data)
        return self.path.open("rb")

    @property
    def name(self) -> str:
        return str(self.path) if self.path is not None else "<memory>"

    def records(self) -> Iterator[CaptureRecord]:
        """Yield every record, endpoint names resolved."""
        endpoints: Dict[int, str] = {}
        with self._open() as handle:
            if handle.read(len(MAGIC)) != MAGIC:
                raise WireFormatError(f"{self.name} is not a .slimcap file")
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    return
                if len(header) < _RECORD_HEADER.size:
                    self.truncated = True
                    return
                kind, when, length = _RECORD_HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length:
                    self.truncated = True
                    return
                if kind == KIND_ENDPOINT:
                    (endpoint_id,) = _ENDPOINT_ID.unpack_from(payload, 0)
                    endpoints[endpoint_id] = payload[
                        _ENDPOINT_ID.size:
                    ].decode("utf-8")
                    continue
                if kind == KIND_TRACE:
                    yield CaptureRecord(
                        kind, when, trace=json.loads(payload.decode("utf-8"))
                    )
                    continue
                src_id, dst_id = _FRAME_HEADER.unpack_from(payload, 0)
                yield CaptureRecord(
                    kind,
                    when,
                    src=endpoints.get(src_id, f"#{src_id}"),
                    dst=endpoints.get(dst_id, f"#{dst_id}"),
                    datagram=Datagram.from_bytes(
                        payload[_FRAME_HEADER.size:]
                    ),
                )

    def frames(self) -> Iterator[CaptureRecord]:
        """Only the datagrams that actually crossed a tapped wire."""
        return (r for r in self.records() if r.kind == KIND_FRAME)

    def traces(self) -> List[Dict[str, object]]:
        """The embedded causal-trace records, in file order."""
        return [r.trace for r in self.records() if r.kind == KIND_TRACE]

    def messages(self) -> Iterator[CapturedMessage]:
        """Reassemble frames into complete SLIM messages, per direction.

        Messages whose fragments are incomplete in the capture (e.g. a
        partially lost tail) are silently omitted — the frame-level view
        still shows their datagrams.  A capture may span several
        simulations that reuse the same addresses (the experiment runner
        records every session into one file): a fragment that contradicts
        a stale partial simply restarts that seq's reassembly.
        """
        codecs: Dict[Tuple[str, str], WireCodec] = {}
        pending: Dict[Tuple[str, str, int], Tuple[float, int, int]] = {}
        for record in self.frames():
            flow = (record.src, record.dst)
            codec = codecs.get(flow)
            if codec is None:
                codec = codecs[flow] = WireCodec()
            datagram = record.datagram
            key = (record.src, record.dst, datagram.seq)
            first, nbytes, count = pending.get(key, (record.time, 0, 0))
            pending[key] = (
                first, nbytes + datagram.wire_nbytes, count + 1
            )
            try:
                result = codec.accept(datagram)
            except WireFormatError:
                # A stale partial from an earlier session on this flow:
                # discard it and restart this seq from the new fragment.
                codec.drop_partial(datagram.seq)
                pending[key] = (record.time, datagram.wire_nbytes, 1)
                try:
                    result = codec.accept(datagram)
                except WireFormatError:
                    codec.drop_partial(datagram.seq)
                    pending.pop(key, None)
                    continue
            if result is None:
                continue
            command, seq = result
            first, nbytes, count = pending.pop(key)
            yield CapturedMessage(
                time=record.time,
                first_time=first,
                src=record.src,
                dst=record.dst,
                seq=seq,
                command=command,
                wire_bytes=nbytes,
                ndatagrams=count,
            )
