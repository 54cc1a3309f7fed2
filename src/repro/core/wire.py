"""Binary wire format for SLIM messages, with MTU fragmentation.

The Sun Ray 1 transmits SLIM commands via UDP/IP (Section 2.2).  Every
message gets a 12-byte header::

    magic  "SL"   2 bytes
    version       1 byte
    opcode        1 byte
    sequence      4 bytes   (unique identifier; messages are replayable)
    body length   4 bytes

followed by an opcode-specific body.  Messages larger than the network MTU
are fragmented into datagrams carrying an 8-byte fragment header; the
receiving end reassembles by sequence number.  Loss handling lives above
this layer, in :mod:`repro.transport`: the sequence number names what was
lost, and the server re-encodes the damaged screen region from its
current framebuffer (the paper's "unique identifiers" make loss
*detectable*; statelessness makes fresh re-encodes always safe, where a
verbatim replay could resurrect a stale COPY source or overwrite newer
content).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import WireFormatError
from repro.framebuffer.regions import Rect
from repro.core import commands as cmd
from repro.core.commands import Opcode

MAGIC = b"SL"
VERSION = 1
HEADER = struct.Struct(">2sBBII")
HEADER_BYTES = HEADER.size  # 12

_RECT = struct.Struct(">HHHH")
_COLOR = struct.Struct(">BBB")
#: Whole fixed-size bodies, and display bodies' fixed prefixes rect
#: first: a decoder reads each in one call, in place.
_KEY = struct.Struct(">HB")
_MOUSE = struct.Struct(">HHB")
_STATUS = struct.Struct(">HI")
_BANDWIDTH = struct.Struct(">II")
_FILL = struct.Struct(">HHHHBBB")
_COPY = struct.Struct(">HHHHHH")
_BITMAP_HEAD = struct.Struct(">HHHHBBBBBB")
_CSCS_HEAD = struct.Struct(">HHHHHHB")

#: Classic Ethernet MTU and the IP+UDP header overhead per datagram.
ETHERNET_MTU = 1500
IP_UDP_HEADER_BYTES = 28
FRAGMENT_HEADER = struct.Struct(">IHH")  # message seq, index, count
FRAGMENT_HEADER_BYTES = FRAGMENT_HEADER.size  # 8

#: Maximum SLIM bytes per datagram once IP/UDP and fragment headers are
#: accounted for.
MTU_PAYLOAD = ETHERNET_MTU - IP_UDP_HEADER_BYTES - FRAGMENT_HEADER_BYTES


# --- bit packing helpers ----------------------------------------------------


def pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack an array of small unsigned ints into a dense bitstream.

    Args:
        values: Integer array; every element must fit in ``bits`` bits.
        bits: Field width, 1..8.
    """
    if not 1 <= bits <= 8:
        raise WireFormatError(f"bits must be 1..8, got {bits}")
    flat = np.ascontiguousarray(values, dtype=np.uint8).ravel()
    if flat.size == 0:
        return b""
    if bits == 8:
        # Degenerate field width: the bitstream is the byte stream.
        return flat.tobytes()
    if int(flat.max()) >= (1 << bits):
        raise WireFormatError(f"value exceeds {bits}-bit field")
    expanded = np.unpackbits(flat[:, None], axis=1)[:, 8 - bits :]
    return np.packbits(expanded.ravel()).tobytes()


def unpack_bits(data: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns ``count`` uint8 values."""
    if not 1 <= bits <= 8:
        raise WireFormatError(f"bits must be 1..8, got {bits}")
    needed = (count * bits + 7) // 8
    if len(data) < needed:
        raise WireFormatError(
            f"bitstream too short: {len(data)} bytes for {count}x{bits} bits"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    if bits == 8:
        return np.frombuffer(data, dtype=np.uint8, count=count).copy()
    raw = np.frombuffer(data, dtype=np.uint8, count=needed)
    stream = np.unpackbits(raw)[: count * bits]
    fields = stream.reshape(count, bits)
    weights = (1 << np.arange(bits - 1, -1, -1)).astype(np.uint16)
    return (fields * weights).sum(axis=1).astype(np.uint8)


def _pack_rect_into(buf: bytearray, offset: int, rect: Rect) -> int:
    if not (0 <= rect.x <= 0xFFFF and 0 <= rect.y <= 0xFFFF):
        raise WireFormatError(f"rect origin out of range: {rect}")
    if not (rect.w <= 0xFFFF and rect.h <= 0xFFFF):
        raise WireFormatError(f"rect size out of range: {rect}")
    _RECT.pack_into(buf, offset, rect.x, rect.y, rect.w, rect.h)
    return offset + _RECT.size


# --- per-command body encoding ----------------------------------------------


def encode_body_into(message: cmd.Command, buf: bytearray, offset: int) -> int:
    """Serialise a message body into a preallocated zero-filled buffer.

    Returns the end offset.  The buffer must have at least
    ``message.payload_nbytes()`` bytes of room at ``offset`` and those
    bytes must be zero: accounting-only display commands (payload
    ``None``) then need no writes at all — the zero fill *is* their
    encoding — so wire sizes stay exact either way.
    """
    if isinstance(message, cmd.SetCommand):
        end = _pack_rect_into(buf, offset, message.rect)
        rect = message.rect
        nbytes = rect.area * 3
        if message.data is not None:
            view = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=end)
            view.reshape(rect.h, rect.w, 3)[:] = message.data
        return end + nbytes
    if isinstance(message, cmd.BitmapCommand):
        rect = message.rect
        end = _pack_rect_into(buf, offset, rect)
        _COLOR.pack_into(buf, end, *message.fg)
        _COLOR.pack_into(buf, end + 3, *message.bg)
        end += 6
        row_bytes = cmd.bitmap_row_bytes(rect.w)
        if message.bitmap is not None:
            # One batched call: packbits(axis=1) pads every row to a byte
            # boundary exactly like the per-row loop it replaces.
            packed = np.packbits(message.bitmap, axis=1)
            view = np.frombuffer(
                buf, dtype=np.uint8, count=rect.h * row_bytes, offset=end
            )
            view.reshape(rect.h, row_bytes)[:] = packed
        return end + rect.h * row_bytes
    if isinstance(message, cmd.FillCommand):
        end = _pack_rect_into(buf, offset, message.rect)
        _COLOR.pack_into(buf, end, *message.color)
        return end + 3
    if isinstance(message, cmd.CopyCommand):
        end = _pack_rect_into(buf, offset, message.rect)
        struct.pack_into(">HH", buf, end, message.src_x, message.src_y)
        return end + 4
    if isinstance(message, cmd.CscsCommand):
        end = _pack_rect_into(buf, offset, message.rect)
        struct.pack_into(
            ">HHB", buf, end, message.src_w, message.src_h, message.bits_per_pixel
        )
        end += 5
        nbytes = cmd.cscs_plane_bytes(
            message.src_w, message.src_h, message.bits_per_pixel
        )
        if message.payload is not None:
            buf[end : end + nbytes] = message.payload
        return end + nbytes
    if isinstance(message, cmd.KeyEvent):
        _KEY.pack_into(buf, offset, message.code, 1 if message.pressed else 0)
        return offset + 3
    if isinstance(message, cmd.MouseEvent):
        _MOUSE.pack_into(buf, offset, message.x, message.y, message.buttons)
        return offset + 5
    if isinstance(message, cmd.AudioData):
        return offset + message.nbytes
    if isinstance(message, cmd.StatusMessage):
        _STATUS.pack_into(buf, offset, message.kind, message.value)
        return offset + 6
    if isinstance(message, (cmd.BandwidthRequest, cmd.BandwidthGrant)):
        kbps = int(round(message.bits_per_second / 1000))
        _BANDWIDTH.pack_into(buf, offset, message.client_id, kbps)
        return offset + 8
    raise WireFormatError(f"cannot encode message type {type(message).__name__}")


def encode_body(message: cmd.Command) -> bytes:
    """Serialise a message body.  Materialises zero payloads if absent."""
    buf = bytearray(message.payload_nbytes())
    encode_body_into(message, buf, 0)
    return bytes(buf)


# --- per-opcode body decoding ---------------------------------------------


def _fixed(layout: struct.Struct, data, offset: int, length: int) -> tuple:
    """A fixed-size body's fields; any other length is a truncation."""
    if length != layout.size:
        raise struct.error(f"body is {length} bytes, not {layout.size}")
    return layout.unpack_from(data, offset)


def _decode_body_at(opcode: int, data, offset: int, length: int) -> cmd.Command:
    """Parse the body ``data[offset:offset + length]`` of a message with
    the raw ``opcode``, reading every field in place.  A SET's pixels
    are a view of ``data``, which nothing writes after it is sent."""
    try:
        if opcode == Opcode.SET:
            x, y, w, h = _RECT.unpack_from(data, offset)
            expected = w * h * 3
            if length - _RECT.size != expected:
                raise WireFormatError(
                    f"SET body carries {length - _RECT.size} pixel bytes, "
                    f"expected {expected}"
                )
            pixels = np.frombuffer(
                data, dtype=np.uint8, count=expected, offset=offset + _RECT.size
            )
            return cmd.SetCommand(Rect(x, y, w, h), pixels.reshape(h, w, 3))
        if opcode == Opcode.BITMAP:
            x, y, w, h, *colors = _BITMAP_HEAD.unpack_from(data, offset)
            row_bytes = cmd.bitmap_row_bytes(w)
            nbytes = h * row_bytes
            if length - _BITMAP_HEAD.size < nbytes:
                raise WireFormatError("BITMAP body truncated")
            raw = np.frombuffer(
                data, dtype=np.uint8, count=nbytes, offset=offset + _BITMAP_HEAD.size
            )
            # Batched inverse of the axis=1 packbits used on encode; its
            # 0/1 bytes are already a bool array's memory.
            bitmap = np.unpackbits(raw.reshape(h, row_bytes), axis=1)[:, :w].view(bool)
            return cmd.BitmapCommand(
                Rect(x, y, w, h), tuple(colors[:3]), tuple(colors[3:]), bitmap
            )
        if opcode == Opcode.FILL:
            x, y, w, h, *color = _FILL.unpack_from(data, offset)
            return cmd.FillCommand(Rect(x, y, w, h), tuple(color))
        if opcode == Opcode.COPY:
            x, y, w, h, src_x, src_y = _COPY.unpack_from(data, offset)
            return cmd.CopyCommand(Rect(x, y, w, h), src_x, src_y)
        if opcode == Opcode.CSCS:
            x, y, w, h, src_w, src_h, bpp = _CSCS_HEAD.unpack_from(data, offset)
            payload = bytes(data[offset + _CSCS_HEAD.size : offset + length])
            return cmd.CscsCommand(Rect(x, y, w, h), src_w, src_h, bpp, payload)
        if opcode == Opcode.KEY_EVENT:
            code, pressed = _fixed(_KEY, data, offset, length)
            return cmd.KeyEvent(code, bool(pressed))
        if opcode == Opcode.MOUSE_EVENT:
            return cmd.MouseEvent(*_fixed(_MOUSE, data, offset, length))
        if opcode == Opcode.AUDIO_DATA:
            return cmd.AudioData(length)
        if opcode == Opcode.STATUS:
            return cmd.StatusMessage(*_fixed(_STATUS, data, offset, length))
        if opcode == Opcode.BANDWIDTH_REQUEST:
            client_id, kbps = _fixed(_BANDWIDTH, data, offset, length)
            return cmd.BandwidthRequest(client_id, kbps * 1000.0)
        if opcode == Opcode.BANDWIDTH_GRANT:
            client_id, kbps = _fixed(_BANDWIDTH, data, offset, length)
            return cmd.BandwidthGrant(client_id, kbps * 1000.0)
    except struct.error as exc:
        raise WireFormatError(f"truncated {Opcode(opcode).name} body") from exc
    raise WireFormatError(f"unknown opcode {opcode}")


def decode_body(opcode: Opcode, body: bytes) -> cmd.Command:
    """Parse a message body back into a command object."""
    return _decode_body_at(opcode, body, 0, len(body))


def _encode_message_buffer(message: cmd.Command, seq: int) -> bytearray:
    """Serialise header + body into one preallocated buffer (no copies)."""
    size = message.payload_nbytes()
    buf = bytearray(HEADER_BYTES + size)
    HEADER.pack_into(buf, 0, MAGIC, VERSION, int(message.opcode), seq, size)
    encode_body_into(message, buf, HEADER_BYTES)
    return buf


def encode_message(message: cmd.Command, seq: int) -> bytes:
    """Serialise a full message: header + body."""
    return bytes(_encode_message_buffer(message, seq))


def decode_message(data: bytes) -> Tuple[cmd.Command, int]:
    """Parse one message; returns (command, sequence number)."""
    if len(data) < HEADER_BYTES:
        raise WireFormatError(f"message shorter than header: {len(data)} bytes")
    magic, version, opcode, seq, length = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if len(data) - HEADER_BYTES != length:
        raise WireFormatError(
            f"header declares {length} body bytes, found {len(data) - HEADER_BYTES}"
        )
    return _decode_body_at(opcode, data, HEADER_BYTES, length), seq


def message_wire_nbytes(message: cmd.Command) -> int:
    """Total wire footprint of a message including all per-datagram overhead.

    This is the figure the bandwidth experiments charge: message header,
    body, and IP/UDP + fragment headers for each datagram the message
    fragments into.
    """
    return payload_wire_nbytes(message.payload_nbytes())


def payload_wire_nbytes(payload_nbytes: int) -> int:
    """:func:`message_wire_nbytes` of a message whose body is
    ``payload_nbytes`` long, for a caller that has priced the body
    already."""
    total = HEADER_BYTES + payload_nbytes
    ndatagrams = -(-total // MTU_PAYLOAD)  # >= 1: the header is never empty
    return total + ndatagrams * (IP_UDP_HEADER_BYTES + FRAGMENT_HEADER_BYTES)


# --- datagrams and fragmentation ---------------------------------------------


@dataclass(unsafe_hash=True)
class Datagram:
    """One UDP datagram carrying a fragment of a SLIM message.

    ``payload`` is any bytes-like object: the sending side hands out
    read-only memoryview slices of the encoded message (zero-copy
    fragmentation), the receiving side materialises bytes.  Slotted and
    immutable by convention, like :class:`~repro.framebuffer.regions.Rect`:
    one is built per datagram sent.
    """

    __slots__ = ("seq", "index", "count", "payload")

    seq: int
    index: int
    count: int
    payload: bytes

    @property
    def wire_nbytes(self) -> int:
        """Bytes on the physical link, including IP/UDP + fragment headers."""
        return len(self.payload) + IP_UDP_HEADER_BYTES + FRAGMENT_HEADER_BYTES

    def to_bytes(self) -> bytes:
        return FRAGMENT_HEADER.pack(self.seq, self.index, self.count) + bytes(
            self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Datagram":
        if len(data) < FRAGMENT_HEADER_BYTES:
            raise WireFormatError("datagram shorter than fragment header")
        seq, index, count = FRAGMENT_HEADER.unpack_from(data, 0)
        if count == 0 or index >= count:
            raise WireFormatError(f"bad fragment indices {index}/{count}")
        return cls(seq=seq, index=index, count=count, payload=data[FRAGMENT_HEADER_BYTES:])


class WireCodec:
    """Stateful encoder/decoder: sequencing, fragmentation, reassembly.

    One codec instance lives at each end of a SLIM connection.  The sender
    side assigns monotonically increasing sequence numbers and fragments;
    the receiver side reassembles, tolerating duplicate fragments (replay
    is harmless by design) and discarding incomplete messages on demand.
    """

    def __init__(self) -> None:
        self._next_seq = 0
        #: seq -> (fragment count, {index: payload}) per partial message.
        self._partial: Dict[int, Tuple[int, Dict[int, bytes]]] = {}

    # -- sending -------------------------------------------------------------
    def next_seq(self) -> int:
        seq = self._next_seq
        self._next_seq = (self._next_seq + 1) & 0xFFFFFFFF
        return seq

    def fragment(self, message: cmd.Command, seq: Optional[int] = None) -> List[Datagram]:
        """Encode a message and split it into MTU-sized datagrams.

        One pass: header and body go into one preallocated buffer, and
        the fragment payloads are read-only views into it — no
        per-fragment copies are made on the send path.
        """
        if seq is None:
            seq = self.next_seq()
        blob = _encode_message_buffer(message, seq)
        view = memoryview(blob).toreadonly()
        if len(blob) <= MTU_PAYLOAD:
            return [Datagram(seq, 0, 1, view)]
        count = -(-len(blob) // MTU_PAYLOAD)
        if count > 0xFFFF:
            raise WireFormatError(f"message needs {count} fragments (> 65535)")
        return [
            Datagram(seq, i, count, view[i * MTU_PAYLOAD : (i + 1) * MTU_PAYLOAD])
            for i in range(count)
        ]

    # -- receiving -----------------------------------------------------------
    def accept(self, datagram: Datagram) -> Optional[Tuple[cmd.Command, int]]:
        """Feed one datagram; returns (command, seq) when a message completes.

        Duplicate fragments are ignored.  Fragments of distinct messages may
        interleave arbitrarily.
        """
        partial = self._partial
        if datagram.count == 1:
            if partial:
                partial.pop(datagram.seq, None)
            return decode_message(datagram.payload)
        entry = partial.get(datagram.seq)
        if entry is None:
            entry = partial[datagram.seq] = (datagram.count, {})
        count, fragments = entry
        if count != datagram.count:
            raise WireFormatError(
                f"fragment count mismatch for seq {datagram.seq}: "
                f"{count} vs {datagram.count}"
            )
        fragments[datagram.index] = datagram.payload
        if len(fragments) < count:
            return None
        del partial[datagram.seq]
        return decode_message(b"".join([fragments[i] for i in range(count)]))

    def pending_messages(self) -> int:
        """Number of partially reassembled messages (for tests/monitoring)."""
        return len(self._partial)

    def drop_partial(self, seq: int) -> None:
        """Discard an incomplete message, e.g. after requesting a replay."""
        self._partial.pop(seq, None)
