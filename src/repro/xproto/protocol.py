"""X11 request wire sizes.

Encodings follow the X11 core protocol specification: every request is a
multiple of 4 bytes with a 4-byte (opcode, unused, length) prologue
folded into the fixed part below.  X runs over a reliable stream, so the
session-level accounting also charges TCP/IP segment overhead.

The paper's observation that X's high-level commands beat SLIM only on
text/GUI traffic (Section 5.6) falls directly out of these encodings:
PolyText8 costs ~1 byte per character where BITMAP costs ~1 bit per pixel
of the character cell, while PutImage ships 32-bit padded pixels where
SET ships packed 24-bit pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ProtocolError

#: TCP + IP header bytes per segment.
TCP_IP_HEADER_BYTES = 40
#: Conventional Ethernet MSS.
TCP_MSS = 1460


@dataclass(frozen=True)
class XRequest:
    """One X11 request: a name and its size on the wire."""

    name: str
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ProtocolError(f"request {self.name} has size {self.nbytes}")


def _pad4(n: int) -> int:
    """X pads all variable-length data to 4-byte boundaries."""
    return (n + 3) & ~3


def poly_text8_nbytes(nchars: int, nitems: int = 1) -> int:
    """PolyText8: 16-byte fixed part + text items.

    Each text item is 2 bytes (length, delta) plus the string bytes; the
    request is padded to 4 bytes.  ``nitems`` models one item per text
    segment (a line, a styled run).
    """
    if nchars < 0 or nitems < 1:
        raise ProtocolError("invalid PolyText8 geometry")
    return 16 + _pad4(2 * nitems + nchars)


def poly_fill_rectangle_nbytes(nrects: int = 1) -> int:
    """PolyFillRectangle: 12-byte fixed part + 8 bytes per rectangle."""
    if nrects < 1:
        raise ProtocolError("PolyFillRectangle needs at least one rect")
    return 12 + 8 * nrects


def copy_area_nbytes() -> int:
    """CopyArea: fixed 28 bytes."""
    return 28


def put_image_nbytes(width: int, height: int, depth: int = 24) -> int:
    """PutImage with ZPixmap data.

    24-bit deep images occupy 32 bits per pixel on the wire (scanlines of
    32-bit words) — the padding that makes X strictly worse than SLIM's
    packed SET for image traffic.
    """
    if width <= 0 or height <= 0:
        raise ProtocolError(f"invalid PutImage geometry {width}x{height}")
    if depth == 24:
        row = width * 4
    elif depth == 8:
        row = _pad4(width)
    else:
        raise ProtocolError(f"unsupported PutImage depth {depth}")
    return 24 + row * height


def change_gc_nbytes(nvalues: int = 2) -> int:
    """ChangeGC: 12-byte fixed part + 4 bytes per value set."""
    if nvalues < 1:
        raise ProtocolError("ChangeGC needs at least one value")
    return 12 + 4 * nvalues


def tcp_overhead_nbytes(payload_bytes: int) -> int:
    """TCP/IP header bytes to carry a payload over a stream.

    Assumes full segments (the X server coalesces output), which is the
    overhead floor — generous to X.
    """
    if payload_bytes < 0:
        raise ProtocolError("negative payload")
    if payload_bytes == 0:
        return 0
    segments = -(-payload_bytes // TCP_MSS)
    return segments * TCP_IP_HEADER_BYTES
