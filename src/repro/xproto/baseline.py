"""Baseline display drivers: X11, raw pixels, and a VNC-style server.

These consume the same :class:`~repro.framebuffer.painter.PaintOp`
streams as the SLIM driver, so all protocols are compared on identical
workloads (the paper compared against the X traffic of the same
applications, and against shipping every changed pixel raw).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


from repro.errors import ProtocolError
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.painter import COPY, FILL, IMAGE, TEXT, PaintOp
from repro.framebuffer.regions import Rect
from repro.xproto import protocol as xp

#: X limits a request to 262140 bytes (65535 4-byte units); big PutImages
#: are split and each slice pays its own fixed part.
MAX_REQUEST_BYTES = 262140

#: Fallback glyph cell geometry when a TEXT op does not carry a character
#: count (a 7x13 fixed font, typical for 1999 desktops).
GLYPH_W, GLYPH_H = 7, 13

#: The fixed-size requests a paint op issues, priced once.
_CHANGE_GC_1 = xp.change_gc_nbytes(1)
_CHANGE_GC_2 = xp.change_gc_nbytes(2)
_POLY_FILL_RECTANGLE_1 = xp.poly_fill_rectangle_nbytes(1)
_COPY_AREA = xp.copy_area_nbytes()


@dataclass
class XDriver:
    """Byte-accounting X11 display driver.

    Tracks per-request-type byte totals and charges TCP/IP overhead at
    session granularity via :meth:`total_nbytes`.
    """

    bytes_by_request: Dict[str, int] = field(default_factory=dict)
    request_count: int = 0
    _last_fill_color: Optional[Tuple[int, int, int]] = None
    _last_text_colors: Optional[Tuple[Tuple[int, int, int], Tuple[int, int, int]]] = None

    def _charge(self, name: str, nbytes: int) -> int:
        self.bytes_by_request[name] = self.bytes_by_request.get(name, 0) + nbytes
        self.request_count += 1
        return nbytes

    # -- the op translation -------------------------------------------------
    def encode_op(self, op: PaintOp) -> int:
        """Account one paint op; returns the request bytes it generated."""
        kind = op.kind
        if kind is FILL:
            total = 0
            if op.color != self._last_fill_color:
                total += self._charge("ChangeGC", _CHANGE_GC_1)
                self._last_fill_color = op.color
            return total + self._charge("PolyFillRectangle", _POLY_FILL_RECTANGLE_1)
        if kind is TEXT:
            rect = op.rect
            nchars = op.char_count
            if nchars <= 0:
                nchars = max(1, rect.area // (GLYPH_W * GLYPH_H))
            nlines = max(1, rect.h // GLYPH_H)
            total = 0
            colors = (op.fg, op.bg)
            if colors != self._last_text_colors:
                total += self._charge("ChangeGC", _CHANGE_GC_2)
                self._last_text_colors = colors
            return total + self._charge(
                "PolyText8", xp.poly_text8_nbytes(nchars, nitems=nlines)
            )
        if kind is IMAGE:
            return self._put_image(op.rect)
        if kind is COPY:
            return self._charge("CopyArea", _COPY_AREA)
        raise ProtocolError(f"unknown paint kind {op.kind!r}")

    def _put_image(self, rect: Rect) -> int:
        """PutImage, split into slices below the max request size."""
        row_bytes = rect.w * 4
        if row_bytes + 24 > MAX_REQUEST_BYTES:
            raise ProtocolError(f"image row of {rect.w} pixels exceeds X limits")
        max_rows = (MAX_REQUEST_BYTES - 24) // row_bytes
        total = 0
        remaining = rect.h
        while remaining > 0:
            rows = min(max_rows, remaining)
            total += self._charge("PutImage", xp.put_image_nbytes(rect.w, rows))
            remaining -= rows
        return total

    def encode_ops(self, ops) -> int:
        """Account a sequence of ops; returns total request bytes."""
        total = 0
        for op in ops:
            total += self.encode_op(op)
        return total

    # -- session totals ---------------------------------------------------------
    @property
    def request_nbytes(self) -> int:
        return sum(self.bytes_by_request.values())

    def total_nbytes(self) -> int:
        """Request bytes plus TCP/IP segment overhead."""
        payload = self.request_nbytes
        return payload + xp.tcp_overhead_nbytes(payload)


@dataclass
class RawPixelDriver:
    """The "Raw Pixels" protocol of Figure 8: 3 bytes per changed pixel.

    Charged the same UDP/IP datagram overhead as SLIM for fairness.
    """

    pixels_sent: int = 0

    def encode_op(self, op: PaintOp) -> int:
        self.pixels_sent += op.pixels_changed
        return op.pixels_changed * 3

    def encode_ops(self, ops) -> int:
        pixels = 0
        for op in ops:
            pixels += op.rect.area
        self.pixels_sent += pixels
        return pixels * 3

    def total_nbytes(self) -> int:
        """Pixel bytes plus per-datagram overhead at the Ethernet MTU."""
        payload = self.pixels_sent * 3
        if payload == 0:
            return 0
        datagrams = -(-payload // 1472)
        return payload + datagrams * 28


class VncServer:
    """A client-pull remote framebuffer, for the Section 8.3 comparison.

    VNC's viewer "periodically requests the current state of the frame
    buffer"; the server responds with the pixels changed since the last
    request.  The cost structure this creates — server-side delta
    computation and a round trip of added latency per poll — is what the
    ablation benchmark quantifies against SLIM's server-push model.
    """

    #: FramebufferUpdateRequest size and per-rect update header size (RFB).
    REQUEST_NBYTES = 10
    RECT_HEADER_NBYTES = 12

    def __init__(self, framebuffer: FrameBuffer) -> None:
        self.framebuffer = framebuffer
        self._shadow = framebuffer.snapshot()
        self.polls = 0
        self.bytes_sent = 0
        self.pixels_sent = 0

    def poll(self) -> Tuple[List[Rect], int]:
        """One viewer request: returns (changed rects, response bytes).

        The server diffs the live framebuffer against the shadow copy of
        what the viewer last saw — the "calculating a large delta between
        frame buffer states" cost the paper attributes to VNC — then
        brings the shadow up to date.
        """
        self.polls += 1
        rects = self.framebuffer.diff_rects(self._shadow)
        nbytes = self.REQUEST_NBYTES
        for rect in rects:
            nbytes += self.RECT_HEADER_NBYTES + rect.area * 4  # raw 32-bit
            self.pixels_sent += rect.area
            self._shadow.blit(rect, self.framebuffer.read(rect))
        self.bytes_sent += nbytes
        return rects, nbytes
