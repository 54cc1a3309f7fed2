"""Unit tests for the X11 / raw-pixel / VNC baselines."""

import pytest

from repro.errors import ProtocolError
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Painter, Rect
from repro.xproto import protocol as xp
from repro.xproto.baseline import RawPixelDriver, VncServer, XDriver


class TestRequestSizes:
    def test_poly_text8_small(self):
        # 16 fixed + pad4(2 + 5 chars) = 16 + 8.
        assert xp.poly_text8_nbytes(5) == 24

    def test_poly_text8_multi_item(self):
        assert xp.poly_text8_nbytes(10, nitems=3) == 16 + ((2 * 3 + 10 + 3) & ~3)

    def test_poly_fill_rectangle(self):
        assert xp.poly_fill_rectangle_nbytes(1) == 20
        assert xp.poly_fill_rectangle_nbytes(3) == 36

    def test_copy_area_fixed(self):
        assert xp.copy_area_nbytes() == 28

    def test_put_image_24bit_pads_to_32(self):
        assert xp.put_image_nbytes(10, 10) == 24 + 400

    def test_put_image_8bit(self):
        assert xp.put_image_nbytes(10, 2, depth=8) == 24 + 24

    def test_put_image_invalid(self):
        with pytest.raises(ProtocolError):
            xp.put_image_nbytes(0, 10)
        with pytest.raises(ProtocolError):
            xp.put_image_nbytes(10, 10, depth=16)

    def test_tcp_overhead(self):
        assert xp.tcp_overhead_nbytes(0) == 0
        assert xp.tcp_overhead_nbytes(1) == 40
        assert xp.tcp_overhead_nbytes(1460) == 40
        assert xp.tcp_overhead_nbytes(1461) == 80


class TestXDriver:
    def test_text_priced_per_character(self):
        driver = XDriver()
        op = PaintOp(PaintKind.TEXT, Rect(0, 0, 70, 13), char_count=10)
        nbytes = driver.encode_op(op)
        # ChangeGC + PolyText8; far below the pixel count.
        assert nbytes < 70 * 13
        assert "PolyText8" in driver.bytes_by_request

    def test_text_estimates_chars_when_missing(self):
        driver = XDriver()
        op = PaintOp(PaintKind.TEXT, Rect(0, 0, 70, 13))
        driver.encode_op(op)
        assert driver.bytes_by_request["PolyText8"] >= 16

    def test_gc_charged_once_per_color(self):
        driver = XDriver()
        op = PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4), color=(1, 1, 1))
        first = driver.encode_op(op)
        second = driver.encode_op(op)
        assert first > second  # GC change amortized away

    def test_image_four_bytes_per_pixel(self):
        driver = XDriver()
        op = PaintOp(PaintKind.IMAGE, Rect(0, 0, 50, 40))
        nbytes = driver.encode_op(op)
        assert nbytes == 24 + 50 * 40 * 4

    def test_huge_image_split_at_request_limit(self):
        driver = XDriver()
        op = PaintOp(PaintKind.IMAGE, Rect(0, 0, 1280, 1024))
        driver.encode_op(op)
        # 1280*4 B/row -> 51 rows per request max; 1024 rows -> >=20 slices.
        assert driver.request_count >= 20

    def test_copy_is_cheap(self):
        driver = XDriver()
        op = PaintOp(PaintKind.COPY, Rect(0, 0, 500, 500), src=Rect(0, 10, 500, 500))
        assert driver.encode_op(op) == 28

    def test_total_includes_tcp(self):
        driver = XDriver()
        driver.encode_op(PaintOp(PaintKind.IMAGE, Rect(0, 0, 100, 100)))
        assert driver.total_nbytes() > driver.request_nbytes


class TestRawPixelDriver:
    def test_three_bytes_per_pixel(self):
        driver = RawPixelDriver()
        assert driver.encode_op(PaintOp(PaintKind.FILL, Rect(0, 0, 10, 10))) == 300

    def test_total_includes_datagram_overhead(self):
        driver = RawPixelDriver()
        driver.encode_op(PaintOp(PaintKind.IMAGE, Rect(0, 0, 100, 100)))
        payload = 100 * 100 * 3
        datagrams = -(-payload // 1472)
        assert driver.total_nbytes() == payload + datagrams * 28

    def test_empty_session(self):
        assert RawPixelDriver().total_nbytes() == 0


class TestVncServer:
    def test_no_change_no_pixels(self):
        fb = FrameBuffer(64, 48)
        vnc = VncServer(fb)
        rects, nbytes = vnc.poll()
        assert rects == []
        assert nbytes == VncServer.REQUEST_NBYTES

    def test_changes_shipped_once(self):
        fb = FrameBuffer(64, 48)
        vnc = VncServer(fb)
        fb.fill(Rect(0, 0, 8, 8), (5, 5, 5))
        rects, nbytes = vnc.poll()
        assert rects
        assert nbytes > 8 * 8 * 4
        # Second poll: nothing new.
        rects2, nbytes2 = vnc.poll()
        assert rects2 == []

    def test_shadow_tracks_framebuffer(self):
        fb = FrameBuffer(64, 48)
        vnc = VncServer(fb)
        Painter(fb).apply(PaintOp(PaintKind.IMAGE, Rect(0, 0, 32, 32), seed=1))
        vnc.poll()
        Painter(fb).apply(PaintOp(PaintKind.FILL, Rect(32, 32, 8, 8), color=(1, 1, 1)))
        rects, _ = vnc.poll()
        # Only the second change is shipped.
        covered_rows = {row for r in rects for row in range(r.y, r.y2)}
        assert covered_rows <= set(range(32, 48))

    def test_pull_ships_more_than_slim_for_structured_content(self):
        from repro.core.encoder import SlimEncoder
        from repro.core.wire import message_wire_nbytes

        fb = FrameBuffer(128, 96)
        op = PaintOp(PaintKind.FILL, Rect(0, 0, 128, 96), color=(9, 9, 9))
        Painter(fb).apply(op)
        slim = sum(
            message_wire_nbytes(c)
            for c in SlimEncoder(materialize=True).encode_op(op, fb)
        )
        vnc = VncServer(FrameBuffer(128, 96))
        Painter(vnc.framebuffer).apply(op)
        _rects, vnc_bytes = vnc.poll()
        assert vnc_bytes > 50 * slim
