"""Tests for the driver's paint-and-encode semantics (overlap hazards)."""

from repro.core.decoder import SlimDecoder
from repro.core.encoder import SlimEncoder
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Rect
from repro.server.slimdriver import SlimDriver


def make_pair(w=96, h=64):
    server_fb = FrameBuffer(w, h)
    console_fb = FrameBuffer(w, h)
    decoder = SlimDecoder(console_fb)
    driver = SlimDriver(
        encoder=SlimEncoder(materialize=True),
        framebuffer=server_fb,
        send=decoder.apply,
    )
    return server_fb, console_fb, driver


class TestUpdatePaints:
    def test_copy_source_overwritten_by_later_op(self):
        """A COPY whose source a later op repaints must stay faithful."""
        server_fb, console_fb, driver = make_pair()
        driver.update(
            0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 96, 64), color=(10, 10, 10))]
        )
        driver.update(
            1.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 16, 16), color=(200, 0, 0))]
        )
        ops = [
            # Move the red square right...
            PaintOp(PaintKind.COPY, Rect(40, 0, 16, 16), src=Rect(0, 0, 16, 16)),
            # ...then repaint the source region before the update ends.
            PaintOp(PaintKind.FILL, Rect(0, 0, 16, 16), color=(0, 200, 0)),
        ]
        driver.update(2.0, ops)
        assert server_fb.equals(console_fb)
        assert console_fb.pixel(45, 5) == (200, 0, 0)
        assert console_fb.pixel(5, 5) == (0, 200, 0)

    def test_text_region_partially_overwritten(self):
        """A TEXT op followed by an overlapping FILL stays faithful."""
        server_fb, console_fb, driver = make_pair()
        ops = [
            PaintOp(PaintKind.TEXT, Rect(0, 0, 60, 26), seed=1),
            PaintOp(PaintKind.FILL, Rect(20, 5, 20, 13), color=(120, 0, 120)),
        ]
        driver.update(0.0, ops)
        assert server_fb.equals(console_fb)

    def test_record_aggregates_all_ops(self):
        server_fb, _console_fb, driver = make_pair()
        record = driver.update(
            3.5,
            [
                PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8), color=(1, 1, 1)),
                PaintOp(PaintKind.FILL, Rect(8, 8, 8, 8), color=(2, 2, 2)),
            ],
        )
        assert record.time == 3.5
        assert record.pixels == 128
        assert record.commands_by_opcode["FILL"] == 2

    def test_chained_copies_within_one_update(self):
        """COPY of a region produced by an earlier COPY in the same update."""
        server_fb, console_fb, driver = make_pair()
        driver.update(
            0.0, [PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8), color=(50, 60, 70))]
        )
        ops = [
            PaintOp(PaintKind.COPY, Rect(16, 0, 8, 8), src=Rect(0, 0, 8, 8)),
            PaintOp(PaintKind.COPY, Rect(32, 0, 8, 8), src=Rect(16, 0, 8, 8)),
        ]
        driver.update(1.0, ops)
        assert server_fb.equals(console_fb)
        assert console_fb.pixel(36, 4) == (50, 60, 70)

    def test_accounting_only_driver_encodes_without_painting(self):
        driver = SlimDriver()  # no framebuffer: nothing to paint
        ops = [PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4))]
        record = driver.update(0.0, ops)
        assert record.commands_by_opcode["FILL"] == 1

