"""Unit tests for the SLIM encoder (both driver and pixel-diff paths)."""

import numpy as np
import pytest

from repro.core import commands as cmd
from repro.core.encoder import EncoderConfig, SlimEncoder
from repro.errors import ProtocolError
from repro.framebuffer import FrameBuffer, PaintKind, PaintOp, Painter, Rect


def painted(fb, op):
    Painter(fb).apply(op)
    return op


class TestDriverPathMaterialized:
    def test_fill_becomes_fill_command(self, fb):
        op = painted(fb, PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8), color=(3, 3, 3)))
        commands = SlimEncoder().encode_op(op, fb)
        assert len(commands) == 1
        assert isinstance(commands[0], cmd.FillCommand)
        assert commands[0].color == (3, 3, 3)

    def test_text_becomes_bitmap_with_exact_mask(self, fb):
        op = painted(
            fb,
            PaintOp(
                PaintKind.TEXT, Rect(0, 0, 40, 26), fg=(0, 0, 0), bg=(255, 255, 255), seed=4
            ),
        )
        (command,) = SlimEncoder().encode_op(op, fb)
        assert isinstance(command, cmd.BitmapCommand)
        expected = (fb.read(op.rect) == np.zeros(3, dtype=np.uint8)).all(axis=2)
        assert np.array_equal(command.bitmap, expected)

    def test_copy_becomes_copy_command(self, fb):
        op = PaintOp(PaintKind.COPY, Rect(10, 10, 8, 8), src=Rect(0, 0, 8, 8))
        (command,) = SlimEncoder().encode_op(op, fb)
        assert isinstance(command, cmd.CopyCommand)
        assert command.src == Rect(0, 0, 8, 8)

    def test_image_recovers_flat_band_as_fill(self, fb):
        op = painted(
            fb,
            PaintOp(PaintKind.IMAGE, Rect(0, 0, 64, 64), seed=3, uniform_fraction=0.5),
        )
        commands = SlimEncoder().encode_op(op, fb)
        kinds = {type(c) for c in commands}
        assert cmd.FillCommand in kinds
        assert cmd.SetCommand in kinds

    def test_materializing_without_framebuffer_rejected(self):
        op = PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4))
        encoder = SlimEncoder(materialize=True)
        # FILL carries its own color, so it can materialize without a fb;
        # TEXT cannot.
        with pytest.raises(ProtocolError):
            encoder.encode_op(
                PaintOp(PaintKind.TEXT, Rect(0, 0, 13, 13)), framebuffer=None
            )


class TestDriverPathAccounting:
    def setup_method(self):
        self.encoder = SlimEncoder(materialize=False)

    def test_no_payloads_attached(self):
        op = PaintOp(PaintKind.TEXT, Rect(0, 0, 40, 26))
        (command,) = self.encoder.encode_op(op)
        assert command.bitmap is None

    def test_sizes_match_materialized(self, fb):
        ops = [
            PaintOp(PaintKind.FILL, Rect(0, 0, 32, 32), color=(5, 5, 5)),
            PaintOp(PaintKind.TEXT, Rect(0, 32, 64, 26), seed=1),
            PaintOp(PaintKind.COPY, Rect(64, 0, 16, 16), src=Rect(0, 0, 16, 16)),
        ]
        materializing = SlimEncoder(materialize=True)
        for op in ops:
            Painter(fb).apply(op)
            a = self.encoder.encode_op(op)
            b = materializing.encode_op(op, fb)
            assert sum(c.payload_nbytes() for c in a) == sum(
                c.payload_nbytes() for c in b
            )

    def test_image_split_by_uniform_fraction(self):
        op = PaintOp(PaintKind.IMAGE, Rect(0, 0, 100, 100), uniform_fraction=0.4)
        commands = self.encoder.encode_op(op)
        fills = [c for c in commands if isinstance(c, cmd.FillCommand)]
        sets = [c for c in commands if isinstance(c, cmd.SetCommand)]
        assert len(fills) == 1 and len(sets) == 1
        assert fills[0].rect.area == 4000
        assert sets[0].rect.area == 6000


class TestAblationConfig:
    def test_no_fill_degrades_to_set(self, fb):
        op = painted(fb, PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8), color=(1, 1, 1)))
        encoder = SlimEncoder(config=EncoderConfig(use_fill=False))
        (command,) = encoder.encode_op(op, fb)
        assert isinstance(command, cmd.SetCommand)
        assert (command.data == 1).all()

    def test_no_bitmap_degrades_to_set(self, fb):
        op = painted(fb, PaintOp(PaintKind.TEXT, Rect(0, 0, 20, 13), seed=2))
        encoder = SlimEncoder(config=EncoderConfig(use_bitmap=False))
        (command,) = encoder.encode_op(op, fb)
        assert isinstance(command, cmd.SetCommand)

    def test_no_copy_degrades_to_set(self, fb):
        fb.fill(Rect(0, 0, 8, 8), (9, 9, 9))
        op = PaintOp(PaintKind.COPY, Rect(16, 16, 8, 8), src=Rect(0, 0, 8, 8))
        Painter(fb).apply(op)
        encoder = SlimEncoder(config=EncoderConfig(use_copy=False))
        (command,) = encoder.encode_op(op, fb)
        assert isinstance(command, cmd.SetCommand)

    def test_ablated_encoding_is_larger(self, fb):
        op = painted(fb, PaintOp(PaintKind.FILL, Rect(0, 0, 64, 64), color=(1, 1, 1)))
        full = SlimEncoder().encode_op(op, fb)
        ablated = SlimEncoder(config=EncoderConfig(use_fill=False)).encode_op(op, fb)
        assert sum(c.payload_nbytes() for c in ablated) > 50 * sum(
            c.payload_nbytes() for c in full
        )


class TestPixelDiffPath:
    def test_uniform_region_becomes_fills(self, fb):
        fb.fill(Rect(0, 0, 128, 96), (20, 30, 40))
        commands = SlimEncoder().encode_damage(fb, [Rect(0, 0, 128, 96)])
        assert all(isinstance(c, cmd.FillCommand) for c in commands)
        # Horizontal merging should leave one command per tile row.
        assert len(commands) == 2  # 96 rows / 64-high tiles -> 2 rows

    def test_bicolor_region_becomes_bitmaps(self, fb):
        Painter(fb).apply(
            PaintOp(PaintKind.TEXT, Rect(0, 0, 64, 64), fg=(0, 0, 0), bg=(255, 255, 255), seed=3)
        )
        commands = SlimEncoder().encode_damage(fb, [Rect(0, 0, 64, 64)])
        assert all(isinstance(c, cmd.BitmapCommand) for c in commands)

    def test_noise_becomes_set(self, fb, rng):
        fb.blit(
            Rect(0, 0, 64, 64),
            rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8),
        )
        commands = SlimEncoder().encode_damage(fb, [Rect(0, 0, 64, 64)])
        assert all(isinstance(c, cmd.SetCommand) for c in commands)

    def test_decode_of_diff_encoding_reproduces_pixels(self, fb, rng):
        from repro.core.decoder import SlimDecoder

        fb.fill(Rect(0, 0, 128, 96), (200, 200, 200))
        Painter(fb).apply(PaintOp(PaintKind.TEXT, Rect(5, 5, 60, 39), seed=1))
        fb.blit(
            Rect(70, 10, 40, 30),
            rng.integers(0, 256, size=(30, 40, 3), dtype=np.uint8),
        )
        commands = SlimEncoder().encode_damage(fb, [fb.bounds])
        replica = FrameBuffer(128, 96)
        SlimDecoder(replica).apply_all(commands)
        assert fb.equals(replica)

    def test_damage_clipped_to_bounds(self, fb):
        commands = SlimEncoder().encode_damage(fb, [Rect(100, 80, 100, 100)])
        for c in commands:
            assert fb.bounds.contains_rect(c.rect)

    def test_empty_damage_list(self, fb):
        assert SlimEncoder().encode_damage(fb, []) == []

    def test_fill_merging_reduces_commands(self, fb):
        fb.fill(Rect(0, 0, 128, 64), (1, 2, 3))
        merged = SlimEncoder(config=EncoderConfig(tile_w=32, tile_h=64)).encode_damage(
            fb, [Rect(0, 0, 128, 64)]
        )
        assert len(merged) == 1
        assert merged[0].rect == Rect(0, 0, 128, 64)
