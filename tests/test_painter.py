"""Unit tests for paint ops and the painter."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.framebuffer import PaintKind, PaintOp, Rect
from repro.framebuffer.painter import (
    synth_glyph_bitmap,
    synth_image,
    synth_video_frame,
)


class TestPaintOpValidation:
    def test_empty_rect_rejected(self):
        with pytest.raises(GeometryError):
            PaintOp(PaintKind.FILL, Rect(0, 0, 0, 5))

    def test_copy_requires_src(self):
        with pytest.raises(GeometryError):
            PaintOp(PaintKind.COPY, Rect(0, 0, 4, 4))

    def test_copy_size_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            PaintOp(PaintKind.COPY, Rect(0, 0, 4, 4), src=Rect(0, 0, 5, 4))

    def test_glyph_density_bounds(self):
        with pytest.raises(GeometryError):
            PaintOp(PaintKind.TEXT, Rect(0, 0, 4, 4), glyph_density=1.5)

    def test_uniform_fraction_bounds(self):
        with pytest.raises(GeometryError):
            PaintOp(PaintKind.IMAGE, Rect(0, 0, 4, 4), uniform_fraction=-0.1)

    def test_pixels_changed(self):
        op = PaintOp(PaintKind.FILL, Rect(0, 0, 10, 20))
        assert op.pixels_changed == 200


class TestSynthesis:
    def test_glyph_bitmap_deterministic(self):
        a = synth_glyph_bitmap(Rect(0, 0, 50, 26), seed=3, density=0.12)
        b = synth_glyph_bitmap(Rect(0, 0, 50, 26), seed=3, density=0.12)
        assert np.array_equal(a, b)

    def test_glyph_bitmap_density_rough(self):
        bitmap = synth_glyph_bitmap(Rect(0, 0, 200, 130), seed=1, density=0.12)
        ink = bitmap.mean()
        assert 0.03 < ink < 0.3

    def test_glyph_bitmap_zero_density(self):
        bitmap = synth_glyph_bitmap(Rect(0, 0, 20, 13), seed=1, density=0.0)
        assert not bitmap.any()

    def test_glyph_has_leading_rows(self):
        bitmap = synth_glyph_bitmap(Rect(0, 0, 40, 13), seed=1, density=0.3)
        # Rows 10-12 of each 13-row band are leading (no ink).
        assert not bitmap[10:13].any()

    def test_image_deterministic(self):
        a = synth_image(Rect(0, 0, 30, 20), seed=9)
        b = synth_image(Rect(0, 0, 30, 20), seed=9)
        assert np.array_equal(a, b)

    def test_image_different_seeds_differ(self):
        a = synth_image(Rect(0, 0, 30, 20), seed=1)
        b = synth_image(Rect(0, 0, 30, 20), seed=2)
        assert not np.array_equal(a, b)

    def test_image_uniform_band(self):
        img = synth_image(Rect(0, 0, 20, 20), seed=1, uniform_fraction=0.5)
        flat = img[10:]
        assert (flat == flat[0, 0]).all()
        assert not (img[:10] == img[0, 0]).all()

    def test_image_not_run_length_trivial(self):
        img = synth_image(Rect(0, 0, 64, 64), seed=4)
        # Adjacent-pixel equality should be rare thanks to dithering.
        same = (img[:, :-1] == img[:, 1:]).all(axis=2).mean()
        assert same < 0.5

    def test_video_frame_shape_and_determinism(self):
        a = synth_video_frame(Rect(0, 0, 16, 12), seed=5)
        assert a.shape == (12, 16, 3)
        assert np.array_equal(a, synth_video_frame(Rect(0, 0, 16, 12), seed=5))


class TestPainter:
    def test_fill(self, fb, painter):
        painter.apply(PaintOp(PaintKind.FILL, Rect(0, 0, 8, 8), color=(1, 2, 3)))
        assert fb.is_uniform(Rect(0, 0, 8, 8)) == (1, 2, 3)

    def test_text_is_bicolor(self, fb, painter):
        op = PaintOp(
            PaintKind.TEXT, Rect(0, 0, 40, 26), fg=(0, 0, 0), bg=(250, 250, 250), seed=2
        )
        painter.apply(op)
        census = fb.color_census(Rect(0, 0, 40, 26), limit=2)
        assert len(census) == 2

    def test_copy_moves_content(self, fb, painter):
        painter.apply(PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4), color=(7, 7, 7)))
        painter.apply(
            PaintOp(PaintKind.COPY, Rect(20, 20, 4, 4), src=Rect(0, 0, 4, 4))
        )
        assert fb.is_uniform(Rect(20, 20, 4, 4)) == (7, 7, 7)

    def test_image_fills_rect(self, fb, painter):
        damaged = painter.apply(PaintOp(PaintKind.IMAGE, Rect(5, 5, 20, 10), seed=3))
        assert damaged == Rect(5, 5, 20, 10)

    def test_apply_all_returns_damage_list(self, fb, painter):
        ops = [
            PaintOp(PaintKind.FILL, Rect(0, 0, 4, 4), color=(1, 1, 1)),
            PaintOp(PaintKind.FILL, Rect(4, 4, 4, 4), color=(2, 2, 2)),
        ]
        damage = painter.apply_all(ops)
        assert damage == [Rect(0, 0, 4, 4), Rect(4, 4, 4, 4)]
