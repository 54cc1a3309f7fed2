"""Unit tests for the framebuffer."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.framebuffer import FrameBuffer, Rect
from repro.framebuffer.framebuffer import DAMAGE_LIMIT


class TestConstruction:
    def test_shape_and_fill(self):
        fb = FrameBuffer(10, 5, fill=7)
        assert fb.pixels.shape == (5, 10, 3)
        assert (fb.pixels == 7).all()

    def test_bounds(self):
        assert FrameBuffer(10, 5).bounds == Rect(0, 0, 10, 5)

    def test_invalid_size(self):
        with pytest.raises(GeometryError):
            FrameBuffer(0, 5)
        with pytest.raises(GeometryError):
            FrameBuffer(5, -1)


class TestFill:
    def test_fills_exact_region(self, fb):
        fb.fill(Rect(2, 3, 4, 5), (10, 20, 30))
        block = fb.pixels[3:8, 2:6]
        assert (block == (10, 20, 30)).all()
        assert (fb.pixels[0, 0] == 0).all()

    def test_clips_to_bounds(self, fb):
        clipped = fb.fill(Rect(120, 90, 20, 20), (1, 1, 1))
        assert clipped == Rect(120, 90, 8, 6)

    def test_outside_is_noop(self, fb):
        clipped = fb.fill(Rect(500, 500, 5, 5), (9, 9, 9))
        assert clipped.empty
        assert (fb.pixels == 0).all()

    def test_records_damage(self, fb):
        fb.fill(Rect(0, 0, 4, 4), (1, 2, 3))
        assert fb.drain_damage() == [Rect(0, 0, 4, 4)]
        assert fb.drain_damage() == []

    def test_undrained_damage_is_bounded(self, rng):
        """Most framebuffers are never drained: the list must not grow
        with the session, and what it keeps must still cover every
        painted pixel."""
        fb = FrameBuffer(640, 480)
        painted = []
        ones = np.ones((16, 16), dtype=bool)
        for i in range(10_000):
            rect = Rect(int(rng.integers(0, 600)), int(rng.integers(0, 440)), 16, 16)
            kind = i % 4
            if kind == 0:
                painted.append(fb.fill(rect, (i % 256, 0, 0)))
            elif kind == 1:
                painted.append(fb.blit(rect, np.zeros((16, 16, 3), dtype=np.uint8)))
            elif kind == 2:
                painted.append(fb.copy_within(Rect(0, 0, 16, 16), rect.x, rect.y))
            else:
                painted.append(fb.expand_bitmap(rect, ones, (1, 2, 3), (4, 5, 6)))
            assert len(fb.peek_damage()) <= DAMAGE_LIMIT
        damage = fb.drain_damage()
        assert all(
            any(kept.contains_rect(rect) for kept in damage) for rect in painted
        )
        assert fb.drain_damage() == []

    def test_drained_damage_is_exact_below_the_limit(self):
        fb = FrameBuffer(64, 64)
        rects = [Rect(i % 60, i // 60, 2, 2) for i in range(DAMAGE_LIMIT)]
        for rect in rects:
            fb.fill(rect, (9, 9, 9))
        assert fb.drain_damage() == rects

    def test_collapsed_damage_does_not_change_the_push_pull_ablation(
        self, monkeypatch
    ):
        """The one consumer that drains tolerates a superset."""
        from repro.experiments.ablations import push_pull_ablation
        from repro.framebuffer import framebuffer

        exact = push_pull_ablation(n_updates=12, display_w=320, display_h=240)
        monkeypatch.setattr(framebuffer, "DAMAGE_LIMIT", 2)
        assert push_pull_ablation(
            n_updates=12, display_w=320, display_h=240
        ) == exact


class TestBlit:
    def test_roundtrip(self, fb, rng):
        data = rng.integers(0, 256, size=(6, 8, 3), dtype=np.uint8)
        fb.blit(Rect(5, 7, 8, 6), data)
        assert (fb.read(Rect(5, 7, 8, 6)) == data).all()

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(GeometryError):
            fb.blit(Rect(0, 0, 4, 4), np.zeros((3, 4, 3), dtype=np.uint8))

    def test_clipped_blit_writes_visible_part(self, fb, rng):
        data = rng.integers(0, 256, size=(4, 4, 3), dtype=np.uint8)
        fb.blit(Rect(126, 0, 4, 4), data)
        assert (fb.read(Rect(126, 0, 2, 4)) == data[:, :2]).all()

    def test_read_is_a_copy(self, fb):
        fb.fill(Rect(0, 0, 4, 4), (5, 5, 5))
        block = fb.read(Rect(0, 0, 4, 4))
        block[:] = 0
        assert (fb.read(Rect(0, 0, 4, 4)) == 5).all()


class TestCopyWithin:
    def test_simple_copy(self, fb):
        fb.fill(Rect(0, 0, 4, 4), (9, 8, 7))
        fb.copy_within(Rect(0, 0, 4, 4), 10, 10)
        assert (fb.read(Rect(10, 10, 4, 4)) == (9, 8, 7)).all()

    def test_overlapping_scroll_up(self, fb, rng):
        data = rng.integers(0, 256, size=(20, 10, 3), dtype=np.uint8)
        fb.blit(Rect(0, 0, 10, 20), data)
        # Scroll up by 3 rows: rows 3.. move to 0..
        fb.copy_within(Rect(0, 3, 10, 17), 0, 0)
        assert (fb.read(Rect(0, 0, 10, 17)) == data[3:20]).all()

    def test_overlapping_scroll_down(self, fb, rng):
        data = rng.integers(0, 256, size=(20, 10, 3), dtype=np.uint8)
        fb.blit(Rect(0, 0, 10, 20), data)
        fb.copy_within(Rect(0, 0, 10, 17), 0, 3)
        assert (fb.read(Rect(0, 3, 10, 17)) == data[0:17]).all()

    def test_out_of_bounds_source_rejected(self, fb):
        with pytest.raises(GeometryError):
            fb.copy_within(Rect(120, 90, 20, 20), 0, 0)

    def test_out_of_bounds_destination_rejected(self, fb):
        with pytest.raises(GeometryError):
            fb.copy_within(Rect(0, 0, 20, 20), 120, 90)


class TestExpandBitmap:
    def test_fg_bg_selection(self, fb):
        bitmap = np.array([[True, False], [False, True]])
        fb.expand_bitmap(Rect(0, 0, 2, 2), bitmap, (255, 0, 0), (0, 0, 255))
        assert fb.pixel(0, 0) == (255, 0, 0)
        assert fb.pixel(1, 0) == (0, 0, 255)
        assert fb.pixel(0, 1) == (0, 0, 255)
        assert fb.pixel(1, 1) == (255, 0, 0)

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(GeometryError):
            fb.expand_bitmap(
                Rect(0, 0, 3, 3), np.zeros((2, 2), bool), (0, 0, 0), (1, 1, 1)
            )


class TestAnalysis:
    def test_is_uniform_true(self, fb):
        fb.fill(Rect(0, 0, 10, 10), (4, 5, 6))
        assert fb.is_uniform(Rect(2, 2, 5, 5)) == (4, 5, 6)

    def test_is_uniform_false(self, fb):
        fb.fill(Rect(0, 0, 10, 10), (4, 5, 6))
        fb.fill(Rect(3, 3, 1, 1), (9, 9, 9))
        assert fb.is_uniform(Rect(0, 0, 10, 10)) is None

    def test_color_census_limit(self, fb, rng):
        fb.blit(
            Rect(0, 0, 16, 16),
            rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8),
        )
        census = fb.color_census(Rect(0, 0, 16, 16), limit=2)
        assert len(census) == 3  # stops just past the limit

    def test_color_census_bicolor(self, fb):
        fb.fill(Rect(0, 0, 8, 8), (0, 0, 0))
        fb.fill(Rect(0, 0, 4, 8), (255, 255, 255))
        census = fb.color_census(Rect(0, 0, 8, 8), limit=2)
        assert sorted(census) == [(0, 0, 0), (255, 255, 255)]

    def test_pixel_out_of_bounds(self, fb):
        with pytest.raises(GeometryError):
            fb.pixel(200, 0)


class TestEqualsAndDiff:
    def test_equals_self_snapshot(self, fb, rng):
        fb.blit(
            Rect(0, 0, 32, 32),
            rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8),
        )
        assert fb.equals(fb.snapshot())

    def test_not_equals_after_change(self, fb):
        snap = fb.snapshot()
        fb.fill(Rect(0, 0, 1, 1), (1, 1, 1))
        assert not fb.equals(snap)

    def test_diff_rects_empty_when_identical(self, fb):
        assert fb.diff_rects(fb.snapshot()) == []

    def test_diff_rects_cover_changes(self, fb):
        snap = fb.snapshot()
        fb.fill(Rect(10, 20, 5, 3), (9, 9, 9))
        fb.fill(Rect(50, 60, 5, 3), (9, 9, 9))
        rects = fb.diff_rects(snap)
        changed_rows = {20, 21, 22, 60, 61, 62}
        covered = set()
        for r in rects:
            covered.update(range(r.y, r.y2))
        assert changed_rows <= covered

    def test_diff_rects_size_mismatch(self, fb):
        with pytest.raises(GeometryError):
            fb.diff_rects(FrameBuffer(10, 10))

    def test_snapshot_does_not_share_damage(self, fb):
        fb.fill(Rect(0, 0, 2, 2), (1, 1, 1))
        clone = fb.snapshot()
        assert clone.peek_damage() == ()
        assert len(fb.peek_damage()) == 1
