"""Unit tests for the video and Quake workload models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.framebuffer.yuv import rgb_to_yuv
from repro.workloads.quake import (
    ENGINE_FIXED_S_PER_FRAME,
    QUAKE_FULL,
    QUAKE_QUARTER,
    QUAKE_THREE_QUARTER,
    QuakeEngine,
)
from repro.workloads.video import (
    MPEG2_CLIP,
    NTSC_LIVE,
    VideoClip,
    VideoSourceSpec,
)


class TestVideoSpecs:
    def test_paper_geometries(self):
        assert (MPEG2_CLIP.width, MPEG2_CLIP.height) == (720, 480)
        assert (NTSC_LIVE.width, NTSC_LIVE.height) == (640, 240)

    def test_decode_rates_near_observed(self):
        # MPEG decode alone leaves room above 20Hz; extraction brings the
        # full pipeline down to the paper's 20Hz (tested in experiments).
        assert 1 / MPEG2_CLIP.decode_s_per_frame > 20
        assert 1 / NTSC_LIVE.decode_s_per_frame > 16

    def test_scaled_variant(self):
        half = NTSC_LIVE.scaled(320, 240)
        assert half.pixels == 320 * 240
        ratio = half.decode_s_per_frame / NTSC_LIVE.decode_s_per_frame
        assert ratio == pytest.approx(0.5)

    def test_invalid_spec(self):
        with pytest.raises(WorkloadError):
            VideoSourceSpec("x", 0, 10, 30, 0.01)
        with pytest.raises(WorkloadError):
            VideoSourceSpec("x", 10, 10, 0, 0.01)

    def test_clip_frames(self):
        clip = VideoClip(VideoSourceSpec("x", 32, 24, 30, 0.01), seed=1)
        frames = list(clip.frames(3))
        assert len(frames) == 3
        assert frames[0].shape == (24, 32, 3)
        assert not np.array_equal(frames[0], frames[1])

    def test_clip_negative_count(self):
        clip = VideoClip(MPEG2_CLIP)
        with pytest.raises(WorkloadError):
            list(clip.frames(-1))


class TestQuakeConfig:
    def test_paper_resolutions(self):
        assert (QUAKE_FULL.width, QUAKE_FULL.height) == (640, 480)
        assert (QUAKE_THREE_QUARTER.width, QUAKE_THREE_QUARTER.height) == (480, 360)
        assert (QUAKE_QUARTER.width, QUAKE_QUARTER.height) == (320, 240)

    def test_costs_match_paper_at_full_res(self):
        assert QUAKE_FULL.translate_s_per_frame() == pytest.approx(0.030)
        assert QUAKE_FULL.transmit_s_per_frame() == pytest.approx(0.013)

    def test_translate_scales_with_area(self):
        ratio = (
            QUAKE_THREE_QUARTER.translate_s_per_frame()
            / QUAKE_FULL.translate_s_per_frame()
        )
        assert ratio == pytest.approx(0.5625)

    def test_render_includes_fixed_cost(self):
        assert QUAKE_QUARTER.render_s_per_frame(0.0) > ENGINE_FIXED_S_PER_FRAME

    def test_scene_complexity_bounds(self):
        with pytest.raises(WorkloadError):
            QUAKE_FULL.render_s_per_frame(1.5)

    def test_upper_bound_frame_rate_near_23hz(self):
        """The paper: translate + transmit alone bound 640x480 at ~23Hz."""
        bound = 1.0 / (
            QUAKE_FULL.translate_s_per_frame() + QUAKE_FULL.transmit_s_per_frame()
        )
        assert bound == pytest.approx(23.3, rel=0.02)


class TestQuakeEngine:
    def test_frames_are_indexed_8bit(self):
        engine = QuakeEngine(QUAKE_QUARTER, seed=1)
        frame = engine.render_frame()
        assert frame.shape == (240, 320)
        assert frame.dtype == np.uint8

    def test_translate_uses_lookup_table(self):
        engine = QuakeEngine(QUAKE_QUARTER, seed=1)
        indexed = engine.render_frame()
        yuv = engine.translate(indexed)
        # Spot-check: every pixel's YUV equals the table entry.
        expected = rgb_to_yuv(engine.colormap[None, :, :])[0]
        sample = indexed[::37, ::41]
        assert np.allclose(yuv[::37, ::41], expected[sample])

    def test_translate_validates_shape(self):
        engine = QuakeEngine(QUAKE_QUARTER)
        with pytest.raises(WorkloadError):
            engine.translate(np.zeros((10, 10), dtype=np.uint8))

    def test_rgb_frame_consistent_with_colormap(self):
        engine = QuakeEngine(QUAKE_QUARTER, seed=2)
        indexed = engine.render_frame()
        rgb = engine.rgb_frame(indexed)
        assert np.array_equal(rgb[0, 0], engine.colormap[indexed[0, 0]])

    def test_frames_iterator_pairs(self):
        engine = QuakeEngine(QUAKE_QUARTER, seed=3)
        pairs = list(engine.frames(2))
        assert len(pairs) == 2
        indexed, rgb = pairs[0]
        assert rgb.shape == (240, 320, 3)
        assert np.array_equal(rgb, engine.colormap[indexed])

    def test_frames_animate(self):
        engine = QuakeEngine(QUAKE_QUARTER, seed=4)
        a = engine.render_frame()
        b = engine.render_frame()
        assert not np.array_equal(a, b)
