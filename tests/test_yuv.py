"""Unit tests for color-space conversion and scaling."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.framebuffer.yuv import (
    CSCS_LADDER,
    bilinear_scale,
    psnr,
    rgb_to_yuv,
    yuv_to_rgb,
)


class TestRgbYuv:
    def test_roundtrip_is_near_lossless(self, rng):
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        back = yuv_to_rgb(rgb_to_yuv(rgb))
        assert np.abs(rgb.astype(int) - back.astype(int)).max() <= 1

    def test_gray_has_no_chroma(self):
        gray = np.full((4, 4, 3), 128, dtype=np.uint8)
        yuv = rgb_to_yuv(gray)
        assert np.abs(yuv[:, :, 1]).max() < 1e-9
        assert np.abs(yuv[:, :, 2]).max() < 1e-9
        assert np.allclose(yuv[:, :, 0], 128)

    def test_luma_weights_order(self):
        # Green contributes most to luma, blue least (BT.601).
        red = np.zeros((1, 1, 3), dtype=np.uint8); red[..., 0] = 255
        green = np.zeros((1, 1, 3), dtype=np.uint8); green[..., 1] = 255
        blue = np.zeros((1, 1, 3), dtype=np.uint8); blue[..., 2] = 255
        y_r = rgb_to_yuv(red)[0, 0, 0]
        y_g = rgb_to_yuv(green)[0, 0, 0]
        y_b = rgb_to_yuv(blue)[0, 0, 0]
        assert y_g > y_r > y_b

    def test_bad_shape_rejected(self):
        with pytest.raises(GeometryError):
            rgb_to_yuv(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(GeometryError):
            yuv_to_rgb(np.zeros((4, 4, 2)))


class TestLadder:
    def test_bit_budgets_are_exact(self):
        for bpp, ((fx, fy), luma_bits, chroma_bits) in CSCS_LADDER.items():
            assert luma_bits + 2 * chroma_bits / (fx * fy) == bpp


class TestBilinearScale:
    def test_identity(self, rng):
        img = rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)
        out = bilinear_scale(img, 12, 10)
        assert np.array_equal(out, img)

    def test_upscale_shape(self, rng):
        img = rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)
        assert bilinear_scale(img, 24, 20).shape == (20, 24, 3)

    def test_uniform_stays_uniform(self):
        img = np.full((8, 8, 3), 77, dtype=np.uint8)
        assert (bilinear_scale(img, 16, 16) == 77).all()

    def test_grayscale_2d_supported(self):
        img = np.full((4, 4), 9, dtype=np.uint8)
        out = bilinear_scale(img, 8, 8)
        assert out.shape == (8, 8)
        assert (out == 9).all()

    def test_gradient_interpolates_between_extremes(self):
        img = np.zeros((1, 2, 3), dtype=np.uint8)
        img[0, 1] = 255
        out = bilinear_scale(img, 4, 1)
        assert out[0, 0, 0] <= out[0, 1, 0] <= out[0, 2, 0] <= out[0, 3, 0]

    def test_invalid_output_size(self):
        with pytest.raises(GeometryError):
            bilinear_scale(np.zeros((4, 4, 3)), 0, 4)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.full((4, 4, 3), 5, dtype=np.uint8)
        assert psnr(img, img.copy()) == float("inf")

    def test_more_noise_lower_psnr(self, rng):
        img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        small = np.clip(img.astype(int) + rng.integers(-2, 3, img.shape), 0, 255).astype(np.uint8)
        large = np.clip(img.astype(int) + rng.integers(-40, 41, img.shape), 0, 255).astype(np.uint8)
        assert psnr(img, small) > psnr(img, large)

    def test_shape_mismatch(self):
        with pytest.raises(GeometryError):
            psnr(np.zeros((2, 2, 3), np.uint8), np.zeros((3, 3, 3), np.uint8))
