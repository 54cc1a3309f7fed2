"""Unit tests for the CSCS payload codec."""

import numpy as np
import pytest

from repro.core import cscs_codec
from repro.core.commands import cscs_plane_bytes
from repro.errors import ProtocolError
from repro.framebuffer.regions import Rect
from repro.framebuffer.painter import synth_video_frame


def frame(w=32, h=24, seed=1):
    return synth_video_frame(Rect(0, 0, w, h), seed)


def _roundtrip_error(rgb: np.ndarray, bits_per_pixel: int) -> float:
    """Mean absolute per-channel error of an encode/decode round trip."""
    decoded = cscs_codec.decode_frame(
        cscs_codec.encode_frame(rgb, bits_per_pixel),
        rgb.shape[1],
        rgb.shape[0],
        bits_per_pixel,
    )
    return float(
        np.mean(np.abs(rgb.astype(np.float64) - decoded.astype(np.float64)))
    )


class TestEncode:
    def test_size_matches_model_every_depth(self):
        rgb = frame()
        for bpp in (16, 12, 8, 6, 5):
            payload = cscs_codec.encode_frame(rgb, bpp)
            assert len(payload) == cscs_plane_bytes(32, 24, bpp)

    def test_odd_dimensions(self):
        rgb = frame(w=17, h=11)
        for bpp in (16, 12, 8, 6, 5):
            payload = cscs_codec.encode_frame(rgb, bpp)
            assert len(payload) == cscs_plane_bytes(17, 11, bpp)

    def test_unknown_depth(self):
        with pytest.raises(ProtocolError):
            cscs_codec.encode_frame(frame(), 24)

    def test_bad_shape(self):
        with pytest.raises(ProtocolError):
            cscs_codec.encode_frame(np.zeros((4, 4), np.uint8), 16)

    def test_deterministic(self):
        rgb = frame()
        assert cscs_codec.encode_frame(rgb, 12) == cscs_codec.encode_frame(rgb, 12)


class TestDecode:
    def test_roundtrip_quality_16bpp(self):
        rgb = frame()
        decoded = cscs_codec.decode_frame(
            cscs_codec.encode_frame(rgb, 16), 32, 24, 16
        )
        err = np.abs(rgb.astype(int) - decoded.astype(int)).mean()
        assert err < 6.0

    def test_quality_degrades_monotonically(self):
        rgb = frame(w=64, h=48)
        errors = [_roundtrip_error(rgb, bpp) for bpp in (16, 12, 8, 5)]
        assert errors[0] <= errors[1] <= errors[2] <= errors[3]

    def test_even_lowest_depth_preserves_structure(self):
        rgb = frame(w=64, h=48)
        assert _roundtrip_error(rgb, 5) < 40.0

    def test_uniform_frame_near_exact(self):
        rgb = np.full((16, 16, 3), 120, dtype=np.uint8)
        decoded = cscs_codec.decode_frame(
            cscs_codec.encode_frame(rgb, 16), 16, 16, 16
        )
        assert np.abs(rgb.astype(int) - decoded.astype(int)).max() <= 3

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(ProtocolError):
            cscs_codec.decode_frame(b"\x00" * 10, 32, 24, 16)

    def test_wrong_depth_rejected(self):
        with pytest.raises(ProtocolError):
            cscs_codec.decode_frame(b"", 4, 4, 9)

    def test_odd_dimension_roundtrip(self):
        rgb = frame(w=15, h=9)
        decoded = cscs_codec.decode_frame(
            cscs_codec.encode_frame(rgb, 12), 15, 9, 12
        )
        assert decoded.shape == rgb.shape
