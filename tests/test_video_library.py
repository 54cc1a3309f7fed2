"""Unit tests for the SLIM video library (core.video)."""

import numpy as np
import pytest

from repro.core.bandwidth import BandwidthAllocator
from repro.core.video import StreamGeometry, VideoStream
from repro.core import cscs_codec
from repro.errors import ProtocolError
from repro.framebuffer import Rect
from repro.framebuffer.painter import synth_video_frame
from repro.units import ETHERNET_100, MBPS


def geometry(**kw):
    defaults = dict(dst=Rect(0, 0, 64, 48), src_w=64, src_h=48, bits_per_pixel=16)
    defaults.update(kw)
    return StreamGeometry(**defaults)


class TestStreamGeometry:
    def test_invalid_source(self):
        with pytest.raises(ProtocolError):
            StreamGeometry(dst=Rect(0, 0, 8, 8), src_w=0, src_h=8)

    def test_interlace_halves_lines(self):
        geo = geometry(interlace=True)
        assert geo.transmitted_h == 24

    def test_interlace_rounds_up_odd(self):
        geo = geometry(src_h=49, interlace=True)
        assert geo.transmitted_h == 25

    def test_frame_bytes_scale_with_depth(self):
        assert geometry(bits_per_pixel=16).frame_wire_nbytes() > geometry(
            bits_per_pixel=5
        ).frame_wire_nbytes()

    def test_bandwidth_at_fps(self):
        geo = geometry()
        assert geo.bandwidth_at(24) == pytest.approx(geo.frame_wire_nbytes() * 8 * 24)

    def test_interlace_roughly_halves_bandwidth(self):
        full = geometry().frame_wire_nbytes()
        half = geometry(interlace=True).frame_wire_nbytes()
        assert 0.4 < half / full < 0.6


class TestVideoStream:
    def test_accounting_only_frame(self):
        stream = VideoStream(geometry())
        command = stream.encode_frame()
        assert command.payload is None
        assert stream.frames_sent == 1
        assert stream.bytes_sent > 0

    def test_materialized_frame_roundtrips(self):
        geo = geometry()
        stream = VideoStream(geo)
        frame = synth_video_frame(geo.dst, seed=2)
        command = stream.encode_frame(frame)
        decoded = cscs_codec.decode_frame(command.payload, 64, 48, 16)
        err = np.abs(frame.astype(int) - decoded.astype(int)).mean()
        assert err < 6.0

    def test_downscaling_resamples(self):
        geo = geometry(src_w=32, src_h=24)  # transmit quarter size
        stream = VideoStream(geo)
        frame = synth_video_frame(Rect(0, 0, 64, 48), seed=2)
        command = stream.encode_frame(frame)
        assert command.src_w == 32
        assert command.src_h == 24
        assert command.scales

    def test_interlaced_frame_sends_half_lines(self):
        geo = geometry(interlace=True)
        stream = VideoStream(geo)
        frame = synth_video_frame(geo.dst, seed=1)
        command = stream.encode_frame(frame)
        assert command.src_h == 24

    def test_bad_frame_shape(self):
        stream = VideoStream(geometry())
        with pytest.raises(ProtocolError):
            stream.encode_frame(np.zeros((8, 8), dtype=np.uint8))

    def test_average_frame_bytes(self):
        stream = VideoStream(geometry())
        assert stream.average_frame_nbytes() == 0.0
        stream.encode_frame()
        stream.encode_frame()
        assert stream.average_frame_nbytes() == stream.bytes_sent / 2


class TestBandwidthNegotiation:
    def test_without_allocator_trivially_granted(self):
        stream = VideoStream(geometry())
        granted = stream.negotiate(target_fps=24)
        assert granted == pytest.approx(stream.geometry.bandwidth_at(24))

    def test_with_allocator_unconstrained(self):
        allocator = BandwidthAllocator(ETHERNET_100)
        stream = VideoStream(geometry(), client_id=1, allocator=allocator)
        stream.negotiate(target_fps=24)
        assert allocator.grant_for(1).satisfied

    def test_with_allocator_constrained_by_other_traffic(self):
        allocator = BandwidthAllocator(20 * MBPS)
        interactive = VideoStream(geometry(), client_id=1, allocator=allocator)
        big_geo = StreamGeometry(
            dst=Rect(0, 0, 640, 480), src_w=640, src_h=480, bits_per_pixel=16
        )
        video = VideoStream(big_geo, client_id=2, allocator=allocator)
        interactive.negotiate(target_fps=5)
        granted = video.negotiate(target_fps=30)  # way more than 20Mbps
        assert allocator.grant_for(1).satisfied
        assert not allocator.grant_for(2).satisfied
        assert granted < big_geo.bandwidth_at(30)
