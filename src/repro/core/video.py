"""The SLIM video library (Section 2.2).

Applications with real-time display needs (video players, games) bypass
the X path and use this library to transmit frames directly to the
console: each frame is converted to YUV, compressed to a CSCS bit depth,
and sent as a CSCS command, optionally at reduced resolution with
console-side bilinear upscaling ("full frame rate can be achieved by
sending every other line and scaling at the desktop" — Section 7.1).

The library also speaks the console's bandwidth-allocation protocol on the
application's behalf, which is how "these requests are transparent to the
application programmer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ProtocolError
from repro.core import commands as cmd
from repro.core import cscs_codec
from repro.core.bandwidth import BandwidthAllocator
from repro.core.wire import message_wire_nbytes
from repro.framebuffer.regions import Rect
from repro.framebuffer.yuv import bilinear_scale
from repro.telemetry.metrics import get_registry


@dataclass(frozen=True)
class StreamGeometry:
    """Where and how a video stream lands on the display.

    Attributes:
        dst: Destination rectangle on the console display.
        src_w: Transmitted frame width (may be below dst.w for upscaling).
        src_h: Transmitted frame height.
        bits_per_pixel: CSCS compression depth.
        interlace: When True, only every other source line is sent and the
            console scales vertically (the Section 7.1 half-rate trick).
    """

    dst: Rect
    src_w: int
    src_h: int
    bits_per_pixel: int = 16
    interlace: bool = False

    def __post_init__(self) -> None:
        if self.src_w <= 0 or self.src_h <= 0:
            raise ProtocolError(
                f"stream source size must be positive: {self.src_w}x{self.src_h}"
            )

    @property
    def transmitted_h(self) -> int:
        """Lines actually sent per frame."""
        return (self.src_h + 1) // 2 if self.interlace else self.src_h

    def frame_wire_nbytes(self) -> int:
        """Wire bytes of one frame at this geometry (headers included)."""
        probe = cmd.CscsCommand(
            rect=self.dst,
            src_w=self.src_w,
            src_h=self.transmitted_h,
            bits_per_pixel=self.bits_per_pixel,
        )
        return message_wire_nbytes(probe)

    def bandwidth_at(self, fps: float) -> float:
        """Bits/second consumed at a given frame rate."""
        return self.frame_wire_nbytes() * 8 * fps


class VideoStream:
    """Converts application frames into CSCS commands for one stream.

    Args:
        geometry: Placement and compression parameters.
        client_id: Identity used with the console's bandwidth allocator.
        allocator: The target console's allocator, or None to skip
            bandwidth management (stand-alone tests).
    """

    def __init__(
        self,
        geometry: StreamGeometry,
        client_id: int = 0,
        allocator: Optional[BandwidthAllocator] = None,
    ) -> None:
        self.geometry = geometry
        self.client_id = client_id
        self.allocator = allocator
        self.frames_sent = 0
        self.bytes_sent = 0
        # Resolved once: the video_frame_rate SLO reads this counter's
        # per-window rate; disabled telemetry costs one None test per frame.
        m = get_registry()
        self._m_frames = (
            m.counter("video.frames_sent", stream=client_id)
            if m.enabled
            else None
        )

    # -- bandwidth management -------------------------------------------------
    def negotiate(self, target_fps: float) -> float:
        """Request bandwidth for a target frame rate; returns granted bps.

        Without an allocator the request is trivially granted.
        """
        needed = self.geometry.bandwidth_at(target_fps)
        if self.allocator is None:
            return needed
        self.allocator.request(self.client_id, needed)
        return self.allocator.grant_for(self.client_id).granted_bps

    # -- frame transmission -----------------------------------------------------
    def encode_frame(self, rgb: Optional[np.ndarray] = None) -> cmd.CscsCommand:
        """Build the CSCS command for one frame.

        With ``rgb`` given (shape matching the *source* geometry), the
        command carries a real payload; otherwise it is accounting-only.
        The frame is resampled to the transmitted size first when the
        stream downscales or interlaces.
        """
        geo = self.geometry
        payload = None
        if rgb is not None:
            if rgb.ndim != 3 or rgb.shape[2] != 3:
                raise ProtocolError(f"expected (h, w, 3) frame, got {rgb.shape}")
            frame = rgb
            if geo.interlace:
                frame = frame[::2, :, :]
            if frame.shape[:2] != (geo.transmitted_h, geo.src_w):
                frame = bilinear_scale(frame, geo.src_w, geo.transmitted_h)
            payload = cscs_codec.encode_frame(frame, geo.bits_per_pixel)
        command = cmd.CscsCommand(
            rect=geo.dst,
            src_w=geo.src_w,
            src_h=geo.transmitted_h,
            bits_per_pixel=geo.bits_per_pixel,
            payload=payload,
        )
        self.frames_sent += 1
        self.bytes_sent += message_wire_nbytes(command)
        if self._m_frames is not None:
            self._m_frames.inc()
        return command

    # -- reporting ---------------------------------------------------------------
    def average_frame_nbytes(self) -> float:
        """Mean wire bytes per transmitted frame so far."""
        if self.frames_sent == 0:
            return 0.0
        return self.bytes_sent / self.frames_sent
