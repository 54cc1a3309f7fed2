"""Streaming-video workloads: MPEG-II playback and live NTSC (Sections
7.1-7.2).

Each source models the *server half* of a multimedia pipeline — where the
frames come from and what they cost to produce — while the SLIM video
library (:mod:`repro.core.video`) handles conversion and transmission and
the console charges decode time.  Frame pixels are synthesised
deterministically when materialized output is requested.

Paper-anchored cost constants (all on the 336 MHz E4500 CPUs of Table 3):

* the MPEG-II player "nearly consumes an entire CPU" at its observed
  20 Hz — decode + disk I/O of ~47 ms per 720x480 frame;
* the NTSC player's JPEG field decompression "fully consumes the
  processor" at 16-20 Hz — ~55 ms per full-size field pipeline, scaling
  with field area for the half-size variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.errors import WorkloadError
from repro.framebuffer.painter import synth_video_frame
from repro.framebuffer.regions import Rect

#: 336 MHz UltraSPARC-II seconds per pixel for MPEG-II decode + disk.
#: Decode alone; YUV extraction + transmission per *transmitted* pixel is
#: charged separately (EXTRACT_S_PER_PIXEL in experiments.multimedia),
#: which is why the paper's every-other-line trick raises the frame rate.
MPEG_DECODE_S_PER_PIXEL = 26e-3 / (720 * 480)
#: Same for JPEG field decompression of live NTSC.
NTSC_DECODE_S_PER_PIXEL = 45e-3 / (640 * 240)


@dataclass(frozen=True)
class VideoSourceSpec:
    """Static description of a video source.

    Attributes:
        name: Label ("mpeg2-clip", "ntsc-live", ...).
        width: Source frame width, pixels.
        height: Source frame height, pixels.
        native_fps: The content's full frame rate.
        decode_s_per_frame: Server CPU seconds to produce one frame
            (336 MHz reference).
        multithreaded: Whether decode parallelises across CPUs (the
            paper's NTSC player was not; simulating parallelism required
            running several instances).
    """

    name: str
    width: int
    height: int
    native_fps: float
    decode_s_per_frame: float
    multithreaded: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise WorkloadError(f"bad frame size {self.width}x{self.height}")
        if self.native_fps <= 0 or self.decode_s_per_frame <= 0:
            raise WorkloadError("rates and costs must be positive")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def scaled(self, width: int, height: int, name: Optional[str] = None) -> "VideoSourceSpec":
        """A resized variant (e.g. the paper's half-size NTSC players)."""
        factor = (width * height) / self.pixels
        return VideoSourceSpec(
            name=name or f"{self.name}-{width}x{height}",
            width=width,
            height=height,
            native_fps=self.native_fps,
            decode_s_per_frame=self.decode_s_per_frame * factor,
            multithreaded=self.multithreaded,
        )


#: The Section 7.1 stored clip: 720x480 MPEG-II at 30 Hz, CSCS at 6 bpp.
MPEG2_CLIP = VideoSourceSpec(
    name="mpeg2-clip",
    width=720,
    height=480,
    native_fps=30.0,
    decode_s_per_frame=MPEG_DECODE_S_PER_PIXEL * 720 * 480,
)

#: The Section 7.2 live source: 640x240 JPEG NTSC fields at 30 Hz,
#: scaled to 640x480 on the console.
NTSC_LIVE = VideoSourceSpec(
    name="ntsc-live",
    width=640,
    height=240,
    native_fps=30.0,
    decode_s_per_frame=NTSC_DECODE_S_PER_PIXEL * 640 * 240,
)


class VideoClip:
    """A deterministic synthetic clip matching a source spec."""

    def __init__(self, spec: VideoSourceSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed

    def frames(self, count: int) -> Iterator[np.ndarray]:
        """Yield ``count`` RGB frames (h, w, 3)."""
        if count < 0:
            raise WorkloadError("frame count cannot be negative")
        rect = Rect(0, 0, self.spec.width, self.spec.height)
        for index in range(count):
            yield synth_video_frame(rect, self.seed + index)
