"""Virtual framebuffer substrate: rectangles, pixels, color space, painting.

This subpackage is the lowest layer of the reproduction.  Everything that
touches pixels — the SLIM encoder/decoder, the console, the workload
painters — works in terms of :class:`~repro.framebuffer.regions.Rect`
geometry on :class:`~repro.framebuffer.framebuffer.FrameBuffer` objects.
"""

from repro.framebuffer.regions import Rect, tile_rect, union_bounds
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.yuv import (
    rgb_to_yuv,
    yuv_to_rgb,
    bilinear_scale,
)
from repro.framebuffer.painter import Painter, PaintOp, PaintKind

__all__ = [
    "Rect",
    "tile_rect",
    "union_bounds",
    "FrameBuffer",
    "rgb_to_yuv",
    "yuv_to_rgb",
    "bilinear_scale",
    "Painter",
    "PaintOp",
    "PaintKind",
]
