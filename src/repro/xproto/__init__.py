"""X protocol baseline (Sections 5.6 and 8.1).

A wire-accurate byte accounting of the X11 requests the benchmark
applications' paint streams would generate, used for the three-way
bandwidth comparison of Figure 8 (X vs SLIM vs raw pixels).
"""

from repro.xproto.protocol import (
    poly_text8_nbytes,
    poly_fill_rectangle_nbytes,
    copy_area_nbytes,
    put_image_nbytes,
    tcp_overhead_nbytes,
)
from repro.xproto.baseline import XDriver, RawPixelDriver, VncServer

__all__ = [
    "poly_text8_nbytes",
    "poly_fill_rectangle_nbytes",
    "copy_area_nbytes",
    "put_image_nbytes",
    "tcp_overhead_nbytes",
    "XDriver",
    "RawPixelDriver",
    "VncServer",
]
