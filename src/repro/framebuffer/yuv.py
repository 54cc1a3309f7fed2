"""Color-space conversion and scaling for the CSCS command.

The SLIM CSCS command (Table 1) color-space converts a rectangular region
from YUV to RGB with optional bilinear scaling.  The server side (the SLIM
video library, Section 2.2) converts decoded video frames from RGB into
YUV, and the console reverses the transform.  The per-depth plane layout
(:data:`CSCS_LADDER`) is defined here; :mod:`repro.core.cscs_codec` is the
one codec that subsamples and packs the planes to it.

The conversion uses BT.601 full-range coefficients, vectorised with numpy.
"""

from __future__ import annotations


import numpy as np

from repro.errors import GeometryError

# BT.601 full-range forward matrix (RGB -> YUV).
_FORWARD = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_INVERSE = np.linalg.inv(_FORWARD)

#: Per-depth plane layout: bpp -> ((chroma_factor_x, chroma_factor_y),
#: luma_bits, chroma_bits).  The layouts are chosen so that
#: ``luma_bits + 2 * chroma_bits / (fx * fy) == bpp`` exactly:
#: 16bpp is 4:2:2 with 8-bit planes, 12bpp is 4:2:0 with 8-bit planes,
#: and the lower depths shave plane precision.
CSCS_LADDER = {
    16: ((2, 1), 8, 8),
    12: ((2, 2), 8, 8),
    8: ((2, 2), 6, 4),
    6: ((2, 2), 5, 2),
    5: ((2, 2), 4, 2),
}


def rgb_to_yuv(rgb: np.ndarray) -> np.ndarray:
    """Convert an (h, w, 3) uint8 RGB array to float YUV planes.

    Returns an (h, w, 3) float64 array with Y in 0..255 and U/V centered
    on zero (-128..127).
    """
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise GeometryError(f"expected (h, w, 3) array, got {rgb.shape}")
    return rgb.astype(np.float64) @ _FORWARD.T


def yuv_to_rgb(yuv: np.ndarray) -> np.ndarray:
    """Convert float YUV planes back to uint8 RGB, clamping to 0..255."""
    if yuv.ndim != 3 or yuv.shape[2] != 3:
        raise GeometryError(f"expected (h, w, 3) array, got {yuv.shape}")
    rgb = yuv @ _INVERSE.T
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def bilinear_scale(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinearly scale an (h, w, c) or (h, w) array to (out_h, out_w).

    This is the console-side scaling path of CSCS ("with optional bilinear
    scaling"), used e.g. to send half-size video and scale up locally.
    """
    if out_w <= 0 or out_h <= 0:
        raise GeometryError(f"output size must be positive: {out_w}x{out_h}")
    squeeze = image.ndim == 2
    if squeeze:
        image = image[:, :, None]
    h, w, c = image.shape
    if h == 0 or w == 0:
        raise GeometryError("cannot scale an empty image")
    # Sample positions in source coordinates (align corners = False).
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    img = image.astype(np.float64)
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    out = top * (1 - wy) + bottom * wy
    if np.issubdtype(image.dtype, np.integer):
        out = np.clip(np.rint(out), 0, 255).astype(image.dtype)
    if squeeze:
        out = out[:, :, 0]
    return out


def psnr(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Peak signal-to-noise ratio (dB) between two uint8 images.

    Used as the quality proxy in the CSCS bit-depth ablation.  Returns
    ``float('inf')`` for identical images.
    """
    if reference.shape != candidate.shape:
        raise GeometryError("PSNR inputs must have identical shapes")
    diff = reference.astype(np.float64) - candidate.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
