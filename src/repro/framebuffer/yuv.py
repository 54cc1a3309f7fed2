"""Color-space conversion and scaling for the CSCS command.

The SLIM CSCS command (Table 1) color-space converts a rectangular region
from YUV to RGB with optional bilinear scaling.  The server side (the SLIM
video library, Section 2.2) converts decoded video frames from RGB or
planar codec output into YUV, optionally subsamples the chroma planes to
hit a bits-per-pixel budget (16/12/8/5 bpp in Table 5), and the console
reverses the transform.

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

#: Chroma subsampling factors (horizontal, vertical) per CSCS bit depth.
#: 16bpp = 4:2:2 with 8-bit planes; 12bpp = 4:2:0; 8bpp = 4:2:0 with 4-bit
#: chroma; 5/6bpp = 4:2:0 with reduced luma precision.  These factors give
#: the byte-accounting model used throughout the multimedia experiments.
CSCS_BITS_PER_PIXEL = (16, 12, 8, 6, 5)

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


def quantize(plane: np.ndarray, bits: int) -> np.ndarray:
    """Quantize a float plane (0..255 scale) to ``bits`` of precision."""
    if not 1 <= bits <= 8:
        raise GeometryError(f"bits must be in 1..8, got {bits}")
    levels = (1 << bits) - 1
    scaled = np.clip(plane, -128.0, 255.0)
    lo, hi = scaled.min(), scaled.max()
    if hi <= lo:
        return scaled
    normalized = (scaled - lo) / (hi - lo)
    return np.rint(normalized * levels) / levels * (hi - lo) + lo


def subsample_yuv(yuv: np.ndarray, factor_x: int, factor_y: int) -> np.ndarray:
    """Box-average the chroma planes by (factor_x, factor_y).

    Returns a copy of ``yuv`` whose U and V channels have been averaged
    over factor_x x factor_y blocks and replicated back to full size,
    modelling the loss incurred by chroma subsampling while keeping a
    dense array representation.
    """
    if factor_x < 1 or factor_y < 1:
        raise GeometryError("subsample factors must be >= 1")
    h, w = yuv.shape[:2]
    out = yuv.copy()
    for channel in (1, 2):
        plane = yuv[:, :, channel]
        # Pad to multiples of the factor, average blocks, replicate back.
        ph = -h % factor_y
        pw = -w % factor_x
        padded = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
        bh, bw = padded.shape[0] // factor_y, padded.shape[1] // factor_x
        blocks = padded.reshape(bh, factor_y, bw, factor_x).mean(axis=(1, 3))
        restored = np.repeat(np.repeat(blocks, factor_y, axis=0), factor_x, axis=1)
        out[:, :, channel] = restored[:h, :w]
    return out


def cscs_wire_bytes(width: int, height: int, bits_per_pixel: int) -> int:
    """Bytes on the wire for a CSCS payload of the given geometry.

    The command header is accounted separately by the wire layer; this is
    the pixel-data payload alone.
    """
    if bits_per_pixel not in CSCS_BITS_PER_PIXEL:
        raise GeometryError(
            f"unsupported CSCS depth {bits_per_pixel}; "
            f"choose one of {CSCS_BITS_PER_PIXEL}"
        )
    total_bits = width * height * bits_per_pixel
    return (total_bits + 7) // 8


def degrade_for_depth(yuv: np.ndarray, bits_per_pixel: int) -> np.ndarray:
    """Apply the subsampling + quantization implied by a CSCS bit depth.

    The mapping mirrors Table 5's depth ladder:

    * 16 bpp: 4:2:2 chroma, 8-bit planes.
    * 12 bpp: 4:2:0 chroma, 8-bit planes.
    *  8 bpp: 4:2:0 chroma, 6-bit luma, 4-bit chroma.
    *  6 bpp: 4:2:0 chroma, 5-bit luma, 3-bit chroma.
    *  5 bpp: 4:2:0 chroma, 4-bit luma, 3-bit chroma.
    """
    ladder = dict(CSCS_LADDER)
    if bits_per_pixel not in ladder:
        raise GeometryError(f"unsupported CSCS depth {bits_per_pixel}")
    (fx, fy), luma_bits, chroma_bits = ladder[bits_per_pixel]
    degraded = subsample_yuv(yuv, fx, fy)
    degraded[:, :, 0] = quantize(degraded[:, :, 0], luma_bits)
    degraded[:, :, 1] = quantize(degraded[:, :, 1], chroma_bits)
    degraded[:, :, 2] = quantize(degraded[:, :, 2], chroma_bits)
    return degraded


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
