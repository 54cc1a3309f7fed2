"""The CSCS payload codec: RGB frames <-> packed YUV plane bitstreams.

This is the lossy half of the SLIM protocol.  The server-side video
library converts frames to YUV, subsamples and quantizes the planes to the
requested bits-per-pixel budget (Table 5 lists console decode costs for
16/12/8/5 bpp), and packs them into a dense bitstream.  The console
reverses the process and hands RGB pixels to the graphics controller.

The plane layouts per depth come from
:data:`repro.framebuffer.yuv.CSCS_LADDER`; payload sizes are computed by
:func:`repro.core.commands.cscs_plane_bytes` and these two functions are
kept in exact agreement (asserted by tests).
"""

from __future__ import annotations


import numpy as np

from repro.errors import ProtocolError
from repro.core.commands import cscs_plane_bytes
from repro.core.wire import pack_bits, unpack_bits
from repro.framebuffer.yuv import CSCS_LADDER, rgb_to_yuv, yuv_to_rgb


def _quantize_plane(plane: np.ndarray, bits: int, lo: float, hi: float) -> np.ndarray:
    """Map float values in [lo, hi] to integer level indices."""
    levels = (1 << bits) - 1
    clipped = np.clip(plane, lo, hi)
    return np.rint((clipped - lo) / (hi - lo) * levels).astype(np.uint8)


def _dequantize_plane(indices: np.ndarray, bits: int, lo: float, hi: float) -> np.ndarray:
    levels = (1 << bits) - 1
    return indices.astype(np.float64) / levels * (hi - lo) + lo


def _subsample_plane(plane: np.ndarray, fx: int, fy: int) -> np.ndarray:
    """Box-average a plane into ceil(h/fy) x ceil(w/fx) blocks."""
    h, w = plane.shape
    ph = -h % fy
    pw = -w % fx
    padded = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    bh, bw = padded.shape[0] // fy, padded.shape[1] // fx
    return padded.reshape(bh, fy, bw, fx).mean(axis=(1, 3))


def _upsample_plane(plane: np.ndarray, fx: int, fy: int, w: int, h: int) -> np.ndarray:
    """Nearest-neighbour replicate a subsampled plane back to (h, w)."""
    restored = np.repeat(np.repeat(plane, fy, axis=0), fx, axis=1)
    return restored[:h, :w]


def encode_frame(rgb: np.ndarray, bits_per_pixel: int) -> bytes:
    """Encode an (h, w, 3) uint8 RGB frame into a CSCS payload."""
    if bits_per_pixel not in CSCS_LADDER:
        raise ProtocolError(f"unsupported CSCS depth {bits_per_pixel}")
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ProtocolError(f"expected (h, w, 3) frame, got shape {rgb.shape}")
    (fx, fy), luma_bits, chroma_bits = CSCS_LADDER[bits_per_pixel]
    h, w = rgb.shape[:2]
    yuv = rgb_to_yuv(rgb)
    luma = _quantize_plane(yuv[:, :, 0], luma_bits, 0.0, 255.0)
    u = _subsample_plane(yuv[:, :, 1], fx, fy)
    v = _subsample_plane(yuv[:, :, 2], fx, fy)
    u_idx = _quantize_plane(u, chroma_bits, -128.0, 127.0)
    v_idx = _quantize_plane(v, chroma_bits, -128.0, 127.0)
    payload = (
        pack_bits(luma, luma_bits)
        + pack_bits(u_idx, chroma_bits)
        + pack_bits(v_idx, chroma_bits)
    )
    expected = cscs_plane_bytes(w, h, bits_per_pixel)
    if len(payload) != expected:
        raise ProtocolError(
            f"internal codec error: produced {len(payload)} bytes, "
            f"size model says {expected}"
        )
    return payload


def decode_frame(payload: bytes, width: int, height: int, bits_per_pixel: int) -> np.ndarray:
    """Decode a CSCS payload back into an (h, w, 3) uint8 RGB frame."""
    if bits_per_pixel not in CSCS_LADDER:
        raise ProtocolError(f"unsupported CSCS depth {bits_per_pixel}")
    expected = cscs_plane_bytes(width, height, bits_per_pixel)
    if len(payload) != expected:
        raise ProtocolError(
            f"CSCS payload is {len(payload)} bytes, expected {expected} "
            f"for {width}x{height}@{bits_per_pixel}bpp"
        )
    (fx, fy), luma_bits, chroma_bits = CSCS_LADDER[bits_per_pixel]
    cw = -(-width // fx)
    ch = -(-height // fy)
    luma_nbytes = (width * height * luma_bits + 7) // 8
    chroma_nbytes = (cw * ch * chroma_bits + 7) // 8
    offset = 0
    luma_idx = unpack_bits(payload[offset : offset + luma_nbytes], width * height, luma_bits)
    offset += luma_nbytes
    u_idx = unpack_bits(payload[offset : offset + chroma_nbytes], cw * ch, chroma_bits)
    offset += chroma_nbytes
    v_idx = unpack_bits(payload[offset : offset + chroma_nbytes], cw * ch, chroma_bits)

    luma = _dequantize_plane(luma_idx, luma_bits, 0.0, 255.0).reshape(height, width)
    u = _dequantize_plane(u_idx, chroma_bits, -128.0, 127.0).reshape(ch, cw)
    v = _dequantize_plane(v_idx, chroma_bits, -128.0, 127.0).reshape(ch, cw)
    yuv = np.stack(
        [
            luma,
            _upsample_plane(u, fx, fy, width, height),
            _upsample_plane(v, fx, fy, width, height),
        ],
        axis=-1,
    )
    return yuv_to_rgb(yuv)
