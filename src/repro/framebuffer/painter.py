"""High-level paint operations and a painter that realises them as pixels.

The paper's port path is "simply changing the device drivers in rendering
libraries" (Section 2.2): applications issue high-level rendering calls,
and the device driver translates them into SLIM commands.  ``PaintOp`` is
our rendering-call abstraction — the stream a workload (Netscape model,
Photoshop model, ...) hands to a display driver.  Three drivers consume the
same stream:

* :class:`repro.server.slimdriver.SlimDriver` encodes it as SLIM commands,
* :class:`repro.xproto.baseline.XDriver` encodes it as X11 requests,
* :class:`repro.xproto.baseline.RawPixelDriver` ships raw changed pixels,

which is exactly the three-way comparison of Figure 8.

The :class:`Painter` also *materialises* ops into a real framebuffer so
that fidelity tests can assert server and console pixels match after a
round trip through the wire format.
"""

from __future__ import annotations

import enum
import functools
from typing import Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.framebuffer.framebuffer import FrameBuffer
from repro.framebuffer.regions import Rect


class PaintKind(enum.Enum):
    """The rendering-call vocabulary shared by all display drivers."""

    FILL = "fill"      # solid rectangle
    TEXT = "text"      # bicolor glyph region (fg/bg)
    IMAGE = "image"    # full-color pixel data (photos, anti-aliased art)
    COPY = "copy"      # move a region (scrolling, window drag)


#: The kinds as module globals, for the per-op dispatch here and in the
#: drivers and the display model: a member read off its class goes
#: through the enum's metaclass, about ten times the cost of a global.
FILL, TEXT, IMAGE, COPY = PaintKind.FILL, PaintKind.TEXT, PaintKind.IMAGE, PaintKind.COPY


class PaintOp:
    """One high-level rendering call.

    A plain ``__slots__`` class, immutable by convention, like the wire
    objects it is encoded into: a study builds three or four per input
    event, so construction is a plain ``__init__`` (a frozen dataclass
    pays ``object.__setattr__`` per field).  Equality, hashing and
    ``repr`` read ``_fields``, in order: ops are equal by value within
    the class, and show as ``PaintOp(kind=..., rect=..., ...)``.

    Attributes:
        kind: Which rendering primitive this is.
        rect: Destination rectangle (for COPY, the *destination*).
        color: Fill color (FILL only).
        fg: Foreground color (TEXT only).
        bg: Background color (TEXT only).
        src: Source rectangle (COPY only); same size as ``rect``.
        seed: Deterministic content seed for TEXT/IMAGE synthesis.
        glyph_density: Fraction of TEXT pixels that are foreground ink.
        char_count: Approximate number of characters in a TEXT op; used by
            the X driver (PolyText8 is priced per character) and by the
            glyph synthesiser.
        uniform_fraction: Fraction of an IMAGE op's area that is actually
            flat background (page margins around a photo, etc.); the SLIM
            encoder can recover FILLs from it.
    """

    __slots__ = (
        "kind",
        "rect",
        "color",
        "fg",
        "bg",
        "src",
        "seed",
        "glyph_density",
        "char_count",
        "uniform_fraction",
    )
    #: Constructor arguments, in order: what equality, hashing and
    #: ``repr`` compare and show.
    _fields = __slots__

    def __init__(
        self,
        kind: PaintKind,
        rect: Rect,
        color: Tuple[int, int, int] = (0, 0, 0),
        fg: Tuple[int, int, int] = (0, 0, 0),
        bg: Tuple[int, int, int] = (255, 255, 255),
        src: Optional[Rect] = None,
        seed: int = 0,
        glyph_density: float = 0.12,
        char_count: int = 0,
        uniform_fraction: float = 0.0,
    ) -> None:
        if rect.w == 0 or rect.h == 0:
            raise GeometryError(f"paint op on empty rect {rect}")
        if kind is COPY:
            if src is None:
                raise GeometryError("COPY op requires a source rect")
            if src.w != rect.w or src.h != rect.h:
                raise GeometryError(
                    f"COPY source {src} and destination {rect} sizes differ"
                )
        if not 0.0 <= glyph_density <= 1.0:
            raise GeometryError("glyph_density must be within [0, 1]")
        if not 0.0 <= uniform_fraction <= 1.0:
            raise GeometryError("uniform_fraction must be within [0, 1]")
        self.kind = kind
        self.rect = rect
        self.color = color
        self.fg = fg
        self.bg = bg
        self.src = src
        self.seed = seed
        self.glyph_density = glyph_density
        self.char_count = char_count
        self.uniform_fraction = uniform_fraction

    @property
    def pixels_changed(self) -> int:
        """Pixels this op touches (the paper's Figure 3 metric)."""
        return self.rect.area

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


# An update's ops share one seed and every desktop counts its updates
# from 0, so the seeds of a run repeat where its pixels do not, and the
# SeedSequence hashing behind ``default_rng(seed)`` costs more than the
# draws of a median op.
_SYNTH_BITS = np.random.PCG64()
_SYNTH_RNG = np.random.Generator(_SYNTH_BITS)


@functools.lru_cache(maxsize=4096)
def _seed_state(seed: int) -> dict:
    return np.random.PCG64(seed).state


def _seeded_rng(seed: int) -> np.random.Generator:
    """The module's one generator, re-seated where ``default_rng(seed)``
    starts.

    Valid only until the next call: a caller draws everything it needs
    before it returns and keeps no reference.  (The state setter copies
    out of the memoised dict, so drawing never advances a memo entry.)
    """
    _SYNTH_BITS.state = _seed_state(seed)
    return _SYNTH_RNG


@functools.lru_cache(maxsize=1024)
def _ink_rows(height: int) -> np.ndarray:
    """Rows of an ``height``-row text region that carry ink, as a
    read-only column: every 13th-ish row band is leading."""
    rows = np.flatnonzero(np.arange(height) % 13 < 10)[:, None]
    rows.setflags(write=False)
    return rows


def synth_glyph_bitmap(rect: Rect, seed: int, density: float) -> np.ndarray:
    """Deterministic pseudo-text bitmap: short horizontal ink runs.

    Real text is not iid noise — ink comes in strokes — so we synthesise
    rows of short runs.  The result is a boolean (h, w) array whose True
    fraction approximates ``density``.
    """
    rng = _seeded_rng(seed)
    w = rect.w
    bitmap = np.zeros((rect.h, w), dtype=bool)
    if density <= 0:
        return bitmap
    # Each glyph cell is ~7x13; ink strokes are 1-2px wide runs.
    run_len = 3
    per_row_runs = max(1, int(w * density / run_len))
    ink_rows = _ink_rows(rect.h)
    if ink_rows.size == 0:
        return bitmap
    # One batched draw fills row-major, consuming the generator's bit
    # stream in the same order as the per-row draws it replaces, so the
    # bitmap stays bit-identical for a given seed.
    starts = rng.integers(
        0, max(1, w - run_len), size=(ink_rows.size, per_row_runs)
    )
    if w > run_len:
        # Every run fits (start <= w - 4): one store per run pixel, at
        # the same flat offsets into the bitmap shifted by one each time.
        starts += ink_rows * w
        flat = bitmap.reshape(-1)
        flat[starts] = True
        flat[1:][starts] = True
        flat[2:][starts] = True
        return bitmap
    cols = starts[:, :, None] + np.arange(run_len)
    np.minimum(cols, w - 1, out=cols)
    bitmap[np.repeat(ink_rows, per_row_runs * run_len), cols.ravel()] = True
    return bitmap


def synth_image(rect: Rect, seed: int, uniform_fraction: float = 0.0) -> np.ndarray:
    """Deterministic photographic-ish content: smooth low-frequency noise.

    A band at the bottom of the rectangle (sized by ``uniform_fraction``)
    is flat background, letting the SLIM encoder exercise its FILL
    recovery on image-bearing updates.
    """
    rng = _seeded_rng(seed)
    # Low-resolution noise upsampled -> smooth gradients like a photo.
    small_h = max(1, rect.h // 8)
    small_w = max(1, rect.w // 8)
    base = rng.integers(0, 256, size=(small_h, small_w, 3), dtype=np.uint8)
    reps_y = -(-rect.h // small_h)
    reps_x = -(-rect.w // small_w)
    image = np.repeat(np.repeat(base, reps_y, axis=0), reps_x, axis=1)
    image = image[: rect.h, : rect.w].astype(np.int16)
    # Dither so adjacent pixels differ (defeats naive run-length collapse).
    image += rng.integers(-6, 7, size=image.shape, dtype=np.int16)
    image = np.clip(image, 0, 255).astype(np.uint8)
    if uniform_fraction > 0:
        flat_rows = int(rect.h * uniform_fraction)
        if flat_rows > 0:
            image[rect.h - flat_rows :, :, :] = (238, 238, 238)
    return image


def synth_video_frame(rect: Rect, seed: int) -> np.ndarray:
    """A deterministic full-color video frame (RGB uint8)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : rect.h, 0 : rect.w]
    phase = float(rng.uniform(0, 2 * np.pi))
    r = 127 + 120 * np.sin(xx / 37.0 + phase)
    g = 127 + 120 * np.sin(yy / 29.0 + phase * 0.7)
    b = 127 + 120 * np.sin((xx + yy) / 53.0 + phase * 1.3)
    frame = np.stack([r, g, b], axis=-1)
    noise = rng.normal(0, 4, size=frame.shape)
    return np.clip(frame + noise, 0, 255).astype(np.uint8)


class Painter:
    """Applies :class:`PaintOp` streams to a framebuffer.

    The painter is the "application rendering" half of the system; the
    display drivers observe the op stream (and, when materialising, the
    resulting pixels) to produce protocol traffic.
    """

    def __init__(self, framebuffer: FrameBuffer) -> None:
        self.framebuffer = framebuffer

    def apply(self, op: PaintOp) -> Rect:
        """Render one op into the framebuffer; returns the damaged rect."""
        fb = self.framebuffer
        kind = op.kind
        if kind is FILL:
            return fb.fill(op.rect, op.color)
        if kind is TEXT:
            bitmap = synth_glyph_bitmap(op.rect, op.seed, op.glyph_density)
            return fb.expand_bitmap(op.rect, bitmap, op.fg, op.bg)
        if kind is IMAGE:
            data = synth_image(op.rect, op.seed, op.uniform_fraction)
            return fb.blit(op.rect, data)
        if kind is COPY:
            assert op.src is not None  # validated in __init__
            return fb.copy_within(op.src, op.rect.x, op.rect.y)
        raise GeometryError(f"unknown paint kind {op.kind!r}")

    def apply_all(self, ops) -> list:
        """Render a sequence of ops; returns the list of damaged rects."""
        return [self.apply(op) for op in ops]
