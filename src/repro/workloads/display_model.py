"""Display-update synthesis: what an input event paints (Figures 3-5).

Each input event induces a display update — a set of paint operations.
An application's updates are described by a set of :class:`SizeClass`
archetypes (character echo, widget repaint, paragraph repaint, page
paint, whole-image operation, ...), each with:

* an occurrence weight,
* a lognormal area distribution, and
* a content mix — how that class's pixels split between solid fills,
  bicolor text, region moves (scrolls), and full-color imagery.

Content mix varying *by size class* is essential to reproducing the
paper's data jointly: large updates are mostly scrolls and repaints
(big pixel counts, small encodings — Figure 3 vs Figure 5), while the
rare whole-image operations carry the bulk of the literal SET bytes that
pin Photoshop's aggregate compression near 2x (Figure 4).

Updates are expressed as :class:`~repro.framebuffer.painter.PaintOp`
lists positioned inside the display, so they can be run materialized
(real pixels) or accounting-only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.framebuffer.painter import COPY, FILL, IMAGE, TEXT, PaintKind, PaintOp
from repro.framebuffer.regions import Rect
from repro.units import DISPLAY_HEIGHT, DISPLAY_WIDTH

#: A 7x13 glyph cell (matches the X baseline's font assumption).
GLYPH_AREA = 91

#: Palette of plausible 1999 desktop colors for fills.
FILL_COLORS = (
    (255, 255, 255),
    (238, 238, 238),
    (197, 194, 197),
    (214, 210, 222),
    (0, 0, 128),
    (99, 99, 206),
)

#: The order an update's Dirichlet shares are spent in.
_KINDS = (FILL, TEXT, COPY, IMAGE)


@dataclass(frozen=True)
class SizeClass:
    """One update archetype for an application.

    Attributes:
        name: Label ("echo", "widget", "page", ...).
        weight: Occurrence probability among the app's updates.
        median_area: Median update area, pixels.
        sigma: Lognormal log-std of the area.
        shares: Expected pixel shares (fill, text, copy, image); sums
            to 1.  Per-update shares are Dirichlet-jittered around these.
        image_uniform_fraction: Flat-background fraction inside this
            class's IMAGE ops (margins the SLIM encoder recovers as
            FILLs).
    """

    name: str
    weight: float
    median_area: float
    sigma: float
    shares: Tuple[float, float, float, float]
    image_uniform_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise WorkloadError(f"negative weight for class {self.name}")
        if self.median_area <= 0 or self.sigma <= 0:
            raise WorkloadError(f"bad area distribution for class {self.name}")
        if abs(sum(self.shares) - 1.0) > 1e-6:
            raise WorkloadError(f"shares for class {self.name} must sum to 1")
        if not 0 <= self.image_uniform_fraction <= 1:
            raise WorkloadError("image_uniform_fraction must be in [0, 1]")


@dataclass(frozen=True)
class UpdateArchetype:
    """An application's complete update model: its size classes."""

    classes: Tuple[SizeClass, ...]
    #: Dirichlet concentration; larger keeps updates nearer the mix.
    content_concentration: float = 8.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise WorkloadError("archetype needs at least one size class")
        if not self.content_concentration >= 0.4:
            # Then every class has an alpha of at least 0.1 (its largest
            # share is at least a quarter): where numpy's Dirichlet is
            # the gamma construction ``DisplayModel`` draws.
            raise WorkloadError("content_concentration must be at least 0.4")
        total = sum(c.weight for c in self.classes)
        if abs(total - 1.0) > 1e-6:
            raise WorkloadError(f"class weights sum to {total}, expected 1")

    def expected_area(self) -> float:
        """Mean update area (before the display-size cap)."""
        return sum(
            c.weight * c.median_area * float(np.exp(c.sigma**2 / 2))
            for c in self.classes
        )

    def expected_set_share(self) -> float:
        """Pixel-weighted literal (SET) share — drives Figure 4."""
        total = self.expected_area()
        literal = sum(
            c.weight
            * c.median_area
            * float(np.exp(c.sigma**2 / 2))
            * c.shares[3]
            * (1.0 - c.image_uniform_fraction)
            for c in self.classes
        )
        return literal / total if total else 0.0


class DisplayModel:
    """Samples display updates for one application."""

    def __init__(
        self,
        archetype: UpdateArchetype,
        display_w: int = DISPLAY_WIDTH,
        display_h: int = DISPLAY_HEIGHT,
    ) -> None:
        self.archetype = archetype
        self.display_w = display_w
        self.display_h = display_h
        self.display_area = display_w * display_h
        # ``Generator.choice(n, p=weights)`` is one uniform draw bisected
        # (to the right) into these normalised cumulative weights; the
        # lognormal and Dirichlet parameters of a class are constants too.
        # All computed once, by numpy's own expressions, so every draw is
        # bit-identical to the per-update calls.
        cdf = np.cumsum([c.weight for c in archetype.classes], dtype=np.float64)
        self._cdf = (cdf / cdf[-1]).tolist()
        conc = archetype.content_concentration
        self._class_tables = [
            (
                c,
                float(np.log(c.median_area)),
                tuple((np.asarray(c.shares, dtype=np.float64) * conc + 1e-3).tolist()),
            )
            for c in archetype.classes
        ]

    # -- sampling ---------------------------------------------------------------
    def sample_class(self, rng: np.random.Generator) -> SizeClass:
        return self.archetype.classes[bisect_right(self._cdf, rng.random())]

    def sample_update(self, rng: np.random.Generator, seed: int = 0) -> List[PaintOp]:
        """Generate the paint ops for one display update."""
        cls, log_median, alpha = self._class_tables[
            bisect_right(self._cdf, rng.random())
        ]
        area = rng.lognormal(log_median, cls.sigma)
        total_area = int(min(max(area, 16.0), self.display_area))
        # ``rng.dirichlet(alpha)`` as numpy draws it whenever an alpha is
        # at least 0.1 (``UpdateArchetype`` sees to that): one standard
        # gamma per kind, each times the reciprocal of their sum taken
        # left to right.  Four scalar draws cost half the array call.
        gamma = rng.standard_gamma
        gammas = [gamma(a) for a in alpha]
        scale = 1.0 / (gammas[0] + gammas[1] + gammas[2] + gammas[3])
        ops: List[PaintOp] = []
        for kind, share in zip(_KINDS, gammas):
            op_area = int(total_area * (share * scale))
            if op_area >= 16:
                ops.append(self._make_op(kind, op_area, rng, seed, cls))
        if not ops:
            ops.append(self._make_op(TEXT, max(16, total_area), rng, seed, cls))
        return ops

    # -- op construction ----------------------------------------------------------
    def _place_rect(self, area: int, rng: np.random.Generator, min_h: int = 1) -> Rect:
        """Pick a plausible rectangle of roughly ``area`` pixels on screen."""
        # Each clamp is ``max(lo, min(value, hi))``, spelled as compares.
        display_w, display_h = self.display_w, self.display_h
        if area > self.display_area:
            area = self.display_area
        if area < 16:
            area = 16
        # Aspect ratio between 1:1 and 4:1, biased wide (GUI rows/panels).
        # (``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``.)
        aspect = 1.0 + (4.0 - 1.0) * rng.random()
        w = int(math.sqrt(area * aspect))
        if w > display_w:
            w = display_w
        if w < 4:
            w = 4
        h = area // w
        if h > display_h:
            h = display_h
        if h < min_h:
            h = min_h
        w = area // h
        if w > display_w:
            w = display_w
        if w < 4:
            w = 4
        x = int(rng.integers(0, display_w - w + 1))
        y = int(rng.integers(0, display_h - h + 1))
        return Rect(x, y, w, h)

    def _make_op(
        self,
        kind: PaintKind,
        area: int,
        rng: np.random.Generator,
        seed: int,
        cls: SizeClass,
    ) -> PaintOp:
        if kind is FILL:
            rect = self._place_rect(area, rng)
            color = FILL_COLORS[int(rng.integers(0, len(FILL_COLORS)))]
            return PaintOp(FILL, rect, color=color, seed=seed)
        if kind is TEXT:
            rect = self._place_rect(area, rng, min_h=13)
            return PaintOp(
                TEXT,
                rect,
                fg=(0, 0, 0),
                bg=(255, 255, 255),
                seed=seed,
                char_count=max(1, rect.area // GLYPH_AREA),
                glyph_density=0.08 + (0.16 - 0.08) * rng.random(),
            )
        if kind is COPY:
            rect = self._place_rect(area, rng)
            # A scroll: source displaced vertically within the display.
            max_dy = min(64, self.display_h - rect.h)
            dy = int(rng.integers(1, max(2, max_dy + 1)))
            src_y = rect.y + dy if rect.y2 + dy <= self.display_h else rect.y - dy
            src_y = min(max(src_y, 0), self.display_h - rect.h)
            src = Rect(rect.x, src_y, rect.w, rect.h)
            return PaintOp(COPY, rect, src=src, seed=seed)
        if kind is IMAGE:
            rect = self._place_rect(area, rng)
            return PaintOp(
                IMAGE,
                rect,
                seed=seed,
                uniform_fraction=cls.image_uniform_fraction,
            )
        raise WorkloadError(f"cannot synthesise op kind {kind!r}")

    # -- analytic helpers ------------------------------------------------------------
    def mean_area(self) -> float:
        """Expected update area (before the display-size cap)."""
        return self.archetype.expected_area()
