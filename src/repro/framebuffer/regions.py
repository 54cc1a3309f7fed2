"""Rectangle algebra for framebuffer regions.

SLIM display commands all operate on axis-aligned rectangles (Table 1 of
the paper), so the whole pipeline shares this one geometry type.  ``Rect``
uses the half-open convention: a rectangle covers columns ``x .. x+w-1``
and rows ``y .. y+h-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import GeometryError


@dataclass(order=True, unsafe_hash=True)
class Rect:
    """An axis-aligned rectangle with non-negative size.

    Immutable by convention, hashable by value.  Slotted and not
    ``frozen``: every display command carries one, and a frozen
    dataclass pays ``object.__setattr__`` per field on construction
    (three times the cost of a plain slotted ``__init__``).

    Attributes:
        x: Left edge (inclusive).
        y: Top edge (inclusive).
        w: Width in pixels.
        h: Height in pixels.
    """

    __slots__ = ("x", "y", "w", "h")

    x: int
    y: int
    w: int
    h: int

    # Written out, so the dataclass keeps it: the generated one would
    # call a ``__post_init__`` for the check, a second frame per rect.
    def __init__(self, x: int, y: int, w: int, h: int) -> None:
        if w < 0 or h < 0:
            raise GeometryError(f"negative rect size: {w}x{h}")
        self.x = x
        self.y = y
        self.w = w
        self.h = h

    # -- basic properties --------------------------------------------------
    @property
    def x2(self) -> int:
        """Right edge (exclusive)."""
        return self.x + self.w

    @property
    def y2(self) -> int:
        """Bottom edge (exclusive)."""
        return self.y + self.h

    @property
    def area(self) -> int:
        """Number of pixels covered."""
        return self.w * self.h

    @property
    def empty(self) -> bool:
        """True when the rectangle covers no pixels."""
        return self.w == 0 or self.h == 0

    def __contains__(self, point: Tuple[int, int]) -> bool:
        px, py = point
        return self.x <= px < self.x2 and self.y <= py < self.y2

    # -- set-like operations -----------------------------------------------
    def intersect(self, other: "Rect") -> "Rect":
        """Return the overlap of two rectangles (possibly empty).

        A non-empty rectangle lying inside ``other`` is its own overlap
        and comes back as itself, not as a new equal rectangle: that is
        every on-screen rectangle clipped to its display.
        """
        sx, sy, sx2, sy2 = self.x, self.y, self.x + self.w, self.y + self.h
        ox, oy, ox2, oy2 = other.x, other.y, other.x + other.w, other.y + other.h
        if sx < sx2 and sy < sy2 and ox <= sx and oy <= sy and sx2 <= ox2 and sy2 <= oy2:
            return self
        x = max(sx, ox)
        y = max(sy, oy)
        x2 = min(sx2, ox2)
        y2 = min(sy2, oy2)
        if x2 <= x or y2 <= y:
            return Rect(x, y, 0, 0)
        return Rect(x, y, x2 - x, y2 - y)

    def intersects(self, other: "Rect") -> bool:
        """True when the rectangles share at least one pixel."""
        return not self.intersect(other).empty

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely within this rectangle."""
        if other.empty:
            return True
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def slices(self) -> Tuple[slice, slice]:
        """Return ``(row_slice, col_slice)`` for numpy indexing."""
        return slice(self.y, self.y2), slice(self.x, self.x2)

    def __str__(self) -> str:
        return f"{self.w}x{self.h}+{self.x}+{self.y}"


def tile_rect(rect: Rect, tile_w: int, tile_h: int) -> List[Rect]:
    """Split ``rect`` into a grid of tiles at most ``tile_w`` x ``tile_h``.

    The final row/column of tiles may be smaller.  Used by the encoder to
    bound per-command payload sizes to the network MTU.
    """
    if tile_w <= 0 or tile_h <= 0:
        raise GeometryError(f"tile size must be positive: {tile_w}x{tile_h}")
    tiles: List[Rect] = []
    y = rect.y
    while y < rect.y2:
        h = min(tile_h, rect.y2 - y)
        x = rect.x
        while x < rect.x2:
            w = min(tile_w, rect.x2 - x)
            tiles.append(Rect(x, y, w, h))
            x += w
        y += h
    return tiles


def union_bounds(rects: Sequence[Rect]) -> Optional[Rect]:
    """Bounding box of a sequence of rectangles, or None when empty.

    One pass and one new ``Rect``, not one per rectangle folded in: a
    framebuffer nobody drains collapses its 1 024 damage rectangles
    through here.
    """
    active = [rect for rect in rects if not rect.empty]
    if not active:
        return None
    x = min(rect.x for rect in active)
    y = min(rect.y for rect in active)
    x2 = max(rect.x2 for rect in active)
    y2 = max(rect.y2 for rect in active)
    return Rect(x, y, x2 - x, y2 - y)
