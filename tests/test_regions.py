"""Unit tests for the rectangle algebra."""

import pytest

from repro.errors import GeometryError
from repro.framebuffer.regions import Rect, tile_rect, union_bounds


class TestRectBasics:
    def test_edges_and_area(self):
        r = Rect(2, 3, 10, 20)
        assert r.x2 == 12
        assert r.y2 == 23
        assert r.area == 200

    def test_empty_when_zero_width(self):
        assert Rect(5, 5, 0, 10).empty

    def test_empty_when_zero_height(self):
        assert Rect(5, 5, 10, 0).empty

    def test_nonempty(self):
        assert not Rect(0, 0, 1, 1).empty

    def test_negative_size_rejected(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, -1, 5)
        with pytest.raises(GeometryError):
            Rect(0, 0, 5, -1)

    def test_point_containment(self):
        r = Rect(2, 2, 4, 4)
        assert (2, 2) in r
        assert (5, 5) in r
        assert (6, 5) not in r
        assert (5, 6) not in r
        assert (1, 3) not in r

    def test_str_is_x_geometry_format(self):
        assert str(Rect(3, 4, 10, 20)) == "10x20+3+4"

    def test_rects_are_hashable_and_comparable(self):
        assert Rect(0, 0, 1, 1) == Rect(0, 0, 1, 1)
        assert len({Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)}) == 1


class TestIntersect:
    def test_overlapping(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 10, 10)
        assert a.intersect(b) == Rect(5, 5, 5, 5)

    def test_disjoint_is_empty(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(10, 10, 4, 4)
        assert a.intersect(b).empty

    def test_touching_edges_is_empty(self):
        a = Rect(0, 0, 4, 4)
        b = Rect(4, 0, 4, 4)
        assert a.intersect(b).empty
        assert not a.intersects(b)

    def test_contained(self):
        outer = Rect(0, 0, 10, 10)
        inner = Rect(2, 2, 3, 3)
        assert outer.intersect(inner) == inner

    def test_commutative(self):
        a = Rect(1, 2, 8, 6)
        b = Rect(4, 3, 9, 9)
        assert a.intersect(b) == b.intersect(a)

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(0, 0, 10, 10))
        assert outer.contains_rect(Rect(9, 9, 1, 1))
        assert not outer.contains_rect(Rect(9, 9, 2, 1))

    def test_contains_empty_rect_always(self):
        assert Rect(0, 0, 1, 1).contains_rect(Rect(50, 50, 0, 0))


class TestUnionBounds:
    def test_bounding_box(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(8, 8, 2, 2)
        assert union_bounds([a, b]) == Rect(0, 0, 10, 10)

    def test_with_empty(self):
        a = Rect(1, 1, 5, 5)
        assert union_bounds([a, Rect(0, 0, 0, 0)]) == a

    def test_sequence_helper(self):
        rects = [Rect(0, 0, 1, 1), Rect(5, 2, 2, 2), Rect(3, 7, 1, 1)]
        assert union_bounds(rects) == Rect(0, 0, 7, 8)

    def test_sequence_helper_all_empty_returns_none(self):
        assert union_bounds([Rect(0, 0, 0, 0)]) is None
        assert union_bounds([]) is None


class TestTransforms:
    def test_slices_for_numpy(self):
        rows, cols = Rect(2, 3, 4, 5).slices()
        assert rows == slice(3, 8)
        assert cols == slice(2, 6)


class TestClipAndTile:
    def test_clip_inside(self):
        bounds = Rect(0, 0, 100, 100)
        assert Rect(10, 10, 5, 5).intersect(bounds) == Rect(10, 10, 5, 5)

    def test_clip_partial(self):
        bounds = Rect(0, 0, 100, 100)
        assert Rect(95, 95, 10, 10).intersect(bounds) == Rect(95, 95, 5, 5)

    def test_clip_outside_is_empty(self):
        assert Rect(200, 200, 5, 5).intersect(Rect(0, 0, 100, 100)).empty

    def test_tile_exact(self):
        tiles = tile_rect(Rect(0, 0, 8, 8), 4, 4)
        assert len(tiles) == 4
        assert sum(t.area for t in tiles) == 64

    def test_tile_with_remainder(self):
        tiles = tile_rect(Rect(0, 0, 10, 7), 4, 4)
        assert sum(t.area for t in tiles) == 70
        widths = {t.w for t in tiles}
        assert widths == {4, 2}

    def test_tiles_cover_without_overlap(self):
        rect = Rect(3, 5, 13, 9)
        tiles = tile_rect(rect, 5, 4)
        assert sum(t.area for t in tiles) == rect.area
        for i, a in enumerate(tiles):
            assert rect.contains_rect(a)
            for b in tiles[i + 1 :]:
                assert not a.intersects(b)

    def test_tile_invalid_size(self):
        with pytest.raises(GeometryError):
            tile_rect(Rect(0, 0, 4, 4), 0, 4)
