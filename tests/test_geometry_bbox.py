"""Unit and property tests for repro.geometry.bbox."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coord, coord)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return BoundingBox(x1, y1, x2, y2)


class TestConstruction:
    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(1, 0, 0, 1)

    def test_from_point_is_degenerate(self):
        box = BoundingBox.from_point(Point(2, 3))
        assert box.area == 0.0
        assert box.contains_point(Point(2, 3))

    def test_from_points(self):
        box = BoundingBox.from_points([Point(0, 5), Point(3, -1), Point(1, 2)])
        assert box == BoundingBox(0, -1, 3, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])


class TestAlgebra:
    def test_area_and_center(self):
        box = BoundingBox(0, 0, 4, 3)
        assert box.area == 12.0
        assert box.center == Point(2.0, 1.5)

    def test_intersection_overlapping(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 1, 3, 3)
        assert a.overlap_area(b) == 1.0

    def test_intersection_disjoint_is_none(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(2, 2, 3, 3)
        assert a.overlap_area(b) == 0.0
        assert not a.intersects(b)

    def test_touching_boxes_intersect(self):
        a = BoundingBox(0, 0, 1, 1)
        b = BoundingBox(1, 0, 2, 1)
        assert a.intersects(b)
        assert a.overlap_area(b) == 0.0

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(1, 1, 2, 2)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)


class TestMetrics:
    def test_mindist_inside_is_zero(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.mindist(Point(1, 1)) == 0.0

    def test_mindist_outside(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.mindist(Point(5, 1)) == pytest.approx(3.0)
        assert box.mindist(Point(5, 6)) == pytest.approx(5.0)

    def test_maxdist_from_center(self):
        box = BoundingBox(0, 0, 2, 2)
        assert box.maxdist(Point(1, 1)) == pytest.approx(math.sqrt(2))

    def test_maxdist_outside(self):
        box = BoundingBox(0, 0, 1, 1)
        assert box.maxdist(Point(2, 0.5)) == pytest.approx(math.hypot(2, 0.5))



class TestMetricProperties:
    @given(boxes(), points)
    def test_mindist_le_maxdist(self, box, p):
        assert box.mindist(p) <= box.maxdist(p) + 1e-9

    @given(boxes(), points)
    def test_mindist_zero_iff_inside(self, box, p):
        if box.contains_point(p):
            assert box.mindist(p) == 0.0
        else:
            assert box.mindist(p) > 0.0

    @given(boxes(), points)
    def test_maxdist_bounds_every_corner(self, box, p):
        corners = [
            Point(box.min_x, box.min_y),
            Point(box.min_x, box.max_y),
            Point(box.max_x, box.min_y),
            Point(box.max_x, box.max_y),
        ]
        maxdist = box.maxdist(p)
        for corner in corners:
            assert p.distance_to(corner) <= maxdist + 1e-9

    @given(boxes(), boxes())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes(), boxes())
    def test_union_is_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(boxes(), boxes())
    def test_intersection_symmetry(self, a, b):
        assert a.intersects(b) == b.intersects(a)
        assert a.overlap_area(b) == pytest.approx(b.overlap_area(a))
