"""Unit and property tests for repro.geometry.polygon."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, segment_intersections


def square(size=1.0, origin=Point(0, 0)):
    return Polygon(
        [
            origin,
            Point(origin.x + size, origin.y),
            Point(origin.x + size, origin.y + size),
            Point(origin.x, origin.y + size),
        ]
    )


class TestConstruction:
    def test_too_few_vertices_raises(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1)])

    def test_degenerate_collinear_raises(self):
        with pytest.raises(ValueError):
            Polygon([Point(0, 0), Point(1, 1), Point(2, 2)])

    def test_winding_normalized_to_ccw(self):
        cw = Polygon([Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)])
        ccw = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
        assert cw.area > 0
        assert ccw.area > 0
        assert cw.area == pytest.approx(ccw.area)

    def test_len(self):
        assert len(square()) == 4


class TestAreaPerimeter:
    def test_unit_square(self):
        assert square().area == pytest.approx(1.0)

    def test_triangle(self):
        tri = Polygon([Point(0, 0), Point(4, 0), Point(0, 3)])
        assert tri.area == pytest.approx(6.0)


class TestContainsPoint:
    def test_interior(self):
        assert square().contains_point(Point(0.5, 0.5))

    def test_exterior(self):
        assert not square().contains_point(Point(1.5, 0.5))

    def test_boundary_edge(self):
        assert square().contains_point(Point(0.5, 0.0))

    def test_boundary_vertex(self):
        assert square().contains_point(Point(0.0, 0.0))

    def test_concave_pocket(self):
        # L-shaped polygon: pocket at upper right is outside.
        ell = Polygon(
            [
                Point(0, 0),
                Point(2, 0),
                Point(2, 1),
                Point(1, 1),
                Point(1, 2),
                Point(0, 2),
            ]
        )
        assert ell.contains_point(Point(0.5, 1.5))
        assert ell.contains_point(Point(1.5, 0.5))
        assert not ell.contains_point(Point(1.5, 1.5))


class TestPolygonization:
    def test_inscribed_vertices_on_circle(self):
        circle = Circle(Point(1, 2), 3.0)
        poly = Polygon.inscribed_in_circle(circle, sides=16)
        assert len(poly) == 16
        for v in poly.vertices:
            assert circle.center.distance_to(v) == pytest.approx(3.0)

    def test_inscribed_is_subset_of_disk(self):
        circle = Circle(Point(0, 0), 2.0)
        poly = Polygon.inscribed_in_circle(circle, sides=12)
        assert poly.area < circle.area
        # Sample polygon interior points: all inside the disk.
        for v in poly.vertices:
            mid = Point(v.x * 0.7, v.y * 0.7)
            assert circle.contains_point(mid)

    def test_circumscribed_is_superset_of_disk(self):
        circle = Circle(Point(0, 0), 2.0)
        poly = Polygon.circumscribed_around_circle(circle, sides=12)
        assert poly.area > circle.area
        # Every boundary point of the circle is inside the polygon.
        for i in range(36):
            theta = 2 * math.pi * i / 36
            assert poly.contains_point(circle.point_at_angle(theta), tolerance=1e-9)

    def test_polygon_area_converges_to_circle(self):
        circle = Circle(Point(0, 0), 1.0)
        coarse = Polygon.inscribed_in_circle(circle, sides=8).area
        fine = Polygon.inscribed_in_circle(circle, sides=64).area
        assert coarse < fine < circle.area

    def test_bad_sides_raises(self):
        with pytest.raises(ValueError):
            Polygon.inscribed_in_circle(Circle(Point(0, 0), 1.0), sides=2)

    def test_zero_radius_raises(self):
        with pytest.raises(ValueError):
            Polygon.inscribed_in_circle(Circle(Point(0, 0), 0.0))

    @given(st.integers(min_value=3, max_value=64))
    def test_inscribed_area_formula(self, sides):
        circle = Circle(Point(0, 0), 1.0)
        poly = Polygon.inscribed_in_circle(circle, sides=sides)
        expected = 0.5 * sides * math.sin(2 * math.pi / sides)
        assert poly.area == pytest.approx(expected)


class TestContainsPolygon:
    def test_nested_squares(self):
        outer = square(4.0)
        inner = square(1.0, Point(1, 1))
        assert outer.contains_polygon(inner)
        assert not inner.contains_polygon(outer)

    def test_overlapping_not_contained(self):
        a = square(2.0)
        b = square(2.0, Point(1, 1))
        assert not a.contains_polygon(b)

    def test_concave_dip_detected(self):
        # U-shaped container: a horizontal bar spanning the opening has all
        # vertices inside the arms but dips through the notch.
        u_shape = Polygon(
            [
                Point(0, 0),
                Point(3, 0),
                Point(3, 3),
                Point(2, 3),
                Point(2, 1),
                Point(1, 1),
                Point(1, 3),
                Point(0, 3),
            ]
        )
        bar = Polygon(
            [
                Point(0.2, 2.0),
                Point(2.8, 2.0),
                Point(2.8, 2.5),
                Point(0.2, 2.5),
            ]
        )
        assert all(u_shape.contains_point(v) for v in bar.vertices)
        assert not u_shape.contains_polygon(bar)


class TestSegmentIntersections:
    def test_proper_crossing(self):
        pts = segment_intersections(
            (Point(0, 0), Point(2, 2)), (Point(0, 2), Point(2, 0))
        )
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(1.0)
        assert pts[0].y == pytest.approx(1.0)

    def test_no_crossing(self):
        pts = segment_intersections(
            (Point(0, 0), Point(1, 0)), (Point(0, 1), Point(1, 1))
        )
        assert pts == []

    def test_endpoint_touch(self):
        pts = segment_intersections(
            (Point(0, 0), Point(1, 0)), (Point(1, 0), Point(2, 5))
        )
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(1.0)

    def test_collinear_overlap(self):
        pts = segment_intersections(
            (Point(0, 0), Point(3, 0)), (Point(1, 0), Point(5, 0))
        )
        xs = sorted(p.x for p in pts)
        assert xs == pytest.approx([1.0, 3.0])

    def test_collinear_disjoint(self):
        pts = segment_intersections(
            (Point(0, 0), Point(1, 0)), (Point(2, 0), Point(3, 0))
        )
        assert pts == []

    def test_parallel_non_collinear(self):
        pts = segment_intersections(
            (Point(0, 0), Point(1, 0)), (Point(0, 0.5), Point(1, 0.5))
        )
        assert pts == []
