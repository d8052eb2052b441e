"""Unit and property tests for repro.geometry.circle."""

import math

import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point


class TestCircleBasics:
    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_contains_point(self):
        c = Circle(Point(0, 0), 2.0)
        assert c.contains_point(Point(1, 1))
        assert c.contains_point(Point(2, 0))
        assert not c.contains_point(Point(2.1, 0))

    def test_strict_containment_excludes_boundary(self):
        c = Circle(Point(0, 0), 2.0)
        assert not c.strictly_contains_point(Point(2, 0))
        assert c.strictly_contains_point(Point(1, 0))

    def test_area(self):
        assert Circle(Point(0, 0), 1.0).area == pytest.approx(math.pi)

    def test_bounding_box(self):
        box = Circle(Point(1, 2), 3.0).bounding_box()
        assert box.min_x == -2 and box.max_x == 4
        assert box.min_y == -1 and box.max_y == 5

    def test_point_at_angle(self):
        c = Circle(Point(0, 0), 2.0)
        assert c.point_at_angle(0.0).x == pytest.approx(2.0)
        p = c.point_at_angle(math.pi / 2)
        assert p.y == pytest.approx(2.0)
        assert p.x == pytest.approx(0.0, abs=1e-12)

    def test_through_point(self):
        c = Circle.through_point(Point(0, 0), Point(3, 4))
        assert c.radius == pytest.approx(5.0)


class TestContainsCircle:
    def test_nested(self):
        outer = Circle(Point(0, 0), 5.0)
        inner = Circle(Point(1, 0), 2.0)
        assert outer.contains_circle(inner)
        assert not inner.contains_circle(outer)

    def test_internal_tangency_counts(self):
        outer = Circle(Point(0, 0), 5.0)
        inner = Circle(Point(3, 0), 2.0)
        assert outer.contains_circle(inner)

    def test_overlap_not_contained(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(3, 0), 2.0)
        assert not a.contains_circle(b)

    def test_lemma_3_2_form(self):
        """contains_circle expresses Dist(Q,n_i) + delta <= Dist(P,n_k)."""
        p = Point(0, 0)  # peer query location
        q = Point(1, 0)  # querier
        certain = Circle(p, 4.0)  # Dist(P, n_k) = 4
        candidate_dist = 2.5  # Dist(Q, n_i)
        delta = p.distance_to(q)
        target = Circle(q, candidate_dist)
        assert (candidate_dist + delta <= 4.0) == certain.contains_circle(target)
