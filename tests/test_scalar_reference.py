"""Unit and property tests for the circle kernels of repro.testing.scalar_reference.

``scalar_disk_covered_by_disks`` composes two kernels: which arc of one
circle's boundary another disk covers, and where two circle boundaries
meet.  These tests pin both against the geometry they spell out.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.testing.scalar_reference import (
    _boundary_arc_covered_by,
    _boundary_intersections,
)

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
radius = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
circles = st.builds(Circle, st.builds(Point, coord, coord), radius)


class TestIntersections:
    def test_two_point_intersection(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(2, 0), 2.0)
        pts = _boundary_intersections(a, b)
        assert len(pts) == 2
        for p in pts:
            assert a.center.distance_to(p) == pytest.approx(2.0)
            assert b.center.distance_to(p) == pytest.approx(2.0)

    def test_tangent_single_point(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(2, 0), 1.0)
        pts = _boundary_intersections(a, b)
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(1.0)

    def test_disjoint_no_intersection(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(5, 0), 1.0)
        assert _boundary_intersections(a, b) == []

    def test_nested_no_intersection(self):
        a = Circle(Point(0, 0), 5.0)
        b = Circle(Point(0.5, 0), 1.0)
        assert _boundary_intersections(a, b) == []

    def test_coincident_returns_empty(self):
        a = Circle(Point(0, 0), 1.0)
        assert _boundary_intersections(a, a) == []

    @given(circles, circles)
    def test_intersections_lie_on_both_boundaries(self, a, b):
        for p in _boundary_intersections(a, b):
            assert a.center.distance_to(p) == pytest.approx(a.radius, rel=1e-6, abs=1e-6)
            assert b.center.distance_to(p) == pytest.approx(b.radius, rel=1e-6, abs=1e-6)


class TestArcCoverage:
    def test_full_coverage(self):
        small = Circle(Point(0, 0), 1.0)
        big = Circle(Point(0.5, 0), 5.0)
        cov = _boundary_arc_covered_by(small, big)
        assert cov.full and not cov.empty

    def test_no_coverage_disjoint(self):
        a = Circle(Point(0, 0), 1.0)
        b = Circle(Point(10, 0), 1.0)
        cov = _boundary_arc_covered_by(a, b)
        assert cov.empty and not cov.full

    def test_no_coverage_inner(self):
        a = Circle(Point(0, 0), 5.0)
        b = Circle(Point(0, 0), 1.0)
        cov = _boundary_arc_covered_by(a, b)
        assert cov.empty

    def test_partial_coverage_symmetric(self):
        a = Circle(Point(0, 0), 2.0)
        b = Circle(Point(2, 0), 2.0)
        cov = _boundary_arc_covered_by(a, b)
        assert not cov.full and not cov.empty
        assert cov.center == pytest.approx(0.0)
        # Intersection points at angle +-pi/3 on circle a.
        assert cov.half_width == pytest.approx(math.pi / 3)

    @given(circles, circles, st.floats(min_value=-math.pi, max_value=math.pi))
    def test_arc_membership_matches_pointwise(self, a, b, theta):
        """A boundary point is in the covered arc iff it is in the disk."""
        cov = _boundary_arc_covered_by(a, b)
        point = a.point_at_angle(theta)
        in_disk = b.contains_point(point)
        if cov.full:
            assert in_disk or a.center.distance_to(point) == pytest.approx(a.radius)
        elif cov.empty:
            # Allow boundary-grazing numerical slack.
            assert not b.strictly_contains_point(point, tolerance=1e-7)
        else:
            delta = abs(_angdiff(theta, cov.center))
            if delta < cov.half_width - 1e-6:
                assert b.contains_point(point, tolerance=1e-6)
            elif delta > cov.half_width + 1e-6:
                assert not b.contains_point(point, tolerance=-1e-6)


def _angdiff(a: float, b: float) -> float:
    """Signed smallest angular difference."""
    d = a - b
    while d > math.pi:
        d -= 2 * math.pi
    while d < -math.pi:
        d += 2 * math.pi
    return d
