"""Circles and circle-circle relationships.

The paper's verification machinery is built almost entirely out of disks:

- a peer ``P`` with ``k`` cached nearest neighbors contributes a *certain
  circle* centered at its query location with radius ``Dist(P, n_k)``
  (every POI inside that circle is known to the peer);
- verifying a candidate POI for the querier ``Q`` asks whether the disk
  centered at ``Q`` through the candidate is covered by the union of
  certain circles (Lemma 3.8).

This module provides the disk arithmetic those tests need, including the
two geometric kernels of the exact coverage test: boundary-arc coverage
(what angular arc of circle A is inside disk B) and boundary intersection
points of two circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point

__all__ = ["Circle", "ArcCoverage"]


@dataclass(frozen=True, slots=True)
class ArcCoverage:
    """The arc of a circle's boundary covered by another disk.

    ``full`` means the entire boundary is covered; otherwise the covered
    arc is centered at angle ``center`` (radians, measured at the circle's
    center) with angular half-width ``half_width``.  ``empty`` means no
    boundary point is covered.
    """

    full: bool
    empty: bool
    center: float = 0.0
    half_width: float = 0.0


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle (and its closed disk) with center ``center`` and ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    # ------------------------------------------------------------------
    # containment
    # ------------------------------------------------------------------
    def contains_point(self, point: Point, tolerance: float = 0.0) -> bool:
        """True when ``point`` is in the closed disk (within ``tolerance``)."""
        return self.center.distance_to(point) <= self.radius + tolerance

    def strictly_contains_point(self, point: Point, tolerance: float = 0.0) -> bool:
        """True when ``point`` is in the open disk by at least ``tolerance``."""
        return self.center.distance_to(point) < self.radius - tolerance

    def contains_circle(self, other: "Circle", tolerance: float = 0.0) -> bool:
        """True when ``other``'s disk lies entirely inside this disk.

        This is exactly the geometric content of Lemma 3.2: the disk around
        ``Q`` through candidate ``n_i`` is inside the peer's certain circle
        iff ``Dist(Q, n_i) + Dist(Q, P) <= Dist(P, n_k)``.
        """
        separation = self.center.distance_to(other.center)
        return separation + other.radius <= self.radius + tolerance

    def intersects_circle(self, other: "Circle") -> bool:
        """True when the two closed disks share at least one point."""
        return self.center.distance_to(other.center) <= self.radius + other.radius

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    def bounding_box(self) -> BoundingBox:
        """Tight axis-aligned box around the circle."""
        return BoundingBox(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def point_at_angle(self, theta: float) -> Point:
        """Boundary point at angle ``theta`` (radians)."""
        return Point(
            self.center.x + self.radius * math.cos(theta),
            self.center.y + self.radius * math.sin(theta),
        )

    # ------------------------------------------------------------------
    # geometric kernels for the coverage test
    # ------------------------------------------------------------------
    def boundary_arc_covered_by(self, other: "Circle") -> ArcCoverage:
        """Which arc of *this* circle's boundary lies inside ``other``'s disk.

        Derivation: a boundary point of this circle at angle ``theta`` is in
        the other disk iff its distance to ``other.center`` is at most
        ``other.radius``.  Writing ``d`` for the center separation and
        ``r`` for this circle's radius, the law of cosines gives the limit
        angle ``phi = acos((d^2 + r^2 - other.radius^2) / (2 d r))`` around
        the direction from this center to the other center.
        """
        d = self.center.distance_to(other.center)
        r = self.radius
        if d + r <= other.radius:
            # This whole circle (boundary included) lies inside the other disk.
            return ArcCoverage(full=True, empty=False)
        if d > r + other.radius or d + other.radius < r:
            # Disks disjoint, or the other disk is strictly inside this
            # circle without reaching the boundary: no boundary coverage.
            return ArcCoverage(full=False, empty=True)
        # Exact zero guard for the concentric case: d divides the law-of-
        # cosines expression below, so only a literal zero is degenerate.
        if d == 0.0:  # repro: noqa(RPR001)
            # Concentric with other.radius < r (the full-coverage case
            # returned above): boundary not covered.
            return ArcCoverage(full=False, empty=True)
        cos_phi = (d * d + r * r - other.radius * other.radius) / (2.0 * d * r)
        cos_phi = max(-1.0, min(1.0, cos_phi))
        half_width = math.acos(cos_phi)
        center_angle = self.center.angle_to(other.center)
        return ArcCoverage(full=False, empty=False, center=center_angle, half_width=half_width)

    def boundary_intersections(self, other: "Circle") -> List[Point]:
        """Intersection points of the two circle *boundaries* (0, 1 or 2).

        Tangency returns a single point; coincident circles return an empty
        list (infinitely many intersections are useless for the coverage
        test and coincident certain circles never add information).
        """
        d = self.center.distance_to(other.center)
        r0, r1 = self.radius, other.radius
        # Exact zero guard: d divides the chord computation below.
        if d == 0.0:  # repro: noqa(RPR001)
            return []
        if d > r0 + r1 or d < abs(r0 - r1):
            return []
        # Distance from self.center to the chord midpoint along the center line.
        # ``r0*r0 - r1*r1`` is taken as ``(r0 - r1) * (r0 + r1)``: for nearly
        # equal radii the difference of squares cancels to rounding noise,
        # which a tiny ``d`` (near-coincident circles) would then blow up.
        a = (d * d + (r0 - r1) * (r0 + r1)) / (2.0 * d)
        h_sq = r0 * r0 - a * a
        if h_sq < 0.0:
            # Numerical noise around tangency.
            h_sq = 0.0
        h = math.sqrt(h_sq)
        ux = (other.center.x - self.center.x) / d
        uy = (other.center.y - self.center.y) / d
        mid = Point(self.center.x + a * ux, self.center.y + a * uy)
        # Exact tangency: h_sq was clamped to literal 0.0 above, so the
        # single-point case is an exact comparison by construction.
        if h == 0.0:  # repro: noqa(RPR001)
            return [mid]
        return [
            Point(mid.x - h * uy, mid.y + h * ux),
            Point(mid.x + h * uy, mid.y - h * ux),
        ]

    def overlap_area(self, other: "Circle") -> float:
        """Area of the intersection of the two disks (lens area)."""
        d = self.center.distance_to(other.center)
        r0, r1 = self.radius, other.radius
        if d >= r0 + r1:
            return 0.0
        # Subnormal center distances can underflow the segment formula's
        # ``2*d*r`` denominators to exactly 0.0 even though ``d > 0``; at
        # float precision the disks are concentric, so the lens is the
        # smaller disk.
        if (
            d <= abs(r0 - r1)
            or 2.0 * d * r0 == 0.0  # repro: noqa(RPR001)
            or 2.0 * d * r1 == 0.0  # repro: noqa(RPR001)
        ):
            smaller = min(r0, r1)
            return math.pi * smaller * smaller
        # Standard circular-segment decomposition.
        alpha = math.acos((d * d + r0 * r0 - r1 * r1) / (2.0 * d * r0))
        beta = math.acos((d * d + r1 * r1 - r0 * r0) / (2.0 * d * r1))
        return (
            r0 * r0 * (alpha - math.sin(2.0 * alpha) / 2.0)
            + r1 * r1 * (beta - math.sin(2.0 * beta) / 2.0)
        )

    @staticmethod
    def through_point(center: Point, boundary_point: Point) -> "Circle":
        """Circle centered at ``center`` passing through ``boundary_point``."""
        return Circle(center, center.distance_to(boundary_point))
