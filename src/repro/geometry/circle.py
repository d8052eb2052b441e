"""Circles and circle-circle relationships.

The paper's verification machinery is built almost entirely out of disks:

- a peer ``P`` with ``k`` cached nearest neighbors contributes a *certain
  circle* centered at its query location with radius ``Dist(P, n_k)``
  (every POI inside that circle is known to the peer);
- verifying a candidate POI for the querier ``Q`` asks whether the disk
  centered at ``Q`` through the candidate is covered by the union of
  certain circles (Lemma 3.8).

This module provides the disk predicates those tests need.  The exact
coverage test itself runs on plain floats in
:mod:`repro.geometry.coverage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point

__all__ = ["Circle"]


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

    @staticmethod
    def through_point(center: Point, boundary_point: Point) -> "Circle":
        """Circle centered at ``center`` passing through ``boundary_point``."""
        return Circle(center, center.distance_to(boundary_point))
