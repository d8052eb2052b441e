"""Axis-aligned bounding boxes (minimum bounding rectangles).

These are the MBRs stored in R-tree entries.  Besides the usual box
algebra (union, overlap, containment) the class provides the two
point-to-box metrics spatial NN search relies on:

- ``mindist`` -- the MINDIST metric of Roussopoulos et al.: the smallest
  possible distance from the query point to any object inside the box;
- ``maxdist`` -- the largest possible distance from the query point to a
  point of the box.  The paper's EINN algorithm (Section 3.3) prunes any
  MBR whose MAXDIST falls below the branch-expanding *lower* bound,
  because every object in such a box is already known to be certain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.geometry.point import Point

__all__ = ["BoundingBox"]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """A closed axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "invalid bounding box: "
                f"({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Point) -> "BoundingBox":
        """Degenerate box covering a single point."""
        return cls(point.x, point.y, point.x, point.y)

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "BoundingBox":
        """Smallest box covering all ``points`` (must be non-empty)."""
        iterator = iter(points)
        try:
            first = next(iterator)
        except StopIteration:
            raise ValueError("from_points() requires at least one point") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for point in iterator:
            min_x = min(min_x, point.x)
            max_x = max(max_x, point.x)
            min_y = min(min_y, point.y)
            max_y = max(max_y, point.y)
        return cls(min_x, min_y, max_x, max_y)

    # ------------------------------------------------------------------
    # box algebra
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box covering both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def overlap_area(self, other: "BoundingBox") -> float:
        """Area of the overlap with ``other`` (0.0 when disjoint)."""
        width = min(self.max_x, other.max_x) - max(self.min_x, other.min_x)
        height = min(self.max_y, other.max_y) - max(self.min_y, other.min_y)
        return 0.0 if width < 0.0 or height < 0.0 else width * height

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the closed boxes share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies entirely inside this box."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies inside or on the boundary."""
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    # ------------------------------------------------------------------
    # point-to-box metrics used by NN search
    # ------------------------------------------------------------------
    def mindist(self, point: Point) -> float:
        """MINDIST: distance from ``point`` to the closest point of the box."""
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return math.hypot(dx, dy)

    def maxdist(self, point: Point) -> float:
        """MAXDIST: distance from ``point`` to the farthest point of the box.

        When ``maxdist(q) <= r`` the whole box lies inside the disk of
        radius ``r`` around ``q`` -- this is the containment test behind
        EINN's downward pruning (Section 3.3).
        """
        dx = max(point.x - self.min_x, self.max_x - point.x)
        dy = max(point.y - self.min_y, self.max_y - point.y)
        return math.hypot(dx, dy)
