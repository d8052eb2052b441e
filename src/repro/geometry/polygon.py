"""Simple polygons and circle polygonization.

The paper's ``kNN_multiple`` implementation (Section 3.2.2 / 4.1)
approximates each peer's certain circle with a polygon and merges the
polygons into a certain region via the MapOverlay algorithm.  We provide
the polygon substrate for that path:

- :class:`Polygon` -- a simple polygon with area, orientation,
  point-containment (boundary counts as inside) and edge iteration;
- :func:`Polygon.inscribed_in_circle` -- the *inscribed* regular polygon of
  a circle.  Inscribed (not circumscribed) polygons are what a sound
  approximation of a certain region needs: they under-approximate the
  region, so a candidate certified against them is still a true NN;
- :func:`Polygon.circumscribed_around_circle` -- the circumscribed regular
  polygon, used to *over*-approximate the query disk being verified (again
  the conservative direction);
- :func:`segment_intersections` -- the segment-overlay kernel used by the
  polygon coverage test in :mod:`repro.geometry.coverage`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

from repro.geometry.bbox import BoundingBox
from repro.geometry.circle import Circle
from repro.geometry.point import Point

__all__ = ["Polygon", "segment_intersections", "Segment"]

Segment = Tuple[Point, Point]


def _cross(o: Point, a: Point, b: Point) -> float:
    """Cross product of vectors ``o->a`` and ``o->b``."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _on_segment(p: Point, a: Point, b: Point, tolerance: float = 1e-12) -> bool:
    """True when ``p`` lies on the closed segment ``a-b`` (collinear assumed)."""
    return (
        min(a.x, b.x) - tolerance <= p.x <= max(a.x, b.x) + tolerance
        and min(a.y, b.y) - tolerance <= p.y <= max(a.y, b.y) + tolerance
    )


def segment_intersections(
    seg_a: Segment, seg_b: Segment, tolerance: float = 1e-12
) -> List[Point]:
    """Intersection points of two closed segments (0, 1, or 2 for overlap).

    Collinear overlapping segments return the two endpoints of the shared
    sub-segment, which is what an overlay needs to split edges at.
    """
    p1, p2 = seg_a
    p3, p4 = seg_b
    d1x, d1y = p2.x - p1.x, p2.y - p1.y
    d2x, d2y = p4.x - p3.x, p4.y - p3.y
    denom = d1x * d2y - d1y * d2x
    if abs(denom) > tolerance:
        # Proper (non-parallel) case: solve for parameters t, u.
        t = ((p3.x - p1.x) * d2y - (p3.y - p1.y) * d2x) / denom
        u = ((p3.x - p1.x) * d1y - (p3.y - p1.y) * d1x) / denom
        if -tolerance <= t <= 1.0 + tolerance and -tolerance <= u <= 1.0 + tolerance:
            return [Point(p1.x + t * d1x, p1.y + t * d1y)]
        return []
    # Parallel: only collinear segments can intersect.
    if abs(_cross(p1, p2, p3)) > tolerance:
        return []
    # Project onto the dominant axis to find the shared range.
    points = []
    for candidate in (p3, p4):
        if _on_segment(candidate, p1, p2, tolerance):
            points.append(candidate)
    for candidate in (p1, p2):
        if _on_segment(candidate, p3, p4, tolerance):
            points.append(candidate)
    # Deduplicate while keeping order.
    unique: List[Point] = []
    for point in points:
        if not any(
            abs(point.x - seen.x) <= tolerance and abs(point.y - seen.y) <= tolerance
            for seen in unique
        ):
            unique.append(point)
    return unique[:2]


class Polygon:
    """A simple polygon defined by its vertices in order.

    Vertices are stored counter-clockwise regardless of the input winding.
    The polygon is treated as the *closed* region (boundary included) --
    coverage tests need closed-region semantics.
    """

    __slots__ = ("_vertices", "_bbox")

    def __init__(self, vertices: Sequence[Point]) -> None:
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        signed = _signed_area(vertices)
        if signed == 0.0:
            raise ValueError("degenerate polygon with zero area")
        ordered = list(vertices) if signed > 0.0 else list(reversed(vertices))
        self._vertices: Tuple[Point, ...] = tuple(ordered)
        self._bbox = BoundingBox.from_points(self._vertices)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def inscribed_in_circle(cls, circle: Circle, sides: int = 32, phase: float = 0.0) -> "Polygon":
        """Regular ``sides``-gon whose vertices lie on ``circle``.

        The inscribed polygon is a subset of the disk, so using it as a
        certain-region piece keeps multi-peer verification sound.
        """
        if sides < 3:
            raise ValueError("sides must be >= 3")
        if circle.radius <= 0.0:
            raise ValueError("cannot polygonize a zero-radius circle")
        step = 2.0 * math.pi / sides
        return cls([circle.point_at_angle(phase + i * step) for i in range(sides)])

    @classmethod
    def circumscribed_around_circle(
        cls, circle: Circle, sides: int = 32, phase: float = 0.0
    ) -> "Polygon":
        """Regular ``sides``-gon tangent to ``circle`` (a superset of the disk).

        Used to over-approximate the query disk when testing it against an
        under-approximated certain region: if the superset is covered, the
        disk certainly is.
        """
        if sides < 3:
            raise ValueError("sides must be >= 3")
        if circle.radius <= 0.0:
            raise ValueError("cannot polygonize a zero-radius circle")
        scaled = Circle(circle.center, circle.radius / math.cos(math.pi / sides))
        return cls.inscribed_in_circle(scaled, sides=sides, phase=phase)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Point, ...]:
        return self._vertices

    @property
    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def area(self) -> float:
        return _signed_area(self._vertices)

    def edges(self) -> Iterator[Segment]:
        """Yield the polygon's edges as ``(start, end)`` pairs, CCW order."""
        count = len(self._vertices)
        for i in range(count):
            yield (self._vertices[i], self._vertices[(i + 1) % count])

    # ------------------------------------------------------------------
    # containment
    # ------------------------------------------------------------------
    def contains_point(self, point: Point, tolerance: float = 1e-12) -> bool:
        """Closed containment test (boundary points are inside).

        Uses the winding-free crossing-number algorithm with an explicit
        on-boundary check first so that boundary points are never subject
        to ray-casting edge cases.
        """
        if not self._bbox.contains_point(point):
            # Fast reject, with a tolerance-sized grace band.
            expanded = BoundingBox(
                self._bbox.min_x - tolerance,
                self._bbox.min_y - tolerance,
                self._bbox.max_x + tolerance,
                self._bbox.max_y + tolerance,
            )
            if not expanded.contains_point(point):
                return False
        for a, b in self.edges():
            if abs(_cross(a, b, point)) <= tolerance * max(
                1.0, a.distance_to(b)
            ) and _on_segment(point, a, b, tolerance):
                return True
        inside = False
        x, y = point.x, point.y
        for a, b in self.edges():
            # Half-open rule on y avoids double counting at vertices.
            if (a.y > y) != (b.y > y):
                x_cross = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
                if x < x_cross:
                    inside = not inside
        return inside

    def contains_polygon(self, other: "Polygon", tolerance: float = 1e-12) -> bool:
        """True when every vertex of ``other`` is inside and no edges cross.

        For convex ``self`` vertex containment alone suffices; the edge
        check makes the test correct for non-convex polygons too.
        """
        if not all(self.contains_point(v, tolerance) for v in other.vertices):
            return False
        # For non-convex ``self`` an edge of ``other`` may dip outside even
        # with both endpoints inside.  Split each edge of ``other`` at its
        # crossings with our boundary and require every piece midpoint to be
        # inside: containment of a segment changes only at such crossings.
        for a, b in other.edges():
            cut_params = [0.0, 1.0]
            for edge in self.edges():
                for crossing in segment_intersections((a, b), edge, tolerance):
                    length_sq = a.squared_distance_to(b)
                    if length_sq > 0.0:
                        t = (
                            (crossing.x - a.x) * (b.x - a.x)
                            + (crossing.y - a.y) * (b.y - a.y)
                        ) / length_sq
                        cut_params.append(min(1.0, max(0.0, t)))
            cut_params.sort()
            for t0, t1 in zip(cut_params, cut_params[1:]):
                if t1 - t0 <= tolerance:
                    continue
                t_mid = (t0 + t1) / 2.0
                midpoint = Point(a.x + t_mid * (b.x - a.x), a.y + t_mid * (b.y - a.y))
                if not self.contains_point(midpoint, tolerance):
                    return False
        return True

    def __repr__(self) -> str:
        return f"Polygon({len(self._vertices)} vertices, area={self.area:.4g})"


def _signed_area(vertices: Sequence[Point]) -> float:
    """Shoelace signed area; positive for counter-clockwise winding."""
    total = 0.0
    count = len(vertices)
    for i in range(count):
        a = vertices[i]
        b = vertices[(i + 1) % count]
        total += a.x * b.y - b.x * a.y
    return total / 2.0
