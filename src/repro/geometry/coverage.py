"""Certain-region coverage tests for multi-peer verification.

Lemma 3.8 of the paper reduces multi-peer verification to a coverage
question: the certain region ``R_c`` is the union of the peers' certain
circles, and a candidate POI ``n_i`` is a certain NN of ``Q`` iff the disk
``C_ni`` (center ``Q``, radius ``Dist(Q, n_i)``) is fully covered by
``R_c``.

Two interchangeable backends answer that question:

``CoverageMethod.EXACT``
    An exact test on the union of disks.  In general position a disk ``D``
    is contained in a union of disks ``U = D_1 | ... | D_m`` iff

    1. every point of the boundary circle of ``D`` lies in some ``D_i``
       (checked exactly with angular-interval union), and
    2. every intersection point of two covering circles that lies strictly
       inside ``D`` lies strictly inside some covering disk.

    Sketch: if ``D`` is not covered, the uncovered set is open and some
    component either touches the boundary of ``D`` (violating 1) or is
    bounded entirely by covering-circle arcs, in which case its corners
    are circle-circle intersection points strictly inside ``D`` that are
    on the boundary of ``U`` -- i.e. not strictly inside any disk
    (violating 2).  Conversely if 1 and 2 hold every candidate hole has
    nowhere to put a corner or a boundary touch.  Degeneracies (tangent
    circles, triple points) are absorbed conservatively by ``tolerance``:
    a borderline configuration is declared *not covered*, which keeps
    verification sound (a certain answer is never wrong).

``CoverageMethod.POLYGON``
    The paper's approach: each covering circle is replaced by an inscribed
    regular polygon (an under-approximation, so soundness is preserved)
    and the query disk by a circumscribed polygon (an over-approximation,
    same direction).  Coverage of the polygonal target by the polygonal
    union is then decided with an overlay-style test: target edge
    fragments between crossings must have covered midpoints, and every
    arrangement vertex (edge-edge crossing or covering-polygon vertex)
    strictly inside the target must lie strictly inside some covering
    polygon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.geometry.circle import Circle
from repro.geometry.intervals import AngularIntervalSet
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon, segment_intersections
from repro.geometry.tolerance import near_zero

__all__ = [
    "CoverageMethod",
    "CertainRegion",
    "disk_covered_by_disks",
    "disk_covered_by_polygons",
]


class CoverageMethod(enum.Enum):
    """Backend used to decide certain-region coverage."""

    EXACT = "exact"
    POLYGON = "polygon"


def disk_covered_by_disks(
    target: Circle,
    cover: Sequence[Circle],
    tolerance: float = 1e-9,
) -> bool:
    """Exact test: is the closed disk ``target`` inside the union of ``cover``?

    The test is sound under floating point: borderline configurations
    (within ``tolerance``) are reported as not covered.  It runs the
    :class:`~repro.geometry.circle.Circle` predicates on plain floats,
    with the same IEEE operations in the same order, so every verdict is
    that of composing those methods
    (:func:`repro.testing.scalar_reference.scalar_disk_covered_by_disks`).
    """
    tx = target.center.x
    ty = target.center.y
    tr = target.radius
    if tr < 0.0:
        raise ValueError("target radius must be non-negative")
    hypot = math.hypot
    # One row (x, y, radius, separation) per disk meeting the target;
    # ``hypot(a - b, c - d)`` equals ``hypot(b - a, d - c)`` bit for bit,
    # so one separation serves both directions.  The raw comparisons
    # (noqa RPR011) are Circle's exact predicates and only sort disks
    # into cases; every certification is tolerance-routed.
    relevant: List[Tuple[float, float, float, float]] = []
    for disk in cover:
        center = disk.center
        cx, cy, r = center.x, center.y, disk.radius
        separation = hypot(cx - tx, cy - ty)
        # Circle.intersects_circle, the relevance filter.
        if separation <= r + tr:  # repro: noqa(RPR011)
            # Fast path -- also the exact semantics of single-peer
            # verification: Circle.contains_circle at -tolerance.
            if separation + tr <= r + -tolerance:
                return True
            relevant.append((cx, cy, r, separation))
    if not relevant:
        return False
    if near_zero(tr, tolerance):
        # A disk no larger than the tolerance degenerates to its center.
        return any(
            separation < r - tolerance for _, _, r, separation in relevant
        )

    # Condition 1: the target boundary must be fully covered by arcs
    # (Circle.boundary_arc_covered_by of the target against each disk).
    arcs = AngularIntervalSet(tolerance=1e-12)
    angular_tol = tolerance / max(tr, tolerance)
    for cx, cy, r, separation in relevant:
        if separation + tr <= r:  # repro: noqa(RPR011)
            # Full coverage.  The strict fast path above already failed
            # for this disk, so the containment is borderline: the target
            # is internally tangent (within ``tolerance``).  The tangency
            # point -- the target boundary point opposite the covering
            # center -- is not robustly covered, so leave a tolerance gap
            # there instead of certifying the full circle.  (Found by
            # repro-difftest: an uncached POI tied exactly at a peer's
            # k-th distance sits on that tangency point.)
            if near_zero(separation, tolerance):
                # Borderline concentric ring: no direction is robust.
                continue
            half = math.pi - angular_tol
        else:
            # Empty coverage: the disk is strictly inside the target
            # (disjoint ones were filtered out), or concentric; the exact
            # zero guards the law-of-cosines division.
            if (
                separation + r < tr  # repro: noqa(RPR011)
                or separation == 0.0  # repro: noqa(RPR001, RPR011)
            ):
                continue
            cos_phi = (separation * separation + tr * tr - r * r) / (
                2.0 * separation * tr
            )
            cos_phi = max(-1.0, min(1.0, cos_phi))
            # Shrink each arc by an angular tolerance so borderline
            # touching arcs do not spuriously certify coverage.
            half = math.acos(cos_phi) - angular_tol
        if half > 0.0:
            arcs.add_centered(math.atan2(cy - ty, cx - tx), half)
    if not arcs.covers_full_circle():
        return False

    # Condition 2: circle-circle intersection vertices strictly inside the
    # target must be strictly inside some covering disk.
    tr_less_tolerance = tr - tolerance
    containers = [(cx, cy, r - tolerance) for cx, cy, r, _ in relevant]
    sqrt = math.sqrt
    for i, (xi, yi, ri, _) in enumerate(relevant):
        ri_sq = ri * ri
        for xj, yj, rj, _ in relevant[i + 1 :]:
            # Circle.boundary_intersections of disk i with disk j.
            d = hypot(xi - xj, yi - yj)
            # Exact zero guard: d divides the chord computation below.
            if d == 0.0:  # repro: noqa(RPR001, RPR011)
                continue
            if d > ri + rj or d < abs(ri - rj):  # repro: noqa(RPR011)
                continue
            # ``ri*ri - rj*rj`` is taken as ``(ri - rj) * (ri + rj)``: for
            # nearly equal radii the difference of squares cancels to
            # rounding noise, which a tiny ``d`` would then blow up.
            a = (d * d + (ri - rj) * (ri + rj)) / (2.0 * d)
            h_sq = ri_sq - a * a
            if h_sq < 0.0:
                # Numerical noise around tangency.
                h_sq = 0.0
            h = sqrt(h_sq)
            ux = (xj - xi) / d
            uy = (yj - yi) / d
            mx = xi + a * ux
            my = yi + a * uy
            # The two vertices in turn.  At exact tangency (h_sq clamped
            # to literal 0.0) the first is the chord midpoint, up to the
            # sign of a zero that hypot ignores, and there is no second.
            vx = mx - h * uy
            vy = my + h * ux
            if hypot(tx - vx, ty - vy) < tr_less_tolerance:
                for cx, cy, r_less_tolerance in containers:
                    if hypot(cx - vx, cy - vy) < r_less_tolerance:
                        break
                else:
                    return False
            if h == 0.0:  # repro: noqa(RPR001, RPR011)
                continue
            vx = mx + h * uy
            vy = my - h * ux
            if hypot(tx - vx, ty - vy) < tr_less_tolerance:
                for cx, cy, r_less_tolerance in containers:
                    if hypot(cx - vx, cy - vy) < r_less_tolerance:
                        break
                else:
                    return False
    return True


def disk_covered_by_polygons(
    target: Circle,
    cover_polygons: Sequence[Polygon],
    sides: int = 32,
    tolerance: float = 1e-9,
) -> bool:
    """Paper-style overlay test of a disk against a union of polygons.

    ``target`` is over-approximated by its circumscribed regular
    ``sides``-gon; the polygons (normally inscribed approximations of the
    peers' certain circles) must cover that polygon entirely.
    """
    if not cover_polygons:
        return False
    if near_zero(target.radius, tolerance):
        # A disk no larger than the tolerance degenerates to its center.
        return any(poly.contains_point(target.center) for poly in cover_polygons)
    target_polygon = Polygon.circumscribed_around_circle(target, sides=sides)
    return polygon_covered_by_polygons(target_polygon, cover_polygons, tolerance)


def polygon_covered_by_polygons(
    target: Polygon,
    cover: Sequence[Polygon],
    tolerance: float = 1e-9,
) -> bool:
    """Overlay coverage test: is ``target`` inside the union of ``cover``?

    Sound and complete for polygons in general position; degeneracies are
    resolved conservatively towards "not covered".
    """
    relevant = [
        poly for poly in cover if poly.bounding_box.intersects(target.bounding_box)
    ]
    if not relevant:
        return False
    for poly in relevant:
        if poly.contains_polygon(target, tolerance):
            return True

    cover_edges = [edge for poly in relevant for edge in poly.edges()]

    # Condition 1: every fragment of the target boundary is covered.  A
    # fragment's coverage status is constant between crossings with cover
    # edges, so testing fragment midpoints is exact.
    for a, b in target.edges():
        if not _segment_covered(a, b, relevant, cover_edges, tolerance):
            return False

    # Condition 2a: edge-edge crossings strictly inside the target must be
    # strictly interior to the union.
    edge_count = len(cover_edges)
    for i in range(edge_count):
        for j in range(i + 1, edge_count):
            for vertex in segment_intersections(cover_edges[i], cover_edges[j]):
                if not _strictly_inside_polygon(target, vertex, tolerance):
                    continue
                if not _strictly_inside_union(relevant, vertex, tolerance):
                    return False

    # Condition 2b: covering-polygon vertices strictly inside the target
    # are potential hole corners too (the exterior wedge at a convex vertex
    # is uncovered unless another polygon strictly contains the vertex).
    for poly in relevant:
        for vertex in poly.vertices:
            if not _strictly_inside_polygon(target, vertex, tolerance):
                continue
            others = [
                other for other in relevant if other is not poly
            ]
            if not _strictly_inside_union(others, vertex, tolerance):
                return False
    return True


def _segment_covered(
    a: Point,
    b: Point,
    polygons: Sequence[Polygon],
    cover_edges: Sequence[Tuple[Point, Point]],
    tolerance: float,
) -> bool:
    """True when the closed segment ``a-b`` lies inside the polygon union."""
    length_sq = a.squared_distance_to(b)
    # Exact zero guard: any non-zero squared length is safely divisible.
    if length_sq == 0.0:  # repro: noqa(RPR001, RPR011)
        return any(poly.contains_point(a, tolerance) for poly in polygons)
    cut_params: List[float] = [0.0, 1.0]
    for edge in cover_edges:
        for crossing in segment_intersections((a, b), edge):
            t = (
                (crossing.x - a.x) * (b.x - a.x) + (crossing.y - a.y) * (b.y - a.y)
            ) / length_sq
            cut_params.append(min(1.0, max(0.0, t)))
    cut_params.sort()
    for t0, t1 in zip(cut_params, cut_params[1:]):
        if t1 - t0 <= 1e-12:
            continue
        t_mid = (t0 + t1) / 2.0
        midpoint = Point(a.x + t_mid * (b.x - a.x), a.y + t_mid * (b.y - a.y))
        if not any(poly.contains_point(midpoint, tolerance) for poly in polygons):
            return False
    return True


def _strictly_inside_polygon(polygon: Polygon, point: Point, tolerance: float) -> bool:
    """True when ``point`` is inside ``polygon`` and not within ``tolerance``
    of its boundary."""
    if not polygon.contains_point(point):
        return False
    return _distance_to_boundary(polygon, point) > tolerance


def _strictly_inside_union(
    polygons: Sequence[Polygon], point: Point, tolerance: float
) -> bool:
    """Conservative interior-of-union membership: strictly inside some piece."""
    return any(_strictly_inside_polygon(poly, point, tolerance) for poly in polygons)


def _distance_to_boundary(polygon: Polygon, point: Point) -> float:
    """Distance from ``point`` to the polygon boundary."""
    best = math.inf
    for a, b in polygon.edges():
        best = min(best, _point_segment_distance(point, a, b))
    return best


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from ``p`` to the closed segment ``a-b``."""
    length_sq = a.squared_distance_to(b)
    # Exact zero guard: any non-zero squared length is safely divisible.
    if length_sq == 0.0:  # repro: noqa(RPR001, RPR011)
        return p.distance_to(a)
    t = ((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / length_sq
    t = min(1.0, max(0.0, t))
    closest = Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
    return p.distance_to(closest)


@dataclass
class CertainRegion:
    """The union of peer certain circles, with a pluggable coverage backend.

    This is the object Lemma 3.8 calls ``R_c``.  Verification code builds
    one region per query from the usable peer caches and then asks
    :meth:`covers_disk` once per candidate POI.
    """

    circles: List[Circle] = field(default_factory=list)
    method: CoverageMethod = CoverageMethod.EXACT
    polygon_sides: int = 32
    tolerance: float = 1e-9
    _polygons: Optional[List[Polygon]] = field(default=None, repr=False)

    def add_circle(self, circle: Circle) -> None:
        """Add a peer's certain circle to the region."""
        if circle.radius <= 0.0:
            return
        self.circles.append(circle)
        self._polygons = None

    def __len__(self) -> int:
        return len(self.circles)

    def is_empty(self) -> bool:
        return not self.circles

    def covers_disk(self, target: Circle) -> bool:
        """True when ``target`` is certainly inside the region.

        Both backends are conservative: ``True`` always implies genuine
        coverage; ``False`` may occasionally be a false negative (polygon
        backend, or borderline geometry within tolerance).
        """
        if not self.circles:
            return False
        if self.method is CoverageMethod.EXACT:
            return disk_covered_by_disks(target, self.circles, self.tolerance)
        return disk_covered_by_polygons(
            target, self._cover_polygons(), sides=self.polygon_sides, tolerance=self.tolerance
        )

    def contains_point(self, point: Point) -> bool:
        """True when ``point`` lies in the region (union membership)."""
        if self.method is CoverageMethod.EXACT:
            return any(circle.contains_point(point) for circle in self.circles)
        return any(poly.contains_point(point) for poly in self._cover_polygons())

    def _cover_polygons(self) -> List[Polygon]:
        if self._polygons is None:
            # Memoized derived state: the polygon cache is a pure function
            # of the frozen circles, so filling it is observationally pure.
            self._polygons = [
                Polygon.inscribed_in_circle(circle, sides=self.polygon_sides)
                for circle in self.circles
                if circle.radius > 0.0
            ]
        return self._polygons
