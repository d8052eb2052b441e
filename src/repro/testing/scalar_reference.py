"""Frozen scalar reference implementations for the fast kernels.

The vectorized kernels in :mod:`repro.geometry.vecmath`, the batched
verifiers in :mod:`repro.core.verification` and the float-only Lemma
3.8 kernel :func:`repro.geometry.coverage.disk_covered_by_disks` promise
to be *bit-identical* to the code they replaced.  This module preserves
that code verbatim — the per-entry loops the pre-vectorization R-tree
and the ``kNN_single`` / ``kNN_multiple`` verifiers executed, and the
object-based coverage test (:func:`scalar_disk_covered_by_disks`) with
the two circle kernels it composes, boundary-arc coverage and
boundary intersection points — as an oracle for:

- the hypothesis property suites ``tests/test_index_vectorized.py``,
  which fuzzes the index kernels over adversarial geometry (degenerate
  boxes, touching edges, corner queries, subnormal coordinates), and
  ``tests/test_coverage_kernel.py``, which does the same for the
  coverage kernel (exact ties, tangent, concentric and near-coincident
  circles, zero-radius targets, subnormal separations);
- the ``vectorized-verify`` differential-testing check
  (:mod:`repro.testing.difftest`), which replays every scenario's
  verification pass through this module and demands equal verdicts.

Nothing here is ever called by production code, and nothing here may be
"optimised": the value of the oracle is that it stays exactly the loop
the formulas in :mod:`repro.geometry.bbox`, :mod:`repro.geometry.point`,
:mod:`repro.geometry.circle` and the two circle kernels below spell out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.geometry.circle import Circle
from repro.geometry.coverage import CertainRegion, CoverageMethod
from repro.geometry.intervals import AngularIntervalSet
from repro.geometry.point import Point
from repro.geometry.tolerance import near_zero

__all__ = [
    "scalar_collect_candidates",
    "scalar_disk_covered_by_disks",
    "scalar_maxdist",
    "scalar_maxdists",
    "scalar_mindist",
    "scalar_mindists",
    "scalar_point_distance",
    "scalar_point_distances",
    "scalar_verify_multi_peer",
    "scalar_verify_single_peer",
]


def scalar_point_distance(px: float, py: float, x: float, y: float) -> float:
    """``Point.distance_to``, spelled out: one subtraction per axis."""
    return math.hypot(px - x, py - y)


def scalar_point_distances(
    px: float, py: float, xs: Sequence[float], ys: Sequence[float]
) -> List[float]:
    """Per-point loop the scalar leaf expansion performed."""
    return [scalar_point_distance(px, py, x, y) for x, y in zip(xs, ys)]


def scalar_mindist(
    px: float, py: float, lo_x: float, lo_y: float, hi_x: float, hi_y: float
) -> float:
    """``BoundingBox.mindist`` verbatim (clamp per axis, then hypot)."""
    dx = max(lo_x - px, 0.0, px - hi_x)
    dy = max(lo_y - py, 0.0, py - hi_y)
    return math.hypot(dx, dy)


def scalar_mindists(
    px: float,
    py: float,
    lo_x: Sequence[float],
    lo_y: Sequence[float],
    hi_x: Sequence[float],
    hi_y: Sequence[float],
) -> List[float]:
    """Per-box MINDIST loop the scalar internal-node expansion performed."""
    return [
        scalar_mindist(px, py, lx, ly, hx, hy)
        for lx, ly, hx, hy in zip(lo_x, lo_y, hi_x, hi_y)
    ]


def scalar_maxdist(
    px: float, py: float, lo_x: float, lo_y: float, hi_x: float, hi_y: float
) -> float:
    """``BoundingBox.maxdist`` verbatim (farthest corner per axis)."""
    dx = max(px - lo_x, hi_x - px)
    dy = max(py - lo_y, hi_y - py)
    return math.hypot(dx, dy)


def scalar_maxdists(
    px: float,
    py: float,
    lo_x: Sequence[float],
    lo_y: Sequence[float],
    hi_x: Sequence[float],
    hi_y: Sequence[float],
) -> List[float]:
    """Per-box MAXDIST loop the scalar downward pruning performed."""
    return [
        scalar_maxdist(px, py, lx, ly, hx, hy)
        for lx, ly, hx, hy in zip(lo_x, lo_y, hi_x, hi_y)
    ]


def scalar_verify_single_peer(
    query: Point,
    peer: Point,
    certain_radius: float,
    candidates: Sequence[Tuple[Point, object]],
) -> List[Tuple[Point, object, float, bool]]:
    """The pre-vectorization Lemma 3.2 loop, without the heap.

    Returns the exact offer sequence the scalar ``kNN_single`` issued:
    candidates sorted ascending by distance to ``query`` (Python's
    stable sort, so exact ties keep cache order), each with its computed
    distance and the Lemma 3.2 verdict
    ``Dist(Q, n_i) + delta <= Dist(P, n_k)``.
    """
    delta = query.distance_to(peer)
    ordered = sorted(candidates, key=lambda item: query.distance_to(item[0]))
    offers: List[Tuple[Point, object, float, bool]] = []
    for point, payload in ordered:
        distance = query.distance_to(point)
        offers.append((point, payload, distance, distance + delta <= certain_radius))
    return offers


def scalar_collect_candidates(
    query: Point,
    caches: Sequence[CachedQueryResult],
) -> List[Tuple[float, Point, object]]:
    """The pre-vectorization candidate collection, verbatim.

    Dedup by coordinates plus payload, one scalar ``distance_to`` per
    unique POI, then one stable sort on distance (first-seen order on
    exact ties — insertion order of the dict is preserved by
    ``sorted``'s stability, exactly as the batched version's stable
    argsort preserves it).
    """
    seen: Dict[Tuple[float, float, object], Tuple[float, Point, object]] = {}
    for cache in caches:
        for neighbor in cache.neighbors:
            key = (neighbor.point.x, neighbor.point.y, _hashable(neighbor.payload))
            if key not in seen:
                distance = query.distance_to(neighbor.point)
                seen[key] = (distance, neighbor.point, neighbor.payload)
    return sorted(seen.values(), key=lambda item: item[0])


def scalar_disk_covered_by_disks(
    target: Circle,
    cover: Sequence[Circle],
    tolerance: float = 1e-9,
) -> bool:
    """The object-based Lemma 3.8 test, verbatim: ``Circle`` methods composed.

    This is ``repro.geometry.coverage.disk_covered_by_disks`` as it was
    before the float kernel: one ``Circle`` predicate per test, a
    ``Point`` per circle-circle intersection and an ``_ArcCoverage`` per
    disk.  The kernel spells the same formulas out on plain floats and
    must return the same verdict (or raise the same error) on every
    input.
    """
    if target.radius < 0.0:
        raise ValueError("target radius must be non-negative")
    relevant = [disk for disk in cover if disk.intersects_circle(target)]
    if not relevant:
        return False
    # Fast path -- also the exact semantics of single-peer verification.
    for disk in relevant:
        if disk.contains_circle(target, tolerance=-tolerance):
            return True
    if near_zero(target.radius, tolerance):
        # A disk no larger than the tolerance degenerates to its center.
        return any(
            disk.strictly_contains_point(target.center, tolerance) for disk in relevant
        )

    # Condition 1: the target boundary must be fully covered by arcs.
    arcs = AngularIntervalSet(tolerance=1e-12)
    angular_tol = tolerance / max(target.radius, tolerance)
    for disk in relevant:
        coverage = _boundary_arc_covered_by(target, disk)
        if coverage.full:
            # The strict fast path above already failed for this disk, so
            # the containment is borderline: the target is internally
            # tangent (within ``tolerance``).  The tangency point -- the
            # target boundary point opposite the covering center -- is not
            # robustly covered, so leave a tolerance gap there instead of
            # certifying the full circle.  (Found by repro-difftest: an
            # uncached POI tied exactly at a peer's k-th distance sits on
            # that tangency point.)
            separation = target.center.distance_to(disk.center)
            if near_zero(separation, tolerance):
                # Borderline concentric ring: no direction is robust.
                continue
            half = math.pi - angular_tol
            if half > 0.0:
                arcs.add_centered(
                    target.center.angle_to(disk.center), half
                )
            continue
        if not coverage.empty:
            # Shrink each arc by an angular tolerance so borderline
            # touching arcs do not spuriously certify coverage.
            half = coverage.half_width - angular_tol
            if half > 0.0:
                arcs.add_centered(coverage.center, half)
    if not arcs.covers_full_circle():
        return False

    # Condition 2: circle-circle intersection vertices strictly inside the
    # target must be strictly inside some covering disk.
    count = len(relevant)
    for i in range(count):
        for j in range(i + 1, count):
            for vertex in _boundary_intersections(relevant[i], relevant[j]):
                if not target.strictly_contains_point(vertex, tolerance):
                    continue
                if not any(
                    disk.strictly_contains_point(vertex, tolerance)
                    for disk in relevant
                ):
                    return False
    return True


@dataclass(frozen=True, slots=True)
class _ArcCoverage:
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


def _boundary_arc_covered_by(circle: Circle, other: Circle) -> _ArcCoverage:
    """Which arc of ``circle``'s boundary lies inside ``other``'s disk.

    Derivation: a boundary point of ``circle`` at angle ``theta`` is in
    the other disk iff its distance to ``other.center`` is at most
    ``other.radius``.  Writing ``d`` for the center separation and
    ``r`` for ``circle``'s radius, the law of cosines gives the limit
    angle ``phi = acos((d^2 + r^2 - other.radius^2) / (2 d r))`` around
    the direction from ``circle``'s center to the other center.
    """
    d = circle.center.distance_to(other.center)
    r = circle.radius
    if d + r <= other.radius:
        # The whole circle (boundary included) lies inside the other disk.
        return _ArcCoverage(full=True, empty=False)
    if d > r + other.radius or d + other.radius < r:
        # Disks disjoint, or the other disk is strictly inside the circle
        # without reaching the boundary: no boundary coverage.
        return _ArcCoverage(full=False, empty=True)
    # Exact zero guard for the concentric case: d divides the law-of-
    # cosines expression below, so only a literal zero is degenerate.
    if d == 0.0:  # repro: noqa(RPR001)
        # Concentric with other.radius < r (the full-coverage case
        # returned above): boundary not covered.
        return _ArcCoverage(full=False, empty=True)
    cos_phi = (d * d + r * r - other.radius * other.radius) / (2.0 * d * r)
    cos_phi = max(-1.0, min(1.0, cos_phi))
    half_width = math.acos(cos_phi)
    center_angle = circle.center.angle_to(other.center)
    return _ArcCoverage(full=False, empty=False, center=center_angle, half_width=half_width)


def _boundary_intersections(circle: Circle, other: Circle) -> List[Point]:
    """Intersection points of the two circle *boundaries* (0, 1 or 2).

    Tangency returns a single point; coincident circles return an empty
    list (infinitely many intersections are useless for the coverage
    test and coincident certain circles never add information).
    """
    d = circle.center.distance_to(other.center)
    r0, r1 = circle.radius, other.radius
    # Exact zero guard: d divides the chord computation below.
    if d == 0.0:  # repro: noqa(RPR001)
        return []
    if d > r0 + r1 or d < abs(r0 - r1):
        return []
    # Distance from circle.center to the chord midpoint along the center line.
    # ``r0*r0 - r1*r1`` is taken as ``(r0 - r1) * (r0 + r1)``: for nearly
    # equal radii the difference of squares cancels to rounding noise,
    # which a tiny ``d`` (near-coincident circles) would then blow up.
    a = (d * d + (r0 - r1) * (r0 + r1)) / (2.0 * d)
    h_sq = r0 * r0 - a * a
    if h_sq < 0.0:
        # Numerical noise around tangency.
        h_sq = 0.0
    h = math.sqrt(h_sq)
    ux = (other.center.x - circle.center.x) / d
    uy = (other.center.y - circle.center.y) / d
    mid = Point(circle.center.x + a * ux, circle.center.y + a * uy)
    # Exact tangency: h_sq was clamped to literal 0.0 above, so the
    # single-point case is an exact comparison by construction.
    if h == 0.0:  # repro: noqa(RPR001)
        return [mid]
    return [
        Point(mid.x - h * uy, mid.y + h * ux),
        Point(mid.x + h * uy, mid.y - h * ux),
    ]


def scalar_verify_multi_peer(
    query: Point,
    caches: Sequence[CachedQueryResult],
    heap: CandidateHeap,
    method: CoverageMethod = CoverageMethod.EXACT,
    polygon_sides: int = 32,
) -> int:
    """The pre-vectorization ``kNN_multiple`` loop, verbatim.

    Every candidate's disk goes through the coverage test directly, with
    the same early-exit and re-certification skips the production
    verifier keeps.  The exact backend is
    :func:`scalar_disk_covered_by_disks`, not the production kernel, so
    the check stays independent of the code it checks; the polygon
    backend still goes through ``CertainRegion.covers_disk``.
    """
    region = CertainRegion(method=method, polygon_sides=polygon_sides)
    for cache in caches:
        if not cache.is_empty():
            region.add_circle(cache.certain_circle())
    if region.is_empty():
        return 0
    certified = 0
    for distance, point, payload in scalar_collect_candidates(query, caches):
        if heap.is_complete():
            break
        if heap.is_certain(point, payload):
            continue
        target = Circle(query, distance)
        if method is CoverageMethod.EXACT:
            covered = scalar_disk_covered_by_disks(
                target, region.circles, region.tolerance
            )
        else:
            covered = region.covers_disk(target)
        if covered:
            heap.add(point, payload, distance, certain=True)
            certified += 1
        else:
            heap.add(point, payload, distance, certain=False)
            break
    return certified


def _hashable(payload: object) -> object:
    # Hashability probe for the dedup key: hash equality follows object
    # equality, and the id() fallback only labels unhashable payloads
    # within one run, so the key is observationally deterministic.
    try:
        hash(payload)
    except TypeError:
        return id(payload)
    return payload
