"""Verification of peer-supplied candidates (Sections 3.2.1 and 3.2.2).

Two verifiers populate the candidate heap:

- :func:`verify_single_peer` (``kNN_single``) applies Lemma 3.2 to one
  peer's cached result: candidate ``n_i`` is certain iff
  ``Dist(Q, n_i) + delta <= Dist(P, n_k)`` where ``delta = Dist(Q, P)``.
  Geometrically: the disk around ``Q`` through ``n_i`` lies inside the
  peer's certain circle.  Because the left side grows with
  ``Dist(Q, n_i)``, candidates are processed in ascending distance and
  classification flips from certain to uncertain exactly once.

- :func:`verify_multi_peer` (``kNN_multiple``) applies Lemma 3.8: the
  union of all peers' certain circles forms the certain region ``R_c``;
  a candidate is certain iff its disk is fully covered by ``R_c``.
  Coverage is monotone in the disk radius, so ascending processing again
  allows an early exit: once one candidate's disk is uncovered, every
  farther candidate's disk is too.

Both verifiers are *sound* by construction: they only certify when the
geometry guarantees that every POI closer to ``Q`` is also known (present
in some peer's cache), which yields exact ranks (Lemma 3.7).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.geometry.circle import Circle
from repro.geometry.coverage import CertainRegion, CoverageMethod
from repro.geometry.point import Point
from repro.geometry.vecmath import point_distance_list
from repro.index.knn import poi_key
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap

__all__ = ["verify_single_peer", "verify_multi_peer", "collect_candidates"]

def verify_single_peer(
    query: Point,
    cache: CachedQueryResult,
    heap: CandidateHeap,
) -> int:
    """``kNN_single`` against one peer cache; returns #certified entries.

    Every cached POI is offered to the heap -- certain when Lemma 3.2
    holds, uncertain otherwise (an uncertain POI may still be certified
    later by another peer or by the multi-peer pass).
    """
    if cache.is_empty():
        return 0
    delta = query.distance_to(cache.query_location)
    certain_radius = cache.certain_radius
    neighbors = cache.neighbors
    count = len(neighbors)
    # One batched distance pass over the whole cached result, then one
    # elementwise Lemma 3.2 comparison.  Both sides are the exact IEEE
    # operations the scalar loop performed per candidate (see
    # repro.geometry.vecmath), so each verdict is bit-identical.
    distances = point_distance_list(
        query.x,
        query.y,
        [n.point.x for n in neighbors],
        [n.point.y for n in neighbors],
    )
    flags = [distance + delta <= certain_radius for distance in distances]
    # Stable ascending order: the scalar sorted() processing order.
    order = sorted(range(count), key=distances.__getitem__)
    certified = sum(flags)
    heap.add_batch(
        (
            neighbors[index].point,
            neighbors[index].payload,
            distances[index],
            flags[index],
        )
        for index in order
    )
    tally = heap.tally
    tally.single_sizes += (count,)
    tally.single_certain += certified
    tally.single_uncertain += count - certified
    return certified


def verify_multi_peer(
    query: Point,
    caches: Sequence[CachedQueryResult],
    heap: CandidateHeap,
    method: CoverageMethod = CoverageMethod.EXACT,
    polygon_sides: int = 32,
) -> int:
    """``kNN_multiple``: verify candidates against the merged certain region.

    Builds ``R_c`` from all non-empty peer caches and re-examines every
    known candidate in ascending distance order.  Returns the number of
    entries newly certified.  Stops early once a candidate fails: coverage
    is monotone in the candidate's distance.
    """
    region = CertainRegion(method=method, polygon_sides=polygon_sides)
    for cache in caches:
        if not cache.is_empty():
            region.add_circle(cache.certain_circle())
    if region.is_empty():
        return 0

    candidates = collect_candidates(query, caches)
    tally = heap.tally
    tally.multi_sizes += (len(candidates),)

    certified = 0
    for distance, point, payload in candidates:
        if heap.is_complete():
            break
        if heap.is_certain(point, payload):
            continue
        target = Circle(query, distance)
        if region.covers_disk(target):
            heap.add(point, payload, distance, certain=True)
            certified += 1
            tally.multi_certain += 1
        else:
            # Monotonicity: a larger disk cannot be covered either.  The
            # remaining candidates stay uncertain; make sure the heap has
            # seen them at least once.
            heap.add(point, payload, distance, certain=False)
            tally.multi_uncertain += 1
            break
    return certified


def collect_candidates(
    query: Point,
    caches: Sequence[CachedQueryResult],
) -> List[Tuple[float, Point, object]]:
    """Deduplicated candidate POIs from all caches, ascending by distance.

    The same physical POI may appear in several caches; the key is its
    coordinates plus payload identity.  Distances for the deduplicated
    set are computed in one batched pass (bit-identical to the scalar
    metric); the stable sort preserves first-seen order on exact ties,
    as the scalar implementation did.
    """
    seen: Dict[Tuple[float, float, object], Tuple[Point, object]] = {}
    for cache in caches:
        for neighbor in cache.neighbors:
            key = poi_key(neighbor.point, neighbor.payload)
            if key not in seen:
                seen[key] = (neighbor.point, neighbor.payload)
    if not seen:
        return []
    unique = list(seen.values())
    distances = point_distance_list(
        query.x,
        query.y,
        [point.x for point, _ in unique],
        [point.y for point, _ in unique],
    )
    items = [
        (distance, point, payload)
        for distance, (point, payload) in zip(distances, unique)
    ]
    items.sort(key=lambda item: item[0])
    return items
