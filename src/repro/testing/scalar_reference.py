"""Frozen scalar reference implementations for the vectorized index.

The vectorized kernels in :mod:`repro.geometry.vecmath` and the batched
verifiers in :mod:`repro.core.verification` promise to be *bit-identical*
to the scalar code they replaced.  This module preserves that scalar code
verbatim — the per-entry loops the pre-vectorization R-tree and the
``kNN_single`` / ``kNN_multiple`` verifiers executed — as an oracle for:

- the hypothesis property suite ``tests/test_index_vectorized.py``,
  which fuzzes the kernels over adversarial geometry (degenerate boxes,
  touching edges, corner queries, subnormal coordinates);
- the ``vectorized-verify`` differential-testing check
  (:mod:`repro.testing.difftest`), which replays every scenario's
  verification pass through this module and demands equal verdicts.

Nothing here is ever called by production code, and nothing here may be
"optimised": the value of the oracle is that it stays exactly the loop
the formulas in :mod:`repro.geometry.bbox` / :mod:`repro.geometry.point`
spell out.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.geometry.circle import Circle
from repro.geometry.coverage import CertainRegion, CoverageMethod
from repro.geometry.point import Point

__all__ = [
    "scalar_collect_candidates",
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


def scalar_verify_multi_peer(
    query: Point,
    caches: Sequence[CachedQueryResult],
    heap: CandidateHeap,
    method: CoverageMethod = CoverageMethod.EXACT,
    polygon_sides: int = 32,
) -> int:
    """The pre-vectorization ``kNN_multiple`` loop, verbatim.

    Every candidate's disk goes through ``CertainRegion.covers_disk``
    directly — no batched single-circle pre-filter — with the same
    early-exit and re-certification skips the production verifier keeps.
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
        if region.covers_disk(target):
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
