"""Brute-force oracles for differential testing.

Everything in this module recomputes ground truth from first principles:

- :func:`oracle_knn` scans the raw POI list -- no R-tree, no pruning;
- :func:`certify_single_oracle` / :func:`certify_multi_oracle` re-derive
  the Lemma 3.2 / 3.8 certainty decision by *direct circle-coverage
  sampling* of the candidate disk's boundary, reporting a signed slack
  instead of a boolean so the differential runner can apply asymmetric
  margins (soundness vs. completeness);
- :func:`oracle_network_knn` is an independent Dijkstra over a plain
  adjacency mapping for cross-checking SNNN, stopped once the k-th
  answer is final (INE's rule) and followed by a scan of every POI;
- :func:`oracle_snap` projects a point onto every edge in turn, the
  reference for the grid search behind ``SpatialNetwork.snap``.

Independence is the whole point: this file must not import the code under
test.  ``repro-lint --deep`` rule RPR013 enforces that no symbol from
``repro.index``, ``repro.core``, ``repro.network`` or the coverage /
polygon machinery of ``repro.geometry`` is imported here; only the
:class:`~repro.geometry.point.Point` value type is shared.  The payload
tie order is a deliberate (tiny) re-implementation of
``repro.index.knn.poi_tie_key`` for the same reason.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.geometry.point import Point

__all__ = [
    "CertaintyVerdict",
    "NetworkLoc",
    "OracleNeighbor",
    "certify_multi_oracle",
    "certify_single_oracle",
    "oracle_knn",
    "oracle_network_knn",
    "oracle_snap",
    "tie_key",
]


@dataclass(frozen=True, slots=True)
class OracleNeighbor:
    """One ground-truth neighbor: location, payload, exact scan distance."""

    point: Point
    payload: Any
    distance: float


def tie_key(payload: Any) -> Tuple[int, float, str]:
    """Stable payload order for distance ties (mirrors ``poi_tie_key``).

    Re-implemented here on purpose: the oracle must not import
    ``repro.index``.  The contract (numeric payloads numerically, others
    by ``str()``) is pinned by a differential test instead.
    """
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return (1, float(payload), "")
    return (2, 0.0, str(payload))


# ----------------------------------------------------------------------
# Euclidean oracles
# ----------------------------------------------------------------------
def oracle_knn(
    pois: Sequence[Tuple[Point, Any]], query: Point, k: int
) -> List[OracleNeighbor]:
    """The exact k nearest POIs by linear scan, ties broken by payload."""
    if k < 0:
        raise ValueError("k must be non-negative")
    scored = [
        OracleNeighbor(point, payload, query.distance_to(point))
        for point, payload in pois
    ]
    scored.sort(key=lambda n: (n.distance, tie_key(n.payload)))
    return scored[:k]


# ----------------------------------------------------------------------
# Lemma 3.2 / 3.8 certainty by boundary sampling
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CertaintyVerdict:
    """Signed coverage slack of a candidate disk against certain circles.

    ``slack`` is (an upper estimate of) the minimum over the candidate
    disk's boundary of the distance by which the best covering circle
    still contains the boundary point; negative means some sampled
    boundary point is outside every circle.  Because the minimum is taken
    over finitely many samples the estimate can only err upward, so:

    - ``slack < -tol``  => the disk is *definitely not* covered;
    - ``slack > margin`` (for a margin exceeding the sampling error and
      the implementation's conservatism) => definitely covered.
    """

    slack: float

    def definitely_uncovered(self, tolerance: float = 1e-9) -> bool:
        return self.slack < -tolerance

    def definitely_covered(self, margin: float, allow_exact_zero: bool = False) -> bool:
        """Coverage claim strong enough to demand certification.

        ``allow_exact_zero`` admits the exactly-on-the-boundary case
        (slack ``== 0.0`` bit-for-bit); scenario generators that place
        POIs on a dyadic grid produce it deliberately, and Lemma 3.2's
        non-strict inequality says it must certify.
        """
        if self.slack > margin:
            return True
        # Exact zero guard: only a bit-exact boundary touch qualifies.
        return allow_exact_zero and self.slack == 0.0


def certify_single_oracle(
    query: Point,
    peer_center: Point,
    peer_radius: float,
    candidate_distance: float,
) -> CertaintyVerdict:
    """Lemma 3.2 by construction of the extremal boundary point.

    The point of the candidate disk's boundary farthest from the peer is
    on the ray from the peer through ``query``; evaluating the peer circle
    there is an exact one-sample coverage test (no formula shared with
    :mod:`repro.core.verification`).
    """
    if candidate_distance < 0.0:
        raise ValueError("candidate_distance must be non-negative")
    delta = query.distance_to(peer_center)
    # Exact zero guard: coincident centers leave every direction extremal.
    if delta == 0.0:  # repro: noqa(RPR001)
        worst = Point(query.x + candidate_distance, query.y)
    else:
        scale = candidate_distance / delta
        worst = Point(
            query.x + (query.x - peer_center.x) * scale,
            query.y + (query.y - peer_center.y) * scale,
        )
    return CertaintyVerdict(peer_radius - worst.distance_to(peer_center))


def certify_multi_oracle(
    query: Point,
    circles: Sequence[Tuple[Point, float]],
    candidate_distance: float,
    samples: int = 256,
) -> CertaintyVerdict:
    """Lemma 3.8 by dense boundary sampling of the candidate disk.

    Samples ``samples`` uniform boundary angles plus, per circle, the
    analytically extremal direction (the boundary point farthest from
    that circle's center), and reports the worst best-circle slack.
    """
    if candidate_distance < 0.0:
        raise ValueError("candidate_distance must be non-negative")
    if not circles:
        return CertaintyVerdict(-math.inf)
    if samples < 8:
        raise ValueError("at least 8 samples are required")

    def slack_at(point: Point) -> float:
        return max(radius - point.distance_to(center) for center, radius in circles)

    # Exact zero guard: a zero-radius disk degenerates to the query point.
    if candidate_distance == 0.0:
        return CertaintyVerdict(slack_at(query))

    angles = [2.0 * math.pi * i / samples for i in range(samples)]
    worst = math.inf
    for angle in angles:
        boundary = Point(
            query.x + candidate_distance * math.cos(angle),
            query.y + candidate_distance * math.sin(angle),
        )
        worst = min(worst, slack_at(boundary))
    for center, _ in circles:
        away = query.distance_to(center)
        # Exact zero guard: coincident centers have no extremal direction.
        if away == 0.0:  # repro: noqa(RPR001)
            continue
        scale = candidate_distance / away
        extremal = Point(
            query.x + (query.x - center.x) * scale,
            query.y + (query.y - center.y) * scale,
        )
        worst = min(worst, slack_at(extremal))
    return CertaintyVerdict(worst)


# ----------------------------------------------------------------------
# independent network-distance oracle (for SNNN)
# ----------------------------------------------------------------------
#: A location on a road network, in plain-data form:
#: ``("node", node_id)`` or ``("edge", u, v, offset_from_u, edge_length)``.
NetworkLoc = Tuple[Any, ...]


def _settle(
    adjacency: Mapping[int, Sequence[Tuple[int, float]]],
    sources: Sequence[Tuple[int, float]],
) -> Iterator[Tuple[int, float]]:
    """Multi-source Dijkstra over a plain adjacency mapping: yields each
    node with its final distance, nearest first."""
    dist: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for node, offset in sources:
        if offset < dist.get(node, math.inf):
            dist[node] = offset
            heapq.heappush(heap, (offset, node))
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        yield node, d
        for neighbor, weight in adjacency.get(node, ()):
            candidate = d + weight
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))


def _endpoint_offsets(loc: NetworkLoc) -> List[Tuple[int, float]]:
    if loc[0] == "node":
        return [(loc[1], 0.0)]
    _, u, v, offset, length = loc
    return [(u, offset), (v, length - offset)]


def _same_edge_distance(a: NetworkLoc, b: NetworkLoc) -> float:
    """Direct along-edge distance when both locations share an edge."""
    if a[0] != "edge" or b[0] != "edge":
        return math.inf
    if (a[1], a[2]) == (b[1], b[2]):
        return abs(a[3] - b[3])
    if (a[1], a[2]) == (b[2], b[1]):
        return abs(a[3] - (b[4] - b[3]))
    return math.inf


def oracle_network_knn(
    adjacency: Mapping[int, Sequence[Tuple[int, float]]],
    origin: NetworkLoc,
    pois: Sequence[Tuple[NetworkLoc, Any]],
    k: int,
) -> List[Tuple[Any, float]]:
    """Exact network kNN: one Dijkstra from the origin, stopped once the
    k-th answer is final, then a scan.

    A POI's bound is its along-edge distance when it shares the origin's
    edge, lowered to ``distance(node) + offset`` as each of its endpoint
    nodes settles.  Every node still unsettled is at least as far as the
    last distance popped, so once that distance is strictly greater than
    the k-th smallest bound, every POI at or below that bound -- ties at
    the cut included -- holds its exact distance, and no other POI can
    come before it: INE's termination rule.  POIs whose endpoints were
    never reached score ``inf``; the answer is the first ``k`` by
    ``(distance, tie_key)``.

    Distances and ordering are computed without touching
    ``repro.network``; the caller flattens its graph into ``adjacency``
    and its locations into :data:`NetworkLoc` tuples.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    bounds = [_same_edge_distance(origin, loc) for loc, _ in pois]
    at_node: Dict[int, List[Tuple[int, float]]] = {}
    for index, (loc, _) in enumerate(pois):
        for node, offset in _endpoint_offsets(loc):
            at_node.setdefault(node, []).append((index, offset))
    # Bounds not yet below the search radius, smallest first; an index
    # leaves it (counted once, by its smallest bound) when one is.
    pending = [(bound, index) for index, bound in enumerate(bounds) if bound < math.inf]
    heapq.heapify(pending)
    final: Set[int] = set()
    for node, d in _settle(adjacency, _endpoint_offsets(origin)):
        while pending and pending[0][0] < d:
            final.add(heapq.heappop(pending)[1])
        if len(final) >= k:
            break
        for index, offset in at_node.get(node, ()):
            candidate = d + offset
            if candidate < bounds[index]:
                bounds[index] = candidate
                heapq.heappush(pending, (candidate, index))
    scored = sorted(
        zip(bounds, (tie_key(payload) for _, payload in pois), range(len(pois)))
    )
    return [(pois[index][1], distance) for distance, _, index in scored[:k]]


# ----------------------------------------------------------------------
# snapping by linear scan
# ----------------------------------------------------------------------
def oracle_snap(
    edges: Sequence[Tuple[float, float, float, float, float]],
    point: Tuple[float, float],
) -> Tuple[int, float, Tuple[float, float]]:
    """Nearest on-edge location to ``point`` by scanning every edge.

    ``edges`` are ``(ux, uy, vx, vy, length)`` rows in the network's
    ``edges()`` order; the answer is ``(row index, offset from u,
    projected (x, y))``.  The first of several equally near edges wins.
    Per edge this is, expression for expression, what
    ``SpatialNetwork.snap`` computes, so the grid search there must
    return these floats exactly.
    """
    if not edges:
        raise ValueError("cannot snap onto an empty network")
    px, py = point
    best = (-1, 0.0, (0.0, 0.0))
    best_dist = math.inf
    for index, (ux, uy, vx, vy, length) in enumerate(edges):
        length_sq = (ux - vx) * (ux - vx) + (uy - vy) * (uy - vy)
        t = ((px - ux) * (vx - ux) + (py - uy) * (vy - uy)) / length_sq
        t = min(1.0, max(0.0, t))
        projected = (ux + t * (vx - ux), uy + t * (vy - uy))
        dist = math.hypot(px - projected[0], py - projected[1])
        if dist < best_dist:
            best_dist = dist
            best = (index, t * length, projected)
    return best
