"""Nearest-neighbor search over the R-tree.

Three algorithms, matching the paper's Section 2/3.3/4.4 cast:

- :func:`incremental_nearest` -- the best-first *incremental* NN algorithm
  of Hjaltason & Samet (the paper's INN).  It maintains a priority queue
  of nodes and objects ordered by MINDIST and reports neighbors in
  ascending distance order, visiting only the minimally necessary nodes;
- :func:`k_nearest_depth_first` -- the depth-first branch-and-bound
  algorithm of Roussopoulos et al., kept as the classic baseline;
- :func:`k_nearest_einn` -- the paper's *extended* INN (EINN): INN plus
  the two pruning rules of Section 3.3 driven by client-supplied
  :class:`PruningBounds`:

  1. *downward pruning*: any MBR whose MAXDIST to the query point is
     smaller than the branch-expanding lower bound is skipped -- every
     object in it lies inside the client's certain circle ``C_r`` and is
     already known;
  2. *upward pruning*: any MBR whose MINDIST exceeds the branch-expanding
     upper bound (or the running k-th candidate distance) is discarded.

All algorithms account page accesses through an optional
:class:`~repro.index.pagestats.PageAccessCounter`.

Tie-breaking: POIs at exactly equal distance are ordered by
:func:`poi_tie_key` (numeric payloads numerically, everything else by its
string form), so INN, EINN and the depth-first baseline return the *same*
neighbors in the same order even on duplicate-distance inputs.  The
differential harness in :mod:`repro.testing` depends on this.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.vecmath import (
    maxdist_arrays,
    mindist_arrays,
    point_distance_list,
)
from repro.index.node import LeafEntry, Node
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree
from repro.obs import OBS, Counter, Instrument

__all__ = [
    "NeighborResult",
    "PruningBounds",
    "incremental_nearest",
    "k_nearest",
    "k_nearest_depth_first",
    "k_nearest_einn",
    "poi_key",
    "poi_tie_key",
]

_PRUNED_MBRS = Instrument(Counter, "einn.pruned_mbrs", "rule")

#: Total order on POI payloads for breaking exact distance ties.
TieKey = Tuple[int, float, str]

#: Sorts before every payload tie key: nodes at the same heap distance are
#: expanded before equal-distance objects are reported, so an MBR touching
#: the current k-th distance can still contribute a better-tie neighbor.
_NODE_TIE: TieKey = (0, 0.0, "")

#: Sorts after every payload tie key (used as an "unbounded" cut).
_MAX_TIE: TieKey = (3, 0.0, "")

_MAX_CUT: Tuple[float, TieKey] = (math.inf, _MAX_TIE)


def poi_tie_key(payload: Any) -> TieKey:
    """Deterministic total order on payloads, stable by POI id.

    Numeric ids sort numerically, all other payloads by ``str()``; the two
    classes never interleave.  Every kNN algorithm in this module breaks
    equal-distance ties with this key, which is what makes their results
    comparable in differential tests.
    """
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return (1, float(payload), "")
    return (2, 0.0, str(payload))


def poi_key(point: Point, payload: Any) -> Tuple[float, float, Any]:
    """Identity of one POI for dedup sets and shipped-object ledgers.

    Position plus payload; an unhashable payload is labelled by ``id()``.
    Hash equality follows object equality and the ``id()`` fallback only
    labels unhashable payloads within one run, so the key is
    observationally deterministic.
    """
    try:
        hash(payload)
    except TypeError:
        payload = id(payload)
    return (point.x, point.y, payload)


@dataclass(frozen=True, slots=True)
class NeighborResult:
    """One reported neighbor: its location, payload and distance."""

    point: Point
    payload: Any
    distance: float


@dataclass(frozen=True, slots=True)
class PruningBounds:
    """Branch-expanding bounds derived from the client's candidate heap.

    ``lower`` is ``D_ct`` -- the distance of the last *certain* entry; all
    POIs strictly inside that radius are already known to the client.
    ``upper`` is the distance of the heap's last entry when the heap is
    full; the true k-th NN cannot be farther.  Either bound may be absent
    (``0.0`` / ``inf``), matching heap states 1-6 of Section 3.3.
    """

    lower: float = 0.0
    upper: float = math.inf

    def __post_init__(self) -> None:
        if self.lower < 0.0:
            raise ValueError("lower bound must be non-negative")
        if self.upper < 0.0:
            raise ValueError("upper bound must be non-negative")

    @property
    def has_lower(self) -> bool:
        """True when the client supplied a non-trivial lower bound."""
        return self.lower > 0.0

    @property
    def has_upper(self) -> bool:
        """True when the client supplied a finite upper bound."""
        return math.isfinite(self.upper)


class _LeafBlock:
    """One leaf node's entries as a lazily merged sorted run.

    The scalar algorithm pushed every leaf entry onto the priority queue
    individually.  The vectorized expansion computes all entry distances
    in one pass, sorts the entries by the exact per-entry heap key
    ``(distance, tie_key, insertion_order)`` and pushes only the head;
    each pop re-pushes the successor.  Because the run is sorted by the
    *same total key* the individual pushes used (insertion orders are
    globally unique, so the key is a total order), the heap's pop
    sequence — and therefore every traversal decision and page access —
    is identical to the scalar merge.
    """

    __slots__ = ("items", "pos")

    def __init__(self, items: List[Tuple[float, TieKey, int, LeafEntry]]) -> None:
        self.items = items
        self.pos = 0

    def advance(self, heap: List[Tuple[float, TieKey, int, Any]]) -> LeafEntry:
        """Consume the head entry, scheduling the successor on ``heap``."""
        items = self.items
        pos = self.pos
        entry = items[pos][3]
        succ = pos + 1
        self.pos = succ
        if succ < len(items):
            dist, tie, order, _ = items[succ]
            heapq.heappush(heap, (dist, tie, order, self))
        return entry


def _leaf_columns(
    node: Node, query: Point
) -> Tuple[List[float], List[TieKey]]:
    """Distances and memoized tie keys for one leaf, in entry order."""
    arrays = node.arrays()
    dists = point_distance_list(query.x, query.y, arrays.xs, arrays.ys)
    ties = arrays.tie_keys
    if ties is None:
        ties = [poi_tie_key(payload) for payload in arrays.payloads]
        arrays.tie_keys = ties
    return dists, ties


def incremental_nearest(
    tree: RTree,
    query: Point,
    counter: Optional[PageAccessCounter] = None,
) -> Iterator[NeighborResult]:
    """Yield neighbors of ``query`` in ascending distance order (INN).

    The generator is lazy: callers pull exactly as many neighbors as they
    need, which is what the SNNN algorithm's incremental expansion relies
    on.
    """
    if len(tree) == 0:
        return
    tiebreak = itertools.count()
    # Heap items: (distance, tie_key, insertion_order, node_or_leaf_block)
    heap: List[Tuple[float, TieKey, int, Any]] = []
    root = tree.read_node(tree.root, counter)
    _expand_into_heap(root, query, heap, tiebreak)
    while heap:
        dist, _, _, item = heapq.heappop(heap)
        if type(item) is _LeafBlock:
            entry = item.advance(heap)
            yield NeighborResult(entry.point, entry.payload, dist)
        else:
            node = tree.read_node(item, counter)
            _expand_into_heap(node, query, heap, tiebreak)


def _expand_into_heap(
    node: Node,
    query: Point,
    heap: List[Tuple[float, TieKey, int, Any]],
    tiebreak: "itertools.count[int]",
) -> None:
    if node.is_leaf:
        dists, ties = _leaf_columns(node, query)
        items = [
            (dist, tie, next(tiebreak), entry)
            for dist, tie, entry in zip(dists, ties, node.entries)
        ]
        if items:
            items.sort()
            head = items[0]
            heapq.heappush(heap, (head[0], head[1], head[2], _LeafBlock(items)))
    else:
        arrays = node.arrays()
        mindists = mindist_arrays(
            query.x, query.y, arrays.lo_x, arrays.lo_y, arrays.hi_x, arrays.hi_y
        ).tolist()
        for dist, child in zip(mindists, arrays.children):
            heapq.heappush(heap, (dist, _NODE_TIE, next(tiebreak), child))


def k_nearest(
    tree: RTree,
    query: Point,
    k: int,
    counter: Optional[PageAccessCounter] = None,
) -> List[NeighborResult]:
    """The k nearest neighbors in ascending distance order, via INN."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return list(itertools.islice(incremental_nearest(tree, query, counter), k))


def k_nearest_depth_first(
    tree: RTree,
    query: Point,
    k: int,
    counter: Optional[PageAccessCounter] = None,
) -> List[NeighborResult]:
    """Depth-first branch-and-bound kNN (Roussopoulos et al.).

    Kept as the classical single-step baseline; visits at least as many
    nodes as best-first search.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or len(tree) == 0:
        return []
    # Best k candidates so far, ascending by (distance, tie_key).
    best: List[Tuple[Tuple[float, TieKey], LeafEntry]] = []

    def kth_cut() -> Tuple[float, TieKey]:
        return best[k - 1][0] if len(best) == k else _MAX_CUT

    def visit(node: Node) -> None:
        tree.read_node(node, counter)
        if node.is_leaf:
            for entry in node.entries:
                dist = query.distance_to(entry.point)  # type: ignore[union-attr]
                key = (dist, poi_tie_key(entry.payload))
                if key < kth_cut():
                    index = bisect.bisect_right(best, key, key=lambda item: item[0])
                    best.insert(index, (key, entry))
                    del best[k:]
        else:
            branches = sorted(
                node.entries, key=lambda entry: entry.bbox.mindist(query)
            )
            for entry in branches:
                # A node whose MINDIST equals the current k-th distance may
                # still hold an equal-distance entry with a better tie key,
                # so the cut uses the node tie (which sorts first).
                if (entry.bbox.mindist(query), _NODE_TIE) < kth_cut():
                    visit(entry.child)  # type: ignore[union-attr]

    visit(tree.root)
    return [
        NeighborResult(entry.point, entry.payload, key[0]) for key, entry in best
    ]


def k_nearest_einn(
    tree: RTree,
    query: Point,
    k: int,
    bounds: PruningBounds = PruningBounds(),
    known_certain: Sequence[NeighborResult] = (),
    counter: Optional[PageAccessCounter] = None,
) -> List[NeighborResult]:
    """EINN: best-first kNN with the paper's pruning bounds.

    ``known_certain`` holds the POIs the client already verified (those
    whose distance is below ``bounds.lower`` plus any other certain
    entries).  They occupy result slots and let the search skip MBRs that
    are entirely inside the certain circle ``C_r``.

    Returns the global top-k (client knowledge merged with server finds),
    in ascending distance order.  With default bounds and no known
    results, EINN degenerates to plain INN.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return []

    results: List[NeighborResult] = sorted(
        known_certain, key=lambda r: (r.distance, poi_tie_key(r.payload))
    )
    known_keys = {poi_key(r.point, r.payload) for r in results}

    def kth_cut() -> Tuple[float, TieKey]:
        # The client's upper bound caps the k-th *distance*; ties at the
        # bound are still admissible, so it pairs with the maximal tie.
        cut = (bounds.upper, _MAX_TIE)
        if len(results) >= k:
            entry = results[k - 1]
            cut = min(cut, (entry.distance, poi_tie_key(entry.payload)))
        return cut

    if len(tree) > 0:
        tiebreak = itertools.count()
        heap: List[Tuple[float, TieKey, int, Any]] = []
        root = tree.read_node(tree.root, counter)
        _expand_einn(root, query, heap, tiebreak, bounds, kth_cut())
        while heap:
            dist, tie, _, item = heapq.heappop(heap)
            if (dist, tie) > kth_cut():
                break
            if type(item) is _LeafBlock:
                entry = item.advance(heap)
                key = poi_key(entry.point, entry.payload)
                if key in known_keys:
                    continue
                _insert_sorted(
                    results, NeighborResult(entry.point, entry.payload, dist)
                )
            else:
                node = tree.read_node(item, counter)
                _expand_einn(node, query, heap, tiebreak, bounds, kth_cut())

    return results[:k]


def _expand_einn(
    node: Node,
    query: Point,
    heap: List[Tuple[float, TieKey, int, Any]],
    tiebreak: "itertools.count[int]",
    bounds: PruningBounds,
    current_kth: Tuple[float, TieKey],
) -> None:
    if node.is_leaf:
        dists, ties = _leaf_columns(node, query)
        items: List[Tuple[float, TieKey, int, LeafEntry]] = []
        for dist, tie, entry in zip(dists, ties, node.entries):
            # Entries beyond the cut can never be reported (the cut only
            # tightens); dropping them here instead of at pop time keeps
            # the heap small without changing any observable behaviour.
            if (dist, tie) <= current_kth:
                items.append((dist, tie, next(tiebreak), entry))  # type: ignore[arg-type]
        if items:
            items.sort()
            head = items[0]
            heapq.heappush(heap, (head[0], head[1], head[2], _LeafBlock(items)))
        return
    arrays = node.arrays()
    mindists = mindist_arrays(
        query.x, query.y, arrays.lo_x, arrays.lo_y, arrays.hi_x, arrays.hi_y
    ).tolist()
    maxdists = (
        maxdist_arrays(
            query.x, query.y, arrays.lo_x, arrays.lo_y, arrays.hi_x, arrays.hi_y
        ).tolist()
        if bounds.has_lower
        else None
    )
    for index, child in enumerate(arrays.children):
        mindist = mindists[index]
        # Upward pruning: nothing in this MBR can enter the result.
        if (mindist, _NODE_TIE) > current_kth:
            if OBS.enabled:
                _PRUNED_MBRS("upward").inc()
            continue
        # Downward pruning: the MBR is fully inside the certain circle;
        # every object in it is already known to the client.
        if maxdists is not None:
            maxdist = maxdists[index]
            if maxdist < bounds.lower:
                if OBS.enabled:
                    _PRUNED_MBRS("downward").inc()
                continue
        heapq.heappush(heap, (mindist, _NODE_TIE, next(tiebreak), child))


def _insert_sorted(results: List[NeighborResult], item: NeighborResult) -> None:
    """Insert keeping ascending (distance, tie) order (small lists; O(n))."""
    item_key = (item.distance, poi_tie_key(item.payload))
    index = len(results)
    while index > 0 and (
        results[index - 1].distance,
        poi_tie_key(results[index - 1].payload),
    ) > item_key:
        index -= 1
    results.insert(index, item)
