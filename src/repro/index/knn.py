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
from typing import Any, Generator, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.vecmath import (
    maxdist_arrays,
    mindist_arrays,
    point_distance_list,
)
from repro.index.node import LeafEntry, Node
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree
from repro.obs import ServerRecord

__all__ = [
    "NeighborResult",
    "PruningBounds",
    "Ranked",
    "incremental_nearest",
    "k_nearest",
    "k_nearest_depth_first",
    "k_nearest_einn",
    "neighbors_of",
    "poi_key",
    "poi_tie_key",
]

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


#: One ranked answer row: ``(distance, tie key, source)``.  The rows of an
#: answer sort by their first two fields; the source is whatever the POI was
#: read from -- a leaf entry, a streamed or a client-certified neighbor --
#: and is only ever read for its ``.point`` and ``.payload``.
Ranked = Tuple[float, TieKey, Any]


def neighbors_of(rows: Iterable[Ranked]) -> List[NeighborResult]:
    """The neighbors ``rows`` rank, in row order, at the rows' distances."""
    return [NeighborResult(source.point, source.payload, d) for d, _, source in rows]


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


#: One queue entry: a row ``(distance, tie_key, insertion_order, child or leaf
#: entry)`` of some node's sorted run, plus the iterator over the rest of that
#: run.  Insertion orders are unique, so a comparison stops at the third field.
#: A row holds a child exactly when its tie key *is* :data:`_NODE_TIE`
#: (:func:`poi_tie_key` builds a fresh tuple for every payload).
_Row = Tuple[float, TieKey, int, Any]
_Queued = Tuple[float, TieKey, int, Any, Iterator[_Row]]


def _push_run(
    heap: List[_Queued],
    node: Node,
    query: Point,
    order: int,
    upper: float = math.inf,
    lower: float = 0.0,
    tally: Optional[ServerRecord] = None,
) -> int:
    """Queue one node -- a leaf's entries or an index node's children -- as
    a sorted run with only its head pushed; returns the next free order.

    The scalar algorithm pushed every entry and every child onto the
    priority queue individually.  Here all distances of the node come from
    one kernel pass, the rows are sorted by the exact per-entry heap key
    ``(distance, tie_key, insertion_order)`` and only the head is pushed;
    whoever pops a row pushes its successor.  Because the run is sorted by
    the *same total key* the individual pushes used (orders are handed out
    in entry order, node after node, so the key is a total order), the
    queue's pop sequence -- and therefore every traversal decision and
    page access -- is that of the scalar merge.

    EINN's two rules (Section 3.3) act here.  ``upper`` is the distance of
    the current cut: a row beyond it can never be reported, because the
    cut only tightens.  Index children sort before every object at their
    MINDIST (:data:`_NODE_TIE`), so for them the distance decides alone;
    a leaf entry *at* the cut distance whose tie key loses stays queued
    and ends the search when it is popped.  ``lower`` is ``D_ct``.  The
    MBRs each rule cut go on ``tally`` (``einn.pruned_mbrs``).
    """
    arrays = node.arrays()
    items: Sequence[Any]
    ties: Iterable[TieKey]
    if arrays.is_leaf:
        dists = point_distance_list(query.x, query.y, arrays.xs, arrays.ys)
        ties = arrays.tie_keys
        if ties is None:
            ties = arrays.tie_keys = [poi_tie_key(p) for p in arrays.payloads]
        items = node.entries
    else:
        box = (query.x, query.y, arrays.lo_x, arrays.lo_y, arrays.hi_x, arrays.hi_y)
        dists = mindist_arrays(*box).tolist()
        ties = itertools.repeat(_NODE_TIE)
        items = arrays.children
    count = len(dists)
    rows = zip(dists, ties, range(order, order + count), items)
    if math.isfinite(upper):
        # Upward pruning: nothing beyond the cut can enter the result.
        run = [row for row in rows if row[0] <= upper]
    else:
        run = list(rows)
    if not arrays.is_leaf:
        kept = len(run)
        if lower > 0.0:
            # Downward pruning: the MBR is fully inside the certain circle;
            # every object in it is already known to the client.  Tested on
            # what rule 2 kept (a row's order minus ``order`` is its column).
            maxdists = maxdist_arrays(*box).tolist()
            run = [row for row in run if not maxdists[row[2] - order] < lower]
        if tally is not None:
            tally.pruned_upward += count - kept
            tally.pruned_downward += kept - len(run)
    if run:
        run.sort()
        rest = iter(run)
        heapq.heappush(heap, next(rest) + (rest,))
    return order + count


def incremental_nearest(
    tree: RTree,
    query: Point,
    counter: Optional[PageAccessCounter] = None,
) -> Generator[NeighborResult, None, None]:
    """Yield neighbors of ``query`` in ascending distance order (INN).

    The generator is lazy: callers pull exactly as many neighbors as they
    need, which is what the SNNN algorithm's incremental expansion relies
    on.
    """
    if len(tree) == 0:
        return
    heap: List[_Queued] = []
    order = _push_run(heap, tree.read_node(tree.root, counter), query, 0)
    while heap:
        dist, tie, _, item, rest = heapq.heappop(heap)
        successor = next(rest, None)
        if successor is not None:
            heapq.heappush(heap, successor + (rest,))
        if tie is _NODE_TIE:
            order = _push_run(heap, tree.read_node(item, counter), query, order)
        else:
            yield NeighborResult(item.point, item.payload, dist)


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

    # The answer so far, at most k long: ``keys[i]`` is the (distance, tie)
    # that ranks ``sources[i]``, a certified neighbor or a leaf entry.
    sources: List[Any] = sorted(
        known_certain, key=lambda r: (r.distance, poi_tie_key(r.payload))
    )[:k]
    keys: List[Tuple[float, TieKey]] = [
        (r.distance, poi_tie_key(r.payload)) for r in sources
    ]
    known_keys = {poi_key(r.point, r.payload) for r in known_certain}
    # The client's upper bound caps the k-th *distance*; ties at the
    # bound are still admissible, so it pairs with the maximal tie.
    cap = (bounds.upper, _MAX_TIE)
    cut = min(cap, keys[k - 1]) if len(keys) >= k else cap

    if len(tree) > 0:
        lower = bounds.lower
        tally = counter.tally if counter is not None else None
        heap: List[_Queued] = []
        root = tree.read_node(tree.root, counter)
        order = _push_run(heap, root, query, 0, cut[0], lower, tally)
        while heap:
            dist, tie, _, item, rest = heapq.heappop(heap)
            key = (dist, tie)
            if key > cut:
                break
            successor = next(rest, None)
            if successor is not None:
                heapq.heappush(heap, successor + (rest,))
            if tie is _NODE_TIE:
                node = tree.read_node(item, counter)
                order = _push_run(heap, node, query, order, cut[0], lower, tally)
            elif not (known_keys and poi_key(item.point, item.payload) in known_keys):
                # Keep ascending (distance, tie) order; equal keys stay in
                # arrival order (small lists; O(n)).  An entry pushed past
                # k never comes back, since the cut only tightens.
                index = len(keys)
                while index > 0 and keys[index - 1] > key:
                    index -= 1
                keys.insert(index, key)
                sources.insert(index, item)
                if len(keys) > k:
                    keys.pop()
                    sources.pop()
                if len(keys) >= k:
                    cut = min(cap, keys[k - 1])

    # The only neighbors built: one per row returned.
    return [NeighborResult(s.point, s.payload, d) for (d, _), s in zip(keys, sources)]
