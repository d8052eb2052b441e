"""R-tree spatial index with Guttman and R* insertion policies.

The paper's server module indexes POIs "with the well known R*-tree
algorithm" (Section 4.1) using a branching factor of 30 (Section 4.4).
This module implements the full dynamic structure:

- ChooseSubtree with the R*-tree's least-overlap-enlargement rule at the
  level above the leaves;
- OverflowTreatment with forced reinsertion (30 % of entries, reinserted
  closest-first) the first time a level overflows per insertion;
- two split algorithms: Guttman's quadratic split and the R* axis/margin
  split, selectable per tree so the ablation benchmark can compare them;
- STR bulk loading for building large static POI sets quickly.

kNN search lives in :mod:`repro.index.knn`; it only needs the read-side
interface (``root``, ``read_node``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vecmath import FloatArray, hypot_pairs
from repro.index.node import ChildEntry, Entry, LeafEntry, Node
from repro.index.pagestats import PageAccessCounter
from repro.obs import OBS, Counter, Instrument

__all__ = ["RTree", "RTreeConfig", "SplitPolicy"]

_SPLITS = Instrument(Counter, "rtree.splits", "policy")
_REINSERTS = Instrument(Counter, "rtree.reinserts")


class SplitPolicy(enum.Enum):
    """Node split algorithm used on overflow."""

    QUADRATIC = "quadratic"
    RSTAR = "rstar"


@dataclass(frozen=True)
class RTreeConfig:
    """Structural parameters of the tree.

    ``max_entries`` matches the paper's branching factor of 30 by default.
    ``min_fill`` is the usual 40 % fill guarantee.  ``reinsert_fraction``
    is the share of entries evicted by R* forced reinsertion.
    """

    max_entries: int = 30
    min_fill: float = 0.4
    split_policy: SplitPolicy = SplitPolicy.RSTAR
    reinsert_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        if not 0.0 < self.min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        if not 0.0 < self.reinsert_fraction < 1.0:
            raise ValueError("reinsert_fraction must be in (0, 1)")

    @property
    def min_entries(self) -> int:
        """Minimum fanout derived from ``min_fill`` (never below 2)."""
        return max(2, int(self.max_entries * self.min_fill))


class RTree:
    """A dynamic R-tree over 2-D points.

    >>> tree = RTree()
    >>> tree.insert(Point(1.0, 2.0), payload="poi-1")
    >>> len(tree)
    1
    """

    def __init__(self, config: Optional[RTreeConfig] = None) -> None:
        self.config = config if config is not None else RTreeConfig()
        self._root = Node(level=0)
        self._size = 0
        self.split_count = 0
        self.reinsert_count = 0

    # ------------------------------------------------------------------
    # read-side interface (kNN search uses only these)
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        """The root node (read-only; the tree rebinds it on growth)."""
        return self._root

    @staticmethod
    def read_node(node: Node, counter: Optional[PageAccessCounter]) -> Node:
        """Account one page access and hand the node back.

        This is the single chokepoint every traversal (INN, EINN,
        depth-first) reads nodes through.  A metered read is
        billed to ``counter``, whose per-query record carries it to the
        global ``rtree.node_reads`` counter when the query finishes; an
        unmetered one (``counter is None``) is not a page access and
        counts nowhere.

        One *node* visit is one page access, however many of its entries
        the vectorized kernels scan — the whole-node array pass bills
        exactly one read (``record_scan``), keeping the paper's Figure-17
        metric intact while still exposing the scanned entry count.
        """
        if counter is not None:
            counter.record_scan(node.page_id, node.is_leaf, len(node.entries))
        return node

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a root leaf)."""
        return self._root.level + 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def insert(self, point: Point, payload: Any = None) -> None:
        """Insert one point with an opaque payload."""
        self._insert_entry(LeafEntry(point, payload), level=0, reinserted_levels=set())
        self._size += 1

    def delete(self, point: Point, payload: Any = None) -> bool:
        """Remove one entry matching ``point`` (and ``payload``, if given).

        Implements Guttman's CondenseTree: the leaf loses the entry,
        underfull nodes along the path are dissolved and their surviving
        entries reinserted at their original level, and a root with a
        single child is shortened.  Returns False when no match exists.
        """
        found = self._find_leaf_path(self._root, point, payload, [])
        if found is None:
            return False
        path, entry = found
        leaf = path[-1]
        leaf.entries = tuple(e for e in leaf.entries if e is not entry)
        self._size -= 1
        self._condense(path)
        return True

    def _find_leaf_path(
        self,
        node: Node,
        point: Point,
        payload: Any,
        path: List[Node],
    ) -> Optional[Tuple[List[Node], LeafEntry]]:
        path = path + [node]
        if node.is_leaf:
            for entry in node.entries:
                assert isinstance(entry, LeafEntry)
                if entry.point == point and (payload is None or entry.payload == payload):
                    return path, entry
            return None
        target = BoundingBox.from_point(point)
        for entry in node.entries:
            assert isinstance(entry, ChildEntry)
            if entry.bbox.contains_box(target):
                found = self._find_leaf_path(entry.child, point, payload, path)
                if found is not None:
                    return found
        return None

    def _condense(self, path: List[Node]) -> None:
        """CondenseTree: dissolve underfull nodes bottom-up and reinsert.

        Dissolved subtrees are flattened to their leaf entries before
        reinsertion -- marginally more work than Guttman's same-level
        reinsertion but immune to the empty-root corner cases.
        """
        orphans: List[LeafEntry] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            still_linked = any(
                isinstance(e, ChildEntry) and e.child is node for e in parent.entries
            )
            if not still_linked:
                continue
            if len(node.entries) < self.config.min_entries:
                orphans.extend(_collect_leaf_entries(node))
                parent.entries = [
                    e
                    for e in parent.entries
                    if not (isinstance(e, ChildEntry) and e.child is node)
                ]
            else:
                # Bottom-up: the node's own subtree is settled by now, so
                # one refresh per surviving level is enough.
                parent.refresh_child(node)
        # Shorten the root before reinserting: it may hold one child (or
        # none, when the whole population is in the orphan list).
        while not self._root.is_leaf and len(self._root.entries) == 1:
            only = self._root.entries[0]
            assert isinstance(only, ChildEntry)
            self._root = only.child
        if not self._root.is_leaf and not self._root.entries:
            self._root = Node(level=0)
        for entry in orphans:
            self._insert_entry(entry, 0, reinserted_levels=set())

    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[Point, Any]],
        config: Optional[RTreeConfig] = None,
    ) -> "RTree":
        """Build a tree bottom-up with Sort-Tile-Recursive packing.

        STR produces well-shaped static trees in O(n log n); the paper's
        POI sets are static so the server uses this for large inputs.
        """
        tree = cls(config)
        if not items:
            return tree
        leaf_entries: List[Entry] = [LeafEntry(p, payload) for p, payload in items]
        level = 0
        entries = leaf_entries
        capacity = tree.config.max_entries
        while len(entries) > capacity:
            nodes = _str_pack(entries, capacity, level)
            entries = [ChildEntry(node.compute_bbox(), node) for node in nodes]
            level += 1
        tree._root = Node(level=level, entries=entries)
        tree._size = len(items)
        return tree

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[LeafEntry]:
        """Yield every stored leaf entry (no access accounting)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries  # type: ignore[misc]
            else:
                stack.extend(entry.child for entry in node.entries)  # type: ignore[union-attr]

    def node_count(self) -> int:
        """Total number of nodes (pages) in the tree."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)  # type: ignore[union-attr]
        return count

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: Entry, level: int, reinserted_levels: Set[int]) -> None:
        path = self._choose_path(entry.bbox, level)
        path[-1].entries += (entry,)
        self._propagate_up(path, reinserted_levels)

    def _choose_path(self, bbox: BoundingBox, level: int) -> List[Node]:
        """Descend from the root to a node at ``level``, collecting the path."""
        path = [self._root]
        while path[-1].level > level:
            node = path[-1]
            chosen = self._choose_subtree(node, bbox)
            path.append(chosen.child)
        return path

    def _choose_subtree(self, node: Node, bbox: BoundingBox) -> ChildEntry:
        """Pick the child to descend into, by the R*/Guttman rules.

        All candidate metrics for the node come from one vectorized pass
        over its bound arrays.  Each float equals the scalar formula
        bit-for-bit (exact IEEE min/max/sub/mul; row sums replay the
        scalar left-to-right accumulation), and the final ``min`` over
        key tuples keeps Python's first-wins tie behaviour, so the chosen
        subtree — and hence the whole tree shape — is unchanged.
        """
        entries = node.entries
        arrays = node.arrays()
        lo_x, lo_y = arrays.lo_x, arrays.lo_y
        hi_x, hi_y = arrays.hi_x, arrays.hi_y
        areas = (hi_x - lo_x) * (hi_y - lo_y)
        glo_x = np.minimum(lo_x, bbox.min_x)
        glo_y = np.minimum(lo_y, bbox.min_y)
        ghi_x = np.maximum(hi_x, bbox.max_x)
        ghi_y = np.maximum(hi_y, bbox.max_y)
        enlargements = ((ghi_x - glo_x) * (ghi_y - glo_y) - areas).tolist()
        area_list = areas.tolist()
        count = len(entries)
        use_overlap = (
            self.config.split_policy is SplitPolicy.RSTAR and node.level == 1
        )
        if use_overlap:
            # R* rule for the level above the leaves: minimize overlap
            # enlargement, tie-break on area enlargement, then area.
            grown = _overlap_matrix(glo_x, glo_y, ghi_x, ghi_y, lo_x, lo_y, hi_x, hi_y)
            own = _overlap_matrix(lo_x, lo_y, hi_x, hi_y, lo_x, lo_y, hi_x, hi_y)
            grown_rows = grown.tolist()
            own_rows = own.tolist()
            deltas = []
            for index in range(count):
                grown_row = grown_rows[index]
                own_row = own_rows[index]
                del grown_row[index], own_row[index]
                # sum() replays the scalar `total += ...` add order.
                deltas.append(sum(grown_row) - sum(own_row))
            chosen = min(
                range(count),
                key=lambda i: (deltas[i], enlargements[i], area_list[i]),
            )
        else:
            chosen = min(
                range(count), key=lambda i: (enlargements[i], area_list[i])
            )
        return entries[chosen]  # type: ignore[return-value]

    def _propagate_up(self, path: List[Node], reinserted_levels: Set[int]) -> None:
        """Fix MBRs bottom-up and resolve overflows by reinsert or split."""
        depth = len(path) - 1
        while depth >= 0:
            node = path[depth]
            parent = path[depth - 1] if depth > 0 else None
            if parent is not None:
                parent.refresh_child(node)
            if len(node.entries) > self.config.max_entries:
                if (
                    self.config.split_policy is SplitPolicy.RSTAR
                    and parent is not None
                    and node.level not in reinserted_levels
                ):
                    reinserted_levels.add(node.level)
                    self._force_reinsert(path, depth, reinserted_levels)
                    return
                new_node = self._split_node(node)
                self.split_count += 1
                if OBS.enabled:
                    _SPLITS(self.config.split_policy.value).inc()
                if parent is None:
                    self._grow_root(node, new_node)
                    return
                parent.refresh_child(node)
                parent.entries += (ChildEntry(new_node.compute_bbox(), new_node),)
            depth -= 1

    def _grow_root(self, old_root: Node, sibling: Node) -> None:
        self._root = Node(
            level=old_root.level + 1,
            entries=[
                ChildEntry(old_root.compute_bbox(), old_root),
                ChildEntry(sibling.compute_bbox(), sibling),
            ],
        )

    def _force_reinsert(
        self, path: List[Node], depth: int, reinserted_levels: Set[int]
    ) -> None:
        """R* OverflowTreatment: evict the entries farthest from the node
        center and reinsert them (closest first) at the same level."""
        node = path[depth]
        center = node.compute_bbox().center
        cx, cy = _entry_centers(node.entries)
        # One hypot pass for all entry-center distances; the stable index
        # sort reproduces the scalar sorted(key=distance) permutation.
        dists = list(
            map(
                math.hypot,
                [x - center.x for x in cx],
                [y - center.y for y in cy],
            )
        )
        order = sorted(range(len(dists)), key=dists.__getitem__)
        ordered = [node.entries[index] for index in order]
        evict_count = max(1, int(len(ordered) * self.config.reinsert_fraction))
        keep = ordered[: len(ordered) - evict_count]
        orphans = ordered[len(ordered) - evict_count :]
        node.entries = keep
        self.reinsert_count += 1
        if OBS.enabled:
            _REINSERTS().inc()
        # Ancestor MBRs must reflect the eviction before reinserting.
        for i in range(depth, 0, -1):
            path[i - 1].refresh_child(path[i])
        for orphan in orphans:
            self._insert_entry(orphan, node.level, reinserted_levels)

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------
    def _split_node(self, node: Node) -> Node:
        if self.config.split_policy is SplitPolicy.QUADRATIC:
            group_a, group_b = _split_quadratic(node.entries, self.config.min_entries)
        else:
            group_a, group_b = _split_rstar(node.entries, self.config.min_entries)
        node.entries = group_a
        return Node(level=node.level, entries=group_b)


# ----------------------------------------------------------------------
# vectorized geometry helpers (exact replicas of the scalar formulas)
# ----------------------------------------------------------------------
def _overlap_matrix(
    alo_x: FloatArray,
    alo_y: FloatArray,
    ahi_x: FloatArray,
    ahi_y: FloatArray,
    blo_x: FloatArray,
    blo_y: FloatArray,
    bhi_x: FloatArray,
    bhi_y: FloatArray,
) -> FloatArray:
    """``overlap_area`` for every (A-box, B-box) pair, rows = A boxes.

    Matches ``BoundingBox.overlap_area`` element-wise: intersection
    bounds by exact min/max, 0.0 when disjoint on either axis.
    """
    w = np.minimum(ahi_x[:, None], bhi_x[None, :]) - np.maximum(
        alo_x[:, None], blo_x[None, :]
    )
    h = np.minimum(ahi_y[:, None], bhi_y[None, :]) - np.maximum(
        alo_y[:, None], blo_y[None, :]
    )
    result: FloatArray = np.where((w < 0.0) | (h < 0.0), 0.0, w * h)
    return result


def _entry_bounds(
    entries: Sequence[Entry],
) -> Tuple[FloatArray, FloatArray, FloatArray, FloatArray]:
    """Column bound arrays for a plain entry list (split machinery).

    Leaf entries contribute their degenerate point box, exactly like
    ``LeafEntry.bbox`` — without materializing a ``BoundingBox`` per
    entry per comparison.
    """
    count = len(entries)
    lo_x = np.empty(count, dtype=np.float64)
    lo_y = np.empty(count, dtype=np.float64)
    hi_x = np.empty(count, dtype=np.float64)
    hi_y = np.empty(count, dtype=np.float64)
    for index, entry in enumerate(entries):
        if isinstance(entry, LeafEntry):
            point = entry.point
            lo_x[index] = hi_x[index] = point.x
            lo_y[index] = hi_y[index] = point.y
        else:
            box = entry.bbox
            lo_x[index] = box.min_x
            lo_y[index] = box.min_y
            hi_x[index] = box.max_x
            hi_y[index] = box.max_y
    return lo_x, lo_y, hi_x, hi_y


def _entry_centers(entries: Sequence[Entry]) -> Tuple[List[float], List[float]]:
    """Per-entry MBR center coordinates, as ``bbox.center`` computes them."""
    cx: List[float] = []
    cy: List[float] = []
    for entry in entries:
        if isinstance(entry, LeafEntry):
            point = entry.point
            cx.append((point.x + point.x) / 2.0)
            cy.append((point.y + point.y) / 2.0)
        else:
            box = entry.bbox
            cx.append((box.min_x + box.max_x) / 2.0)
            cy.append((box.min_y + box.max_y) / 2.0)
    return cx, cy


# ----------------------------------------------------------------------
# split algorithms (module-level: they operate on plain entry lists)
# ----------------------------------------------------------------------
def _split_quadratic(
    entries: Sequence[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    """Guttman's quadratic split (PickSeeds/PickNext over bound arrays)."""
    lo_x, lo_y, hi_x, hi_y = _entry_bounds(entries)
    seed_a, seed_b = _pick_seeds_indexed(lo_x, lo_y, hi_x, hi_y)
    remaining = [i for i in range(len(entries)) if i not in (seed_a, seed_b)]
    group_a, group_b = [seed_a], [seed_b]
    bbox_a, bbox_b = entries[seed_a].bbox, entries[seed_b].bbox
    while remaining:
        # Honor the minimum fill guarantee.
        if len(group_a) + len(remaining) == min_entries:
            group_a.extend(remaining)
            break
        if len(group_b) + len(remaining) == min_entries:
            group_b.extend(remaining)
            break
        pos, prefer_a = _pick_next_indexed(
            remaining,
            (lo_x, lo_y, hi_x, hi_y),
            bbox_a,
            bbox_b,
            len(group_a),
            len(group_b),
        )
        index = remaining.pop(pos)
        if prefer_a:
            group_a.append(index)
            bbox_a = bbox_a.union(entries[index].bbox)
        else:
            group_b.append(index)
            bbox_b = bbox_b.union(entries[index].bbox)
    return (
        [entries[i] for i in group_a],
        [entries[i] for i in group_b],
    )


def _pick_seeds_indexed(
    lo_x: FloatArray, lo_y: FloatArray, hi_x: FloatArray, hi_y: FloatArray
) -> Tuple[int, int]:
    """PickSeeds over bound arrays: indices of the max-waste pair.

    The full waste matrix computes in one broadcasted pass;
    ``np.argmax`` returns the *first* maximum in row-major order, which
    is exactly the pair the scalar ``i < j`` double loop with a strict
    ``>`` improvement test would keep.
    """
    count = len(lo_x)
    areas = (hi_x - lo_x) * (hi_y - lo_y)
    cw = np.maximum(hi_x[:, None], hi_x[None, :]) - np.minimum(
        lo_x[:, None], lo_x[None, :]
    )
    ch = np.maximum(hi_y[:, None], hi_y[None, :]) - np.minimum(
        lo_y[:, None], lo_y[None, :]
    )
    waste = cw * ch - areas[:, None] - areas[None, :]
    # NaN waste never wins a strict > comparison in the scalar loop;
    # the diagonal and lower triangle are not legal pairs at all.
    waste = np.where(np.isnan(waste), -np.inf, waste)
    waste[np.tril_indices(count)] = -np.inf
    flat = int(np.argmax(waste))
    if waste.flat[flat] == -np.inf:
        return 0, 1
    return divmod(flat, count)


def _pick_next_indexed(
    remaining: Sequence[int],
    bounds: Tuple[FloatArray, FloatArray, FloatArray, FloatArray],
    bbox_a: BoundingBox,
    bbox_b: BoundingBox,
    size_a: int,
    size_b: int,
) -> Tuple[int, bool]:
    """PickNext: position (in ``remaining``) of the strongest preference."""
    lo_x, lo_y, hi_x, hi_y = bounds
    idx = np.fromiter(remaining, np.intp, count=len(remaining))
    rlo_x, rlo_y = lo_x[idx], lo_y[idx]
    rhi_x, rhi_y = hi_x[idx], hi_y[idx]
    d_a = (
        np.maximum(rhi_x, bbox_a.max_x) - np.minimum(rlo_x, bbox_a.min_x)
    ) * (
        np.maximum(rhi_y, bbox_a.max_y) - np.minimum(rlo_y, bbox_a.min_y)
    ) - bbox_a.area
    d_b = (
        np.maximum(rhi_x, bbox_b.max_x) - np.minimum(rlo_x, bbox_b.min_x)
    ) * (
        np.maximum(rhi_y, bbox_b.max_y) - np.minimum(rlo_y, bbox_b.min_y)
    ) - bbox_b.area
    diff = np.abs(d_a - d_b)
    pos = int(np.argmax(np.where(np.isnan(diff), -np.inf, diff)))
    best_a = float(d_a[pos])
    best_b = float(d_b[pos])
    if best_a != best_b:
        prefer_a = best_a < best_b
    elif bbox_a.area != bbox_b.area:
        prefer_a = bbox_a.area < bbox_b.area
    else:
        prefer_a = size_a <= size_b
    return pos, prefer_a


def _split_rstar(
    entries: Sequence[Entry], min_entries: int
) -> Tuple[List[Entry], List[Entry]]:
    """R* split: choose the axis with minimal margin sum, then the
    distribution with minimal overlap (tie-break on combined area).

    All four candidate orderings and every candidate distribution are
    evaluated on prefix/suffix min-max accumulations of the bound
    arrays.  min/max are exact and order-independent, the margin and
    area arithmetic replays the scalar grouping, and the selection
    loops keep the scalar first-wins strict-improvement semantics, so
    the chosen split is identical entry-for-entry.
    """
    count = len(entries)
    lo_x, lo_y, hi_x, hi_y = _entry_bounds(entries)
    lo_slice = slice(min_entries - 1, count - min_entries)
    hi_slice = slice(min_entries, count - min_entries + 1)

    best_margin = math.inf
    best: Optional[Tuple[FloatArray, ...]] = None
    # Axis candidates in the scalar visit order: x-lower, x-upper,
    # y-lower, y-upper.
    for sort_key in (lo_x, hi_x, lo_y, hi_y):
        perm = np.argsort(sort_key, kind="stable")
        slo_x, slo_y = lo_x[perm], lo_y[perm]
        shi_x, shi_y = hi_x[perm], hi_y[perm]
        plo_x = np.minimum.accumulate(slo_x)
        plo_y = np.minimum.accumulate(slo_y)
        phi_x = np.maximum.accumulate(shi_x)
        phi_y = np.maximum.accumulate(shi_y)
        qlo_x = np.minimum.accumulate(slo_x[::-1])[::-1]
        qlo_y = np.minimum.accumulate(slo_y[::-1])[::-1]
        qhi_x = np.maximum.accumulate(shi_x[::-1])[::-1]
        qhi_y = np.maximum.accumulate(shi_y[::-1])[::-1]
        margin_a = (phi_x[lo_slice] - plo_x[lo_slice]) + (
            phi_y[lo_slice] - plo_y[lo_slice]
        )
        margin_b = (qhi_x[hi_slice] - qlo_x[hi_slice]) + (
            qhi_y[hi_slice] - qlo_y[hi_slice]
        )
        # sum() replays the scalar `total += margin_a + margin_b` order.
        margin = sum((margin_a + margin_b).tolist())
        if margin < best_margin:
            best_margin = margin
            best = (perm, plo_x, plo_y, phi_x, phi_y, qlo_x, qlo_y, qhi_x, qhi_y)
    assert best is not None
    perm, plo_x, plo_y, phi_x, phi_y, qlo_x, qlo_y, qhi_x, qhi_y = best

    olo_x = np.maximum(plo_x[lo_slice], qlo_x[hi_slice])
    olo_y = np.maximum(plo_y[lo_slice], qlo_y[hi_slice])
    ohi_x = np.minimum(phi_x[lo_slice], qhi_x[hi_slice])
    ohi_y = np.minimum(phi_y[lo_slice], qhi_y[hi_slice])
    w = ohi_x - olo_x
    h = ohi_y - olo_y
    overlaps = np.where((w < 0.0) | (h < 0.0), 0.0, w * h)
    area_a = (phi_x[lo_slice] - plo_x[lo_slice]) * (phi_y[lo_slice] - plo_y[lo_slice])
    area_b = (qhi_x[hi_slice] - qlo_x[hi_slice]) * (qhi_y[hi_slice] - qlo_y[hi_slice])
    area_sums = area_a + area_b

    best_split = min_entries
    best_key = (math.inf, math.inf)
    for offset, key in enumerate(zip(overlaps.tolist(), area_sums.tolist())):
        if key < best_key:
            best_key = key
            best_split = min_entries + offset
    ordered = [entries[i] for i in perm.tolist()]
    return ordered[:best_split], ordered[best_split:]


def _collect_leaf_entries(node: Node) -> List[LeafEntry]:
    """Flatten a subtree to its stored leaf entries."""
    collected: List[LeafEntry] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            collected.extend(current.entries)  # type: ignore[arg-type]
        else:
            stack.extend(
                entry.child  # type: ignore[union-attr]
                for entry in current.entries
            )
    return collected


def _str_pack(entries: List[Entry], capacity: int, level: int) -> List[Node]:
    """One level of Sort-Tile-Recursive packing.

    Sort keys (MBR centers) come from one pass over the entry list
    instead of a ``BoundingBox``/``Point`` construction per key; the
    index sorts are stable like the scalar entry sorts, so tiles are
    identical.
    """
    count = len(entries)
    node_count = math.ceil(count / capacity)
    slice_count = math.ceil(math.sqrt(node_count))
    cx, cy = _entry_centers(entries)
    by_x = sorted(range(count), key=cx.__getitem__)
    slice_size = math.ceil(count / slice_count)
    nodes: List[Node] = []
    for i in range(0, count, slice_size):
        vertical = sorted(by_x[i : i + slice_size], key=cy.__getitem__)
        for j in range(0, len(vertical), capacity):
            nodes.append(
                Node(
                    level=level,
                    entries=[entries[t] for t in vertical[j : j + capacity]],
                )
            )
    return nodes
