"""R-tree nodes and entries, with a struct-of-arrays mirror per node.

A node is one disk page.  Leaf nodes hold :class:`LeafEntry` records
(a point of interest and its payload); internal nodes hold
:class:`ChildEntry` records pointing to lower nodes.  Every node carries a
unique ``page_id`` so access accounting and buffer modelling can identify
it.

A node's entries are an immutable tuple, the source of truth, and every
node lazily mirrors them into a :class:`NodeArrays` column layout —
coordinate lists for leaves, NumPy MBR bound arrays for internal nodes —
so a traversal computes MINDIST/MAXDIST for a whole node in one
vectorized pass (:mod:`repro.geometry.vecmath`).  The ``entries`` setter
is the only way a node's entries change, and it drops the mirror, so a
stale mirror needs code that writes ``_entries`` behind the setter's
back.  The R-tree property tests cross-check any materialized mirror
against the entries after each insert, delete and bulk load
(:func:`repro.testing.invariants.validate_rtree`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.geometry.vecmath import FloatArray

__all__ = ["LeafEntry", "ChildEntry", "Node", "NodeArrays"]

_page_ids = itertools.count()


@dataclass(slots=True)
class LeafEntry:
    """A stored spatial object: a point plus an opaque payload."""

    point: Point
    payload: Any = None

    @property
    def bbox(self) -> BoundingBox:
        """Degenerate box at the point (uniform entry interface)."""
        return BoundingBox.from_point(self.point)


@dataclass(frozen=True, slots=True)
class ChildEntry:
    """An internal-node entry: the child's MBR and the child itself.

    An immutable value: when a subtree changes, its parent stores a new
    entry (:meth:`Node.refresh_child`) instead of editing this one.
    """

    bbox: BoundingBox
    child: "Node"


Entry = Union[LeafEntry, ChildEntry]


class NodeArrays:
    """Column (struct-of-arrays) mirror of one node's entries.

    Leaf nodes expose parallel coordinate lists (``xs``/``ys``; at leaf
    fan-out plain lists outrun ndarray dispatch) plus ``payloads``; the
    ``tie_keys`` slot starts ``None`` and is memoized by the kNN layer,
    which owns the tie-key function.  Internal nodes expose the four MBR
    bound arrays ``lo_x``/``lo_y``/``hi_x``/``hi_y`` (float64, one row
    per entry — together the ``lo[n, 2]``/``hi[n, 2]`` matrices of the
    vectorized layout) and the parallel ``children`` list.

    A snapshot: setting the owning node's ``entries`` drops it, and the
    next :meth:`Node.arrays` call builds a new one.
    """

    __slots__ = (
        "is_leaf",
        "xs",
        "ys",
        "payloads",
        "tie_keys",
        "lo_x",
        "lo_y",
        "hi_x",
        "hi_y",
        "children",
    )

    is_leaf: bool
    xs: List[float]
    ys: List[float]
    payloads: List[Any]
    tie_keys: Optional[List[Tuple[int, float, str]]]
    lo_x: FloatArray
    lo_y: FloatArray
    hi_x: FloatArray
    hi_y: FloatArray
    children: List["Node"]

    def __init__(self, node: "Node") -> None:
        self.is_leaf = node.is_leaf
        self.tie_keys = None
        if node.is_leaf:
            xs: List[float] = []
            ys: List[float] = []
            payloads: List[Any] = []
            for entry in node.entries:
                assert isinstance(entry, LeafEntry)
                xs.append(entry.point.x)
                ys.append(entry.point.y)
                payloads.append(entry.payload)
            self.xs = xs
            self.ys = ys
            self.payloads = payloads
            empty = np.empty(0, dtype=np.float64)
            self.lo_x = empty
            self.lo_y = empty
            self.hi_x = empty
            self.hi_y = empty
            self.children = []
        else:
            lo_x: List[float] = []
            lo_y: List[float] = []
            hi_x: List[float] = []
            hi_y: List[float] = []
            children: List["Node"] = []
            for entry in node.entries:
                assert isinstance(entry, ChildEntry)
                box = entry.bbox
                lo_x.append(box.min_x)
                lo_y.append(box.min_y)
                hi_x.append(box.max_x)
                hi_y.append(box.max_y)
                children.append(entry.child)
            self.xs = []
            self.ys = []
            self.payloads = []
            self.lo_x = np.array(lo_x, dtype=np.float64)
            self.lo_y = np.array(lo_y, dtype=np.float64)
            self.hi_x = np.array(hi_x, dtype=np.float64)
            self.hi_y = np.array(hi_y, dtype=np.float64)
            self.children = children

    def __len__(self) -> int:
        return len(self.xs) if self.is_leaf else len(self.children)


class Node:
    """One page of the R-tree.

    ``level`` is 0 for leaves and grows towards the root; forced
    reinsertion (R*) needs to reinsert orphaned entries at their original
    level, which is why nodes track it explicitly.
    """

    __slots__ = ("page_id", "level", "_entries", "_arrays")

    def __init__(self, level: int, entries: Iterable[Entry] = ()) -> None:
        self.page_id: int = next(_page_ids)
        self.level = level
        self._arrays: Optional[NodeArrays] = None
        self._entries: Tuple[Entry, ...] = tuple(entries)

    @property
    def entries(self) -> Tuple[Entry, ...]:
        """The node's entries, in page order."""
        return self._entries

    @entries.setter
    def entries(self, value: Iterable[Entry]) -> None:
        """Store a new entry tuple and drop the array mirror."""
        self._entries = tuple(value)
        self._arrays = None

    def refresh_child(self, child: "Node") -> None:
        """Replace the entry linking ``child`` with one holding its current MBR.

        An unchanged MBR leaves the entries, and so the array mirror, as
        they are.
        """
        entries = self._entries
        for index, entry in enumerate(entries):
            if isinstance(entry, ChildEntry) and entry.child is child:
                bbox = child.compute_bbox()
                if bbox != entry.bbox:
                    fresh = ChildEntry(bbox, child)
                    self.entries = entries[:index] + (fresh,) + entries[index + 1 :]
                return
        raise RuntimeError("parent/child relationship broken")

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes (their entries hold data points)."""
        return self.level == 0

    def __len__(self) -> int:
        return len(self._entries)

    def arrays(self) -> NodeArrays:
        """The column mirror of this node, rebuilt lazily after mutations."""
        cached = self._arrays
        if cached is None:
            cached = self._arrays = NodeArrays(self)
        return cached

    def compute_bbox(self) -> BoundingBox:
        """MBR of all entries (node must be non-empty).

        Reduced over the column mirror: one exact ``min``/``max`` per
        bound, the same values a scalar min/max chain over the entries gives
        (min/max are order-independent; a zero's sign never feeds any
        comparison downstream of ``hypot``'s absolute values).
        """
        if not self._entries:
            raise ValueError("cannot compute the bbox of an empty node")
        arrays = self.arrays()
        if self.is_leaf:
            return BoundingBox(
                min(arrays.xs), min(arrays.ys), max(arrays.xs), max(arrays.ys)
            )
        return BoundingBox(
            float(arrays.lo_x.min()),
            float(arrays.lo_y.min()),
            float(arrays.hi_x.max()),
            float(arrays.hi_y.max()),
        )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return f"Node(page={self.page_id}, {kind}, {len(self._entries)} entries)"
