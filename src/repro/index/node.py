"""R-tree nodes and entries, with a struct-of-arrays mirror per node.

A node is one disk page.  Leaf nodes hold :class:`LeafEntry` records
(a point of interest and its payload); internal nodes hold
:class:`ChildEntry` records pointing to lower nodes.  Every node carries a
unique ``page_id`` so access accounting and buffer modelling can identify
it.

The entry list remains the source of truth (splits and reinsertion
manipulate it), but every node lazily mirrors its entries into a
:class:`NodeArrays` column layout — coordinate lists for leaves, NumPy
MBR bound arrays for internal nodes — so a traversal computes
MINDIST/MAXDIST for a whole node in one vectorized pass
(:mod:`repro.geometry.vecmath`).  The mirror is invalidated
automatically: ``entries`` is a :class:`_TrackedList` whose mutators
drop the cache, and rebinding ``node.entries`` wraps the new list.  The
R-tree property tests cross-check the mirror against the entry list
after each insert, delete and bulk load
(:func:`repro.testing.invariants.validate_rtree`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, SupportsIndex, Tuple, Union

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


class ChildEntry:
    """An internal-node entry: the child's MBR and the child itself.

    ``bbox`` is a property: rebinding it (``refresh_bbox`` after a
    subtree mutation, or a test corrupting an MBR on purpose) notifies
    the node currently holding this entry so its array mirror is
    rebuilt.  ``owner`` is maintained by the holding node's entry list.
    """

    __slots__ = ("_bbox", "child", "owner")

    def __init__(self, bbox: BoundingBox, child: "Node") -> None:
        self._bbox = bbox
        self.child = child
        self.owner: Optional["Node"] = None

    @property
    def bbox(self) -> BoundingBox:
        """The child's minimum bounding rectangle as stored in this page."""
        return self._bbox

    @bbox.setter
    def bbox(self, value: BoundingBox) -> None:
        """Replace the stored MBR and drop the holding node's mirror."""
        self._bbox = value
        owner = self.owner
        if owner is not None:
            owner._arrays = None

    def refresh_bbox(self) -> None:
        """Recompute the MBR from the child's current entries."""
        self.bbox = self.child.compute_bbox()

    def __repr__(self) -> str:
        return f"ChildEntry(bbox={self._bbox!r}, child={self.child!r})"


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

    Instances track the owning node's entry list: a plain ``append`` of
    a matching entry extends the columns in place
    (:meth:`append_entry`, the incremental-mirror path), while every
    other mutation drops the whole object so the next access rebuilds
    it.
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

    def append_entry(self, entry: Entry) -> bool:
        """Extend the columns in place for one appended entry.

        Returns False on an entry/mirror kind mismatch, in which case
        the caller must fall back to dropping the mirror.  The appended
        values are the same float64 coordinates ``__init__`` would have
        read, in the same order, so an extended mirror is bit-identical
        to a rebuilt one; the kNN layer's ``tie_keys`` memo is reset
        because it is parallel to the coordinate columns.
        """
        if self.is_leaf:
            if not isinstance(entry, LeafEntry):
                return False
            self.xs.append(entry.point.x)
            self.ys.append(entry.point.y)
            self.payloads.append(entry.payload)
            self.tie_keys = None
            return True
        if not isinstance(entry, ChildEntry):
            return False
        box = entry.bbox
        self.lo_x = np.append(self.lo_x, box.min_x)
        self.lo_y = np.append(self.lo_y, box.min_y)
        self.hi_x = np.append(self.hi_x, box.max_x)
        self.hi_y = np.append(self.hi_y, box.max_y)
        self.children.append(entry.child)
        return True


class _TrackedList(List[Entry]):
    """Entry list that drops the owner's array mirror on every mutation."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "Node", iterable: Iterable[Entry] = ()) -> None:
        super().__init__(iterable)
        self._owner = owner
        for item in self:
            if isinstance(item, ChildEntry):
                item.owner = owner

    # Every mutating list method funnels through here; additions also
    # adopt child entries so in-place MBR refreshes reach this node.
    def _touch(self) -> None:
        self._owner._arrays = None

    def _adopt(self, item: Entry) -> None:
        if isinstance(item, ChildEntry):
            item.owner = self._owner

    def append(self, item: Entry) -> None:
        super().append(item)
        self._adopt(item)
        # The incremental-mirror path (ROADMAP item 2): a live mirror is
        # extended in place instead of dropped; on a kind mismatch fall
        # back to invalidation.
        arrays = self._owner._arrays
        if arrays is None or not arrays.append_entry(item):
            self._touch()

    def extend(self, items: Iterable[Entry]) -> None:
        start = len(self)
        super().extend(items)
        arrays = self._owner._arrays
        for item in self[start:]:
            self._adopt(item)
            if arrays is not None and not arrays.append_entry(item):
                arrays = None
        if arrays is None:
            self._touch()

    def insert(self, index: SupportsIndex, item: Entry) -> None:
        super().insert(index, item)
        self._adopt(item)
        self._touch()

    def remove(self, item: Entry) -> None:
        super().remove(item)
        self._touch()

    def pop(self, index: SupportsIndex = -1) -> Entry:
        value = super().pop(index)
        self._touch()
        return value

    def clear(self) -> None:
        super().clear()
        self._touch()

    def sort(self, **kwargs: Any) -> None:
        super().sort(**kwargs)
        self._touch()

    def reverse(self) -> None:
        super().reverse()
        self._touch()

    def __setitem__(self, index: Any, value: Any) -> None:
        super().__setitem__(index, value)
        if isinstance(index, slice):
            for item in value:
                self._adopt(item)
        else:
            self._adopt(value)
        self._touch()

    def __delitem__(self, index: Any) -> None:
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, items: Iterable[Entry]) -> "_TrackedList":
        start = len(self)
        super().extend(items)
        for item in self[start:]:
            self._adopt(item)
        self._touch()
        return self

    def __imul__(self, count: SupportsIndex) -> "_TrackedList":
        result = super().__imul__(count)
        self._touch()
        return result


class Node:
    """One page of the R-tree.

    ``level`` is 0 for leaves and grows towards the root; forced
    reinsertion (R*) needs to reinsert orphaned entries at their original
    level, which is why nodes track it explicitly.
    """

    __slots__ = ("page_id", "level", "_entries", "_arrays")

    def __init__(self, level: int, entries: Optional[List[Entry]] = None) -> None:
        self.page_id: int = next(_page_ids)
        self.level = level
        self._arrays: Optional[NodeArrays] = None
        self._entries = _TrackedList(self, entries if entries is not None else ())

    @property
    def entries(self) -> List[Entry]:
        """The entry list; mutations invalidate the array mirror."""
        return self._entries

    @entries.setter
    def entries(self, value: List[Entry]) -> None:
        """Rebind the entry list (splits do this) and drop the mirror."""
        self._entries = _TrackedList(self, value)
        self._arrays = None

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
        bound, the same values the scalar ``union_all`` chain produced
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
