"""Invariant validators for the hot data structures.

Plain functions that the tests driving each operation call on the
structure it just changed: the property tests of the candidate heap
and the R*-tree, and the accounting tests of the server's page counter.
Nothing in the product calls them.

Three families:

- :func:`validate_rtree` -- structural soundness of the R*-tree: child
  MBR containment *and* tightness, fill bounds, uniform leaf depth,
  entry-count bookkeeping, and coherence of each node's materialized
  :class:`~repro.index.node.NodeArrays` column mirror against its entry
  tuple (the vectorized kernels read the mirror, so a stale cache would
  silently desynchronize every distance computation; the ``entries``
  setter drops it, so only a write behind the setter can leave it
  stale);
- :func:`check_heap_structure` / :func:`check_heap_transition` -- the
  candidate heap's Table 1 layout and the legal Section 3.3 state
  machine (:data:`HEAP_TRANSITIONS`);
- :func:`verify_conservation` -- the page-accounting conservation law of
  a quiescent :class:`~repro.index.pagestats.PageAccessCounter`.

The structural validators raise :class:`InvariantViolation` (an
``AssertionError`` subclass, so ``pytest.raises(AssertionError)`` also
catches it); :func:`verify_conservation` returns its findings as a list.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.heap import CandidateHeap, HeapEntry, HeapState
from repro.index.node import ChildEntry, LeafEntry, Node
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree

__all__ = [
    "HEAP_TRANSITIONS",
    "InvariantViolation",
    "check_heap_structure",
    "check_heap_transition",
    "validate_rtree",
    "verify_conservation",
]


class InvariantViolation(AssertionError):
    """A structural invariant of the reproduction has been broken."""


# ----------------------------------------------------------------------
# candidate heap (Sections 3.2.1 / 3.3)
# ----------------------------------------------------------------------
#: Legal one-``add`` transitions of the Section 3.3 state machine.
#:
#: Derived from the heap maintenance rules: entries are never demoted
#: (certain stays certain), uncertain entries exist only while fewer
#: than ``k`` certain ones are known, and ``COMPLETE`` is absorbing.
#: Self-transitions (no-op adds, displacements) are always legal and
#: included explicitly.
HEAP_TRANSITIONS: Dict[HeapState, FrozenSet[HeapState]] = {
    HeapState.EMPTY: frozenset(
        {
            HeapState.EMPTY,
            HeapState.PARTIAL_UNCERTAIN,
            HeapState.PARTIAL_CERTAIN,
            HeapState.FULL_UNCERTAIN,  # k == 1, uncertain offer
            HeapState.COMPLETE,  # k == 1, certain offer
        }
    ),
    HeapState.PARTIAL_UNCERTAIN: frozenset(
        {
            HeapState.PARTIAL_UNCERTAIN,
            HeapState.PARTIAL_MIXED,
            HeapState.PARTIAL_CERTAIN,  # upgrade of the only uncertain entry
            HeapState.FULL_UNCERTAIN,
            HeapState.FULL_MIXED,
        }
    ),
    HeapState.PARTIAL_MIXED: frozenset(
        {
            HeapState.PARTIAL_MIXED,
            HeapState.PARTIAL_CERTAIN,  # upgrade of the last uncertain entry
            HeapState.FULL_MIXED,
        }
    ),
    HeapState.PARTIAL_CERTAIN: frozenset(
        {
            HeapState.PARTIAL_CERTAIN,
            HeapState.PARTIAL_MIXED,
            HeapState.FULL_MIXED,
            HeapState.COMPLETE,
        }
    ),
    HeapState.FULL_UNCERTAIN: frozenset(
        {
            HeapState.FULL_UNCERTAIN,
            HeapState.FULL_MIXED,
            HeapState.COMPLETE,  # k == 1, certain displaces the uncertain entry
        }
    ),
    HeapState.FULL_MIXED: frozenset({HeapState.FULL_MIXED, HeapState.COMPLETE}),
    HeapState.COMPLETE: frozenset({HeapState.COMPLETE}),
}


def check_heap_transition(before: HeapState, after: HeapState) -> None:
    """Assert that one ``add`` may move the heap from ``before`` to ``after``."""
    legal = HEAP_TRANSITIONS[before]
    if after not in legal:
        raise InvariantViolation(
            f"illegal heap state transition {before.value} -> {after.value}; "
            f"legal successors: {sorted(s.value for s in legal)}"
        )


def check_heap_structure(heap: CandidateHeap) -> None:
    """Assert the Table 1 structural invariants of ``heap``."""
    certain: List[HeapEntry] = heap._certain
    uncertain: List[HeapEntry] = heap._uncertain
    index = heap._index

    if len(certain) + len(uncertain) > heap.capacity:
        raise InvariantViolation(
            f"heap holds {len(certain) + len(uncertain)} entries, "
            f"capacity is {heap.capacity}"
        )
    if len(certain) + len(uncertain) != len(index):
        raise InvariantViolation(
            "heap index out of sync: "
            f"{len(certain) + len(uncertain)} entries vs {len(index)} index keys"
        )
    if uncertain and len(certain) >= heap.capacity:
        raise InvariantViolation(
            "uncertain entries present although k certain entries are known"
        )
    for bucket, expect_certain, name in (
        (certain, True, "certain"),
        (uncertain, False, "uncertain"),
    ):
        previous = -1.0
        for entry in bucket:
            if entry.certain is not expect_certain:
                raise InvariantViolation(
                    f"{name} bucket holds an entry flagged certain={entry.certain}"
                )
            if entry.distance < 0.0:
                raise InvariantViolation("negative distance stored in heap")
            if entry.distance < previous:
                raise InvariantViolation(
                    f"{name} bucket not in ascending distance order: "
                    f"{entry.distance} after {previous}"
                )
            previous = entry.distance
            if index.get(entry.key()) is not entry:
                raise InvariantViolation(
                    f"heap index does not point at the stored {name} entry"
                )


# ----------------------------------------------------------------------
# R*-tree structure
# ----------------------------------------------------------------------
def validate_rtree(tree: RTree, strict_fill: bool = True) -> None:
    """Assert the structural invariants of ``tree``.

    Checks, for every node reachable from the root:

    - levels decrease by exactly one per edge and leaves sit at level 0
      (uniform leaf depth);
    - leaf nodes hold only :class:`LeafEntry`, internal only
      :class:`ChildEntry`;
    - every ``ChildEntry.bbox`` both *contains* and *is contained by*
      the child's recomputed MBR (containment ensures search soundness,
      tightness catches shrink misses after deletes);
    - no node is referenced twice (aliasing / orphan corruption);
    - fill bounds: at most ``max_entries`` everywhere; at least
      ``min_entries`` for non-root nodes when ``strict_fill``, else at
      least one -- callers validating a bulk-loaded tree pass
      ``strict_fill=False``, because STR packing legitimately leaves one
      trailing under-filled node per level;
    - an internal root has at least two children;
    - the number of reachable leaf entries equals ``len(tree)``;
    - any *materialized* :class:`~repro.index.node.NodeArrays` mirror
      agrees exactly with the node's entry list (coordinates, payload
      identity, MBR bounds, child identity, and the memoized tie keys'
      length).  Unmaterialized mirrors are skipped — building one just
      to compare it against its own source would prove nothing.
    """
    config = tree.config
    root = tree.root
    seen: Set[int] = set()
    leaf_entries = 0

    stack: List[Tuple[Node, bool]] = [(root, True)]
    while stack:
        node, is_root = stack.pop()
        # id() here detects aliased node objects inside one tree walk; the
        # identities never escape the traversal, so replay is unaffected.
        if id(node) in seen:
            raise InvariantViolation(
                f"node page={node.page_id} is referenced more than once"
            )
        seen.add(id(node))

        count = len(node.entries)
        if count > config.max_entries:
            raise InvariantViolation(
                f"node page={node.page_id} holds {count} entries "
                f"(max {config.max_entries})"
            )
        if is_root:
            if not node.is_leaf and count < 2:
                raise InvariantViolation(
                    f"internal root page={node.page_id} has {count} children; "
                    "a single-child root must be shortened"
                )
        else:
            minimum = config.min_entries if strict_fill else 1
            if count < minimum:
                raise InvariantViolation(
                    f"non-root node page={node.page_id} (level {node.level}) "
                    f"holds {count} entries (min {minimum})"
                )

        _check_node_arrays(node)

        if node.is_leaf:
            for entry in node.entries:
                if not isinstance(entry, LeafEntry):
                    raise InvariantViolation(
                        f"leaf page={node.page_id} holds a non-leaf entry"
                    )
                leaf_entries += 1
        else:
            for entry in node.entries:
                if not isinstance(entry, ChildEntry):
                    raise InvariantViolation(
                        f"internal page={node.page_id} holds a non-child entry"
                    )
                child = entry.child
                if child.level != node.level - 1:
                    raise InvariantViolation(
                        f"level skew: page={node.page_id} at level {node.level} "
                        f"points to page={child.page_id} at level {child.level}"
                    )
                if not child.entries:
                    raise InvariantViolation(
                        f"empty node page={child.page_id} linked from "
                        f"page={node.page_id}"
                    )
                computed = child.compute_bbox()
                if not entry.bbox.contains_box(computed):
                    raise InvariantViolation(
                        f"MBR containment violation: page={node.page_id} entry "
                        f"box {entry.bbox} does not contain child "
                        f"page={child.page_id} box {computed}"
                    )
                if not computed.contains_box(entry.bbox):
                    raise InvariantViolation(
                        f"MBR tightness violation (shrink miss): "
                        f"page={node.page_id} entry box {entry.bbox} is larger "
                        f"than child page={child.page_id} box {computed}"
                    )
                stack.append((child, False))

    if leaf_entries != len(tree):
        raise InvariantViolation(
            f"tree bookkeeping broken: {leaf_entries} reachable leaf entries, "
            f"len(tree) reports {len(tree)} (orphaned or duplicated entries)"
        )


def _check_node_arrays(node: Node) -> None:
    """Assert a materialized column mirror matches the entry list exactly.

    The vectorized kernels trust ``node.arrays()`` blindly.  Setting
    ``node.entries`` drops the mirror, so a stale one means some code
    wrote the entries behind the setter's back.
    Comparison is bitwise on coordinates/bounds (``==`` on floats — the
    mirror stores the *same* values, not recomputed ones) and by object
    identity on payloads and children.
    """
    arrays = node._arrays
    if arrays is None:
        return
    entries = node.entries
    where = f"page={node.page_id} (level {node.level})"
    if arrays.is_leaf != node.is_leaf:
        raise InvariantViolation(
            f"array mirror of {where} has is_leaf={arrays.is_leaf}"
        )
    if len(arrays) != len(entries):
        raise InvariantViolation(
            f"stale array mirror on {where}: {len(arrays)} mirrored rows "
            f"vs {len(entries)} entries"
        )
    if node.is_leaf:
        for index, entry in enumerate(entries):
            if not isinstance(entry, LeafEntry):
                return  # typed-entry check reports this corruption
            if (
                arrays.xs[index] != entry.point.x
                or arrays.ys[index] != entry.point.y
            ):
                raise InvariantViolation(
                    f"array mirror of {where} row {index} holds "
                    f"({arrays.xs[index]}, {arrays.ys[index]}), entry is "
                    f"({entry.point.x}, {entry.point.y})"
                )
            if arrays.payloads[index] is not entry.payload:
                raise InvariantViolation(
                    f"array mirror of {where} row {index} points at a "
                    "different payload object"
                )
        if arrays.tie_keys is not None and len(arrays.tie_keys) != len(entries):
            raise InvariantViolation(
                f"memoized tie keys of {where} cover {len(arrays.tie_keys)} "
                f"rows, node holds {len(entries)} entries"
            )
        return
    for index, entry in enumerate(entries):
        if not isinstance(entry, ChildEntry):
            return  # typed-entry check reports this corruption
        box = entry.bbox
        if (
            float(arrays.lo_x[index]) != box.min_x
            or float(arrays.lo_y[index]) != box.min_y
            or float(arrays.hi_x[index]) != box.max_x
            or float(arrays.hi_y[index]) != box.max_y
        ):
            raise InvariantViolation(
                f"array mirror of {where} row {index} bounds "
                f"({float(arrays.lo_x[index])}, {float(arrays.lo_y[index])}, "
                f"{float(arrays.hi_x[index])}, {float(arrays.hi_y[index])}) "
                f"disagree with the stored MBR {box}"
            )
        if arrays.children[index] is not entry.child:
            raise InvariantViolation(
                f"array mirror of {where} row {index} points at a different "
                "child node"
            )


# ----------------------------------------------------------------------
# page accounting
# ----------------------------------------------------------------------
def verify_conservation(counter: PageAccessCounter) -> List[str]:
    """Check the conservation law on a quiescent counter.

    The per-query breakdown history must sum exactly to the running
    totals; only valid when no query or stream is open.  Returns one
    message per broken total (empty when the law holds).
    """
    problems: List[str] = []
    total = sum(item.total for item in counter.history)
    if total != counter.total_accesses:
        problems.append(
            f"history sums to {total} accesses but the counter "
            f"recorded {counter.total_accesses}"
        )
    scanned = sum(item.entries_scanned for item in counter.history)
    if scanned != counter.total_entries_scanned:
        problems.append(
            f"history sums to {scanned} scanned entries but the "
            f"counter recorded {counter.total_entries_scanned}"
        )
    return problems
