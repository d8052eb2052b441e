"""Tests for the structural validators of :mod:`repro.testing.invariants`.

Each validator is fed a healthy structure and a hand-corrupted one.  The
property tests of the heap, the R*-tree and the page counter call the
same validators after every operation they drive.
"""

import pytest

from repro.core.heap import CandidateHeap, HeapEntry, HeapState
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.node import ChildEntry, LeafEntry
from repro.index.rtree import RTree, RTreeConfig
from repro.testing.invariants import (
    HEAP_TRANSITIONS,
    InvariantViolation,
    check_heap_structure,
    check_heap_transition,
    validate_rtree,
)


def make_tree(n=40, max_entries=4):
    tree = RTree(RTreeConfig(max_entries=max_entries))
    for i in range(n):
        tree.insert(Point(float(i % 8), float(i // 8)), payload=i)
    return tree


class TestHeapValidators:
    def test_every_legal_transition_accepted(self):
        for before, successors in HEAP_TRANSITIONS.items():
            for after in successors:
                check_heap_transition(before, after)

    def test_illegal_transition_rejected(self):
        with pytest.raises(InvariantViolation, match="illegal heap state"):
            check_heap_transition(HeapState.COMPLETE, HeapState.FULL_MIXED)
        with pytest.raises(InvariantViolation):
            check_heap_transition(HeapState.PARTIAL_MIXED, HeapState.EMPTY)

    def test_structure_check_passes_on_real_heap(self):
        heap = CandidateHeap(capacity=3)
        heap.add(Point(1, 0), "a", 1.0, certain=True)
        heap.add(Point(2, 0), "b", 2.0, certain=False)
        check_heap_structure(heap)

    def test_structure_check_catches_misordered_bucket(self):
        heap = CandidateHeap(capacity=3)
        heap.add(Point(1, 0), "a", 1.0, certain=True)
        heap.add(Point(2, 0), "b", 2.0, certain=True)
        heap._certain.reverse()  # corrupt: descending distances
        with pytest.raises(InvariantViolation, match="ascending"):
            check_heap_structure(heap)

    def test_structure_check_catches_uncertain_overflow(self):
        heap = CandidateHeap(capacity=1)
        heap.add(Point(1, 0), "a", 1.0, certain=True)
        rogue = HeapEntry(Point(2, 0), "b", 2.0, certain=False)
        heap._uncertain.append(rogue)  # corrupt: uncertain although complete
        heap._index[rogue.key()] = rogue
        with pytest.raises(InvariantViolation, match="capacity|uncertain"):
            check_heap_structure(heap)

    def test_structure_check_catches_misflagged_entry(self):
        heap = CandidateHeap(capacity=2)
        heap.add(Point(1, 0), "a", 1.0, certain=True)
        rogue = HeapEntry(Point(2, 0), "b", 2.0, certain=False)
        heap._certain.append(rogue)  # corrupt: uncertain entry in certain bucket
        heap._index[rogue.key()] = rogue
        with pytest.raises(InvariantViolation, match="flagged certain"):
            check_heap_structure(heap)

    def test_structure_check_catches_stale_index(self):
        heap = CandidateHeap(capacity=2)
        heap.add(Point(1, 0), "a", 1.0, certain=True)
        heap._index.clear()  # corrupt: index lost
        with pytest.raises(InvariantViolation, match="index"):
            check_heap_structure(heap)


class TestRTreeValidator:
    def test_valid_tree_passes(self):
        validate_rtree(make_tree())

    def test_widened_mbr_is_a_tightness_violation(self):
        tree = make_tree()
        entry = tree.root.entries[0]
        assert isinstance(entry, ChildEntry)
        wide = entry.bbox.union(BoundingBox(50.0, 50.0, 60.0, 60.0))
        tree.root.entries = (ChildEntry(wide, entry.child),) + tree.root.entries[1:]
        with pytest.raises(InvariantViolation, match="tightness|shrink"):
            validate_rtree(tree)

    def test_shrunken_mbr_is_a_containment_violation(self):
        tree = make_tree()
        entry = tree.root.entries[0]
        assert isinstance(entry, ChildEntry)
        box = entry.bbox
        corner = BoundingBox(box.min_x, box.min_y, box.min_x, box.min_y)
        tree.root.entries = (ChildEntry(corner, entry.child),) + tree.root.entries[1:]
        with pytest.raises(InvariantViolation, match="containment"):
            validate_rtree(tree)

    def test_orphaned_entry_count_caught(self):
        tree = make_tree()
        tree._size += 1  # corrupt: bookkeeping claims an entry that is not there
        with pytest.raises(InvariantViolation, match="bookkeeping"):
            validate_rtree(tree)

    def test_aliased_node_caught(self):
        tree = make_tree()
        first = tree.root.entries[0]
        assert isinstance(first, ChildEntry)
        # Replace a sibling with a second link to the same child so the
        # entry count stays legal and only the aliasing check can fire.
        alias = ChildEntry(first.bbox, first.child)
        tree.root.entries = (first, alias) + tree.root.entries[2:]
        with pytest.raises(InvariantViolation, match="referenced more than once"):
            validate_rtree(tree)


class TestNodeArraysCoherence:
    """The column mirror must agree with the entry list it shadows."""

    @staticmethod
    def _first_leaf(tree):
        node = tree.root
        while not node.is_leaf:
            node = node.entries[0].child
        return node

    def test_healthy_materialized_mirrors_pass(self):
        tree = make_tree()
        # Materialize every reachable mirror, then validate.
        stack = [tree.root]
        while stack:
            node = stack.pop()
            node.arrays()
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries)
        validate_rtree(tree)

    def test_stale_row_count_caught(self):
        tree = make_tree()
        leaf = self._first_leaf(tree)
        leaf.arrays()
        # Write the entries behind the setter's back: the mirror goes stale.
        leaf._entries = leaf._entries + (LeafEntry(Point(0.0, 0.0), "x"),)
        with pytest.raises(InvariantViolation, match="stale array mirror"):
            validate_rtree(tree)

    def test_mutated_leaf_coordinate_caught(self):
        tree = make_tree()
        leaf = self._first_leaf(tree)
        arrays = leaf.arrays()
        arrays.xs[0] = arrays.xs[0] + 100.0
        # Either check may fire first: the parent's MBR containment test
        # recomputes the child box *through* the corrupted mirror.
        with pytest.raises(InvariantViolation, match="array mirror|containment"):
            validate_rtree(tree)

    def test_swapped_payload_caught(self):
        tree = make_tree()
        leaf = self._first_leaf(tree)
        arrays = leaf.arrays()
        arrays.payloads[0] = object()
        with pytest.raises(InvariantViolation, match="different payload"):
            validate_rtree(tree)

    def test_mutated_internal_bound_caught(self):
        tree = make_tree()
        root = tree.root
        assert not root.is_leaf
        arrays = root.arrays()
        arrays.hi_x[0] = arrays.hi_x[0] + 1.0
        with pytest.raises(InvariantViolation, match="disagree with the stored MBR"):
            validate_rtree(tree)

    def test_swapped_child_identity_caught(self):
        tree = make_tree()
        root = tree.root
        arrays = root.arrays()
        arrays.children[0], arrays.children[1] = (
            arrays.children[1],
            arrays.children[0],
        )
        with pytest.raises(InvariantViolation, match="different child"):
            validate_rtree(tree)

    def test_short_tie_key_memo_caught(self):
        tree = make_tree()
        leaf = self._first_leaf(tree)
        arrays = leaf.arrays()
        arrays.tie_keys = []
        if len(leaf.entries) == 0:
            pytest.skip("empty leaf")
        with pytest.raises(InvariantViolation, match="tie keys"):
            validate_rtree(tree)

    def test_entries_change_only_through_the_setter(self):
        tree = make_tree()
        root = tree.root
        root.arrays()
        first = root.entries[0]
        with pytest.raises(AttributeError):
            root.entries.append(first)
        with pytest.raises(AttributeError):
            first.bbox = BoundingBox(0.0, 0.0, 0.0, 0.0)
        assert root._arrays is not None
        root.entries = root.entries
        assert root._arrays is None
        validate_rtree(tree)

    def test_unmaterialized_mirrors_are_skipped(self):
        tree = make_tree()
        # Freshly mutated nodes have no mirror; validation must not build
        # one just to compare it with itself.
        tree.root.entries = sorted(tree.root.entries, key=lambda e: e.bbox.min_x)
        assert tree.root._arrays is None
        validate_rtree(tree)
