"""Tests for the runtime invariant sanitizer and its validators."""

import os
import subprocess
import sys

import pytest

from repro.analysis.invariants import (
    HEAP_TRANSITIONS,
    InvariantViolation,
    check_heap_structure,
    check_heap_transition,
    check_verification_soundness,
    validate_rtree,
)
from repro.analysis.runtime import SANITIZER, sanitized, sanitizer_enabled
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap, HeapEntry, HeapState
from repro.core.verification import verify_single_peer
from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.index.node import ChildEntry
from repro.index.rtree import RTree, RTreeConfig


def make_tree(n=40, max_entries=4):
    tree = RTree(RTreeConfig(max_entries=max_entries))
    for i in range(n):
        tree.insert(Point(float(i % 8), float(i // 8)), payload=i)
    return tree


def make_cache(peer=Point(0.0, 0.0), k=3, spacing=1.0):
    neighbors = tuple(
        NeighborResult(Point(peer.x + spacing * (i + 1), peer.y), f"n{i}", spacing * (i + 1))
        for i in range(k)
    )
    return CachedQueryResult(query_location=peer, neighbors=neighbors)


class TestSwitching:
    def test_context_manager_restores_state(self):
        # The suite itself may run sanitized (REPRO_SANITIZE=1), so
        # assert relative to the session baseline.
        baseline = sanitizer_enabled()
        with sanitized() as active:
            assert active is SANITIZER
            assert sanitizer_enabled()
        assert sanitizer_enabled() == baseline

    def test_enable_nests(self):
        baseline = sanitizer_enabled()
        with sanitized():
            with sanitized():
                assert sanitizer_enabled()
            assert sanitizer_enabled()
        assert sanitizer_enabled() == baseline

    def test_env_flag_enables_at_import(self):
        env = dict(os.environ)
        env["REPRO_SANITIZE"] = "1"
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.analysis.runtime import SANITIZER; "
                "raise SystemExit(0 if SANITIZER.enabled else 1)",
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0


class _Stream:
    def __init__(self):
        self.closed = False


class TestStreamRegistry:
    """The sanitizer keeps the streams still open, and only those."""

    def test_closed_streams_are_dropped_when_a_stream_is_noted(self):
        import weakref

        from repro.analysis.runtime import Sanitizer

        sanitizer = Sanitizer(enabled=True)
        streams = [_Stream() for _ in range(3)]
        for stream in streams:
            sanitizer.note_stream_opened(stream)
        streams[0].closed = streams[2].closed = True
        gone = weakref.ref(streams[0])
        del streams[0]
        sanitizer.note_stream_opened(_Stream())
        assert gone() is None
        assert len(sanitizer.accounting_leftovers()) == 2

    def test_a_leaked_stream_stays_listed_after_collection(self):
        import gc

        from repro.analysis.runtime import Sanitizer

        sanitizer = Sanitizer(enabled=True)
        sanitizer.note_stream_opened(_Stream())
        gc.collect()
        sanitizer.note_stream_opened(_Stream())
        assert len(sanitizer.accounting_leftovers()) == 2


class TestHooksFire:
    def test_heap_add_hook_counts(self):
        heap = CandidateHeap(capacity=2)
        with sanitized():
            before = SANITIZER.checks_run.get("heap.add", 0)
            heap.add(Point(1, 0), "a", 1.0, certain=True)
            heap.add(Point(2, 0), "b", 2.0, certain=True)
            assert SANITIZER.checks_run["heap.add"] == before + 2

    def test_rtree_hooks_count(self):
        with sanitized():
            before_insert = SANITIZER.checks_run.get("rtree.insert", 0)
            before_delete = SANITIZER.checks_run.get("rtree.delete", 0)
            tree = make_tree(n=12)
            assert tree.delete(Point(0.0, 0.0), payload=0)
            assert SANITIZER.checks_run["rtree.insert"] == before_insert + 12
            assert SANITIZER.checks_run["rtree.delete"] == before_delete + 1

    def test_verification_hook_counts_and_passes_on_honest_data(self):
        cache = make_cache(peer=Point(0.0, 0.0), k=3)
        heap = CandidateHeap(capacity=3)
        with sanitized():
            before = SANITIZER.checks_run.get("verification", 0)
            verify_single_peer(Point(0.1, 0.0), cache, heap)
            assert SANITIZER.checks_run["verification"] == before + 1
        assert len(heap) > 0

    def test_disabled_hooks_cost_nothing_and_do_not_count(self):
        # Force-disable even when the session runs sanitized, restoring after.
        saved_level, saved_enabled = SANITIZER._level, SANITIZER.enabled
        SANITIZER._level, SANITIZER.enabled = 0, False
        try:
            heap = CandidateHeap(capacity=2)
            before = dict(SANITIZER.checks_run)
            heap.add(Point(1, 0), "a", 1.0, certain=True)
            assert SANITIZER.checks_run == before
        finally:
            SANITIZER._level, SANITIZER.enabled = saved_level, saved_enabled


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


class TestVerificationSoundness:
    def test_lying_certification_caught(self):
        # The peer's certain circle has radius 3 around (0,0); certifying
        # a POI 10 miles from the query cannot be justified by Lemma 3.8.
        cache = make_cache(peer=Point(0.0, 0.0), k=3)
        heap = CandidateHeap(capacity=1)
        heap.add(Point(10.0, 0.0), "liar", 10.0, certain=True)
        with pytest.raises(InvariantViolation, match="Lemma 3.8"):
            check_verification_soundness(Point(0.0, 0.0), [cache], heap, {})

    def test_distance_mismatch_caught(self):
        cache = make_cache(peer=Point(0.0, 0.0), k=3)
        heap = CandidateHeap(capacity=1)
        # POI really lies 1.0 from the query but stores distance 0.5.
        heap.add(Point(1.0, 0.0), "n0", 0.5, certain=True)
        with pytest.raises(InvariantViolation, match="recomputation"):
            check_verification_soundness(Point(0.0, 0.0), [cache], heap, {})

    def test_pre_certified_entries_not_rechecked(self):
        # Entries certified before the call are exempt: only the diff
        # against the pre-snapshot is validated.
        heap = CandidateHeap(capacity=1)
        heap.add(Point(10.0, 0.0), "old", 10.0, certain=True)
        snapshot = {entry.key(): True for entry in heap.entries()}
        check_verification_soundness(Point(0.0, 0.0), [], heap, snapshot)

    def test_end_to_end_sanitized_single_peer(self):
        cache = make_cache(peer=Point(0.0, 0.0), k=4, spacing=0.5)
        heap = CandidateHeap(capacity=4)
        with sanitized():
            certified = verify_single_peer(Point(0.2, 0.0), cache, heap)
        assert certified > 0
        check_heap_structure(heap)


class TestRTreeValidator:
    def test_valid_tree_passes(self):
        validate_rtree(make_tree())

    def test_widened_mbr_is_a_tightness_violation(self):
        tree = make_tree()
        entry = tree.root.entries[0]
        assert isinstance(entry, ChildEntry)
        entry.bbox = entry.bbox.union(BoundingBox(50.0, 50.0, 60.0, 60.0))
        with pytest.raises(InvariantViolation, match="tightness|shrink"):
            validate_rtree(tree)

    def test_shrunken_mbr_is_a_containment_violation(self):
        tree = make_tree()
        entry = tree.root.entries[0]
        assert isinstance(entry, ChildEntry)
        box = entry.bbox
        entry.bbox = BoundingBox(box.min_x, box.min_y, box.min_x, box.min_y)
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
        tree.root.entries[1] = ChildEntry(first.bbox, first.child)
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
        # Bypass the tracked-list mutators: the mirror goes stale.
        list.append(leaf.entries, leaf.entries[0].__class__(Point(0.0, 0.0), "x"))
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

    def test_unmaterialized_mirrors_are_skipped(self):
        tree = make_tree()
        # Freshly mutated nodes have no mirror; validation must not build
        # one just to compare it with itself.
        tree.root.entries.sort(key=lambda e: e.bbox.min_x)
        for entry in tree.root.entries:
            entry.refresh_bbox()
        assert tree.root._arrays is None
        validate_rtree(tree)
