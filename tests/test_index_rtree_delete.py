"""Tests for R-tree deletion (CondenseTree)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.node import Node
from repro.index.rtree import RTree, RTreeConfig, SplitPolicy
from repro.testing.invariants import InvariantViolation, validate_rtree

from tests.test_index_rtree import make_points

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
point_strategy = st.builds(Point, coord, coord)


class TestDelete:
    def test_delete_existing(self):
        tree = RTree(RTreeConfig(max_entries=4))
        points = make_points(50)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        assert tree.delete(points[7], payload=7)
        assert len(tree) == 49
        remaining = sorted(e.payload for e in tree.iter_entries())
        assert 7 not in remaining

    def test_delete_missing_returns_false(self):
        tree = RTree()
        tree.insert(Point(1, 1), payload="a")
        assert not tree.delete(Point(2, 2), payload="a")
        assert not tree.delete(Point(1, 1), payload="b")
        assert len(tree) == 1

    def test_delete_from_empty(self):
        assert not RTree().delete(Point(0, 0))

    def test_delete_without_payload_matches_any(self):
        tree = RTree()
        tree.insert(Point(1, 1), payload="a")
        assert tree.delete(Point(1, 1))
        assert len(tree) == 0

    def test_delete_all_leaves_empty_tree(self):
        tree = RTree(RTreeConfig(max_entries=4))
        points = make_points(40, seed=1)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        for i, p in enumerate(points):
            assert tree.delete(p, payload=i)
        assert len(tree) == 0
        assert tree.height == 1
        window = BoundingBox(-1e6, -1e6, 1e6, 1e6)
        assert [e for e in tree.iter_entries() if window.contains_point(e.point)] == []

    def test_tree_shrinks_height(self):
        tree = RTree(RTreeConfig(max_entries=4))
        points = make_points(200, seed=2)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        tall = tree.height
        for i, p in enumerate(points[:190]):
            tree.delete(p, payload=i)
        assert tree.height < tall

    def test_invariants_after_interleaved_ops(self):
        tree = RTree(RTreeConfig(max_entries=5))
        rng = np.random.default_rng(3)
        live = {}
        points = make_points(300, seed=3)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
            live[i] = p
            if rng.uniform() < 0.4 and live:
                victim = int(rng.choice(sorted(live)))
                assert tree.delete(live.pop(victim), payload=victim)
        assert len(tree) == len(live)
        validate_rtree(tree)
        remaining = sorted(e.payload for e in tree.iter_entries())
        assert remaining == sorted(live)

    def test_queries_correct_after_deletes(self):
        tree = RTree(RTreeConfig(max_entries=6))
        points = make_points(150, seed=4)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        for i in range(0, 150, 3):
            tree.delete(points[i], payload=i)
        survivors = {i: p for i, p in enumerate(points) if i % 3 != 0}
        window = BoundingBox(10, 10, 80, 80)
        expected = sorted(
            i for i, p in survivors.items() if window.contains_point(p)
        )
        found = sorted(
            e.payload for e in tree.iter_entries() if window.contains_point(e.point)
        )
        assert found == expected

    def test_duplicate_points_delete_one(self):
        tree = RTree(RTreeConfig(max_entries=4))
        for i in range(10):
            tree.insert(Point(1.0, 1.0), payload=i)
        assert tree.delete(Point(1.0, 1.0), payload=3)
        assert len(tree) == 9
        payloads = sorted(e.payload for e in tree.iter_entries())
        assert payloads == [0, 1, 2, 4, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("policy", [SplitPolicy.QUADRATIC, SplitPolicy.RSTAR])
    def test_both_split_policies(self, policy):
        tree = RTree(RTreeConfig(max_entries=5, split_policy=policy))
        points = make_points(120, seed=5)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        for i in range(60):
            assert tree.delete(points[i], payload=i)
            validate_rtree(tree)
        assert len(tree) == 60

    def test_delete_backtracks_across_leaves_for_duplicates(self):
        # Twelve copies of one point spill over several leaves (M=4), so
        # _find_leaf_path must keep descending into sibling subtrees when
        # the first DFS leaf holds the point but not the wanted payload.
        tree = RTree(RTreeConfig(max_entries=4))
        p = Point(2.0, 2.0)
        for i in range(12):
            tree.insert(p, payload=i)
        for i in (11, 0, 6, 3, 9, 1, 10, 2, 7, 4, 8, 5):
            assert tree.delete(p, payload=i), f"payload {i} not found"
            validate_rtree(tree)
        assert len(tree) == 0

    def test_delete_removes_one_of_equal_entries(self):
        # Entries equal in point and payload are still separate records:
        # a delete takes out exactly one of them.
        tree = RTree(RTreeConfig(max_entries=4))
        p = Point(1.0, 1.0)
        for _ in range(3):
            tree.insert(p, payload="dup")
        assert tree.delete(p, payload="dup")
        validate_rtree(tree)
        assert [e.payload for e in tree.iter_entries()] == ["dup", "dup"]

    @given(
        st.lists(point_strategy, min_size=1, max_size=60),
        st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_delete_then_search(self, points, victim_index):
        tree = RTree(RTreeConfig(max_entries=5))
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        victim = victim_index % len(points)
        assert tree.delete(points[victim], payload=victim)
        window = BoundingBox(-200, -200, 200, 200)
        expected = sorted(i for i in range(len(points)) if i != victim)
        found = sorted(
            e.payload for e in tree.iter_entries() if window.contains_point(e.point)
        )
        assert found == expected
        validate_rtree(tree)


class TestCondenseAgainstValidator:
    """Regressions driven by the structural validator.

    Beyond containment and fill, ``validate_rtree`` demands *tight* parent
    MBRs (catching shrink misses after underflow), unique node objects
    (catching orphaned or doubly-linked subtrees), an internal root with at
    least two children, a reachable leaf count equal to ``len(tree)`` and
    column mirrors that agree with their entry lists.  These tests run it
    after every single mutation in the scenarios that historically stress
    CondenseTree.
    """

    @pytest.mark.parametrize("policy", [SplitPolicy.QUADRATIC, SplitPolicy.RSTAR])
    def test_validator_clean_through_churn(self, policy):
        tree = RTree(RTreeConfig(max_entries=4, split_policy=policy))
        rng = np.random.default_rng(11)
        live = []
        for op in range(220):
            if live and rng.uniform() < 0.45:
                idx = int(rng.integers(len(live)))
                p, payload = live.pop(idx)
                assert tree.delete(p, payload=payload)
            else:
                p = Point(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)))
                tree.insert(p, payload=op)
                live.append((p, op))
            validate_rtree(tree)
            assert len(tree) == len(live)

    def test_validator_clean_during_full_drain(self):
        tree = RTree(RTreeConfig(max_entries=4))
        points = make_points(120, seed=13)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        order = list(range(120))
        np.random.default_rng(13).shuffle(order)
        for i in order:
            assert tree.delete(points[i], payload=i)
            validate_rtree(tree)
        assert len(tree) == 0 and tree.height == 1

    def test_delete_from_bulk_loaded_tree(self):
        # STR packing legitimately leaves trailing under-filled nodes, so
        # the validator's fill check is relaxed for this tree, and
        # CondenseTree must keep the structure sound as entries leave.
        points = make_points(90, seed=17)
        items = [(p, i) for i, p in enumerate(points)]
        tree = RTree.bulk_load(items, RTreeConfig(max_entries=5))
        validate_rtree(tree, strict_fill=False)
        for i in range(0, 90, 2):
            assert tree.delete(points[i], payload=i)
            validate_rtree(tree, strict_fill=False)
        survivors = sorted(e.payload for e in tree.iter_entries())
        assert survivors == list(range(1, 90, 2))

    def test_strict_fill_flags_underfilled_bulk_load(self):
        # 11 items at capacity 5 tile into STR slices of 6 and 5, leaving
        # one trailing leaf with a single entry: fine for a static packed
        # tree, but a min-fill violation for a dynamically built one --
        # strict_fill=True must notice.
        items = [(Point(float(i), 0.0), i) for i in range(11)]
        tree = RTree.bulk_load(items, RTreeConfig(max_entries=5))
        validate_rtree(tree, strict_fill=False)
        with pytest.raises(InvariantViolation):
            validate_rtree(tree, strict_fill=True)

    def test_condense_refreshes_each_surviving_level_once(self, monkeypatch):
        # A delete that dissolves nothing walks the whole path bottom-up
        # and refreshes each ancestor's child entry exactly once.
        tree = RTree(RTreeConfig(max_entries=4))
        points = make_points(200, seed=19)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        assert tree.height >= 3
        min_entries = tree.config.min_entries
        victim = None
        for i, p in enumerate(points):
            path, _ = tree._find_leaf_path(tree._root, p, i, [])
            if all(len(node.entries) > min_entries for node in path[1:]):
                victim = (i, p, len(path))
                break
        assert victim is not None
        index, point, depth = victim

        calls = []
        refresh = Node.refresh_child

        def counting_refresh(parent, child):
            calls.append(child)
            refresh(parent, child)

        monkeypatch.setattr(Node, "refresh_child", counting_refresh)
        assert tree.delete(point, payload=index)
        assert len(calls) == depth - 1
        assert len({id(child) for child in calls}) == depth - 1
        validate_rtree(tree)

    def test_validator_clean_with_identical_points(self):
        tree = RTree(RTreeConfig(max_entries=4))
        p = Point(2.5, 2.5)
        for i in range(30):
            tree.insert(p, payload=i)
            validate_rtree(tree)
        for i in range(30):
            assert tree.delete(p, payload=i)
            validate_rtree(tree)
        assert len(tree) == 0
