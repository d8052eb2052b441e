"""Structural and behavioral tests for repro.index.rtree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Point
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig, SplitPolicy
from repro.testing.invariants import validate_rtree

coord = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
point_strategy = st.builds(Point, coord, coord)


def make_points(n, seed=7, extent=100.0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0, extent, n)
    ys = rng.uniform(0, extent, n)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


class TestConfig:
    def test_defaults_match_paper(self):
        config = RTreeConfig()
        assert config.max_entries == 30
        assert config.split_policy is SplitPolicy.RSTAR

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            RTreeConfig(max_entries=3)

    def test_invalid_min_fill(self):
        with pytest.raises(ValueError):
            RTreeConfig(min_fill=0.8)

    def test_invalid_reinsert_fraction(self):
        with pytest.raises(ValueError):
            RTreeConfig(reinsert_fraction=1.5)

    def test_min_entries_at_least_two(self):
        assert RTreeConfig(max_entries=4, min_fill=0.1).min_entries == 2


class TestInsertion:
    @pytest.mark.parametrize("policy", [SplitPolicy.QUADRATIC, SplitPolicy.RSTAR])
    def test_invariants_after_many_inserts(self, policy):
        tree = RTree(RTreeConfig(max_entries=8, split_policy=policy))
        points = make_points(500)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        assert len(tree) == 500
        validate_rtree(tree)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.height == 1
        window = BoundingBox(0, 0, 1, 1)
        assert [e for e in tree.iter_entries() if window.contains_point(e.point)] == []

    def test_height_grows(self):
        tree = RTree(RTreeConfig(max_entries=4))
        for p in make_points(200):
            tree.insert(p)
        assert tree.height >= 3

    def test_duplicate_points_allowed(self):
        tree = RTree(RTreeConfig(max_entries=4))
        for i in range(50):
            tree.insert(Point(1.0, 1.0), payload=i)
        assert len(tree) == 50
        window = BoundingBox(0, 0, 2, 2)
        found = [e for e in tree.iter_entries() if window.contains_point(e.point)]
        assert len(found) == 50

    def test_duplicate_point_keeps_ancestor_mirrors(self):
        # A duplicate leaves its leaf's MBR as it was, so no entry above
        # the leaf changes and every ancestor keeps its array mirror.
        tree = RTree(RTreeConfig(max_entries=8))
        points = make_points(200)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        for p in points:
            path = tree._choose_path(BoundingBox(p.x, p.y, p.x, p.y), 0)
            if len(path[-1].entries) < tree.config.max_entries:
                break
        ancestors = path[:-1]
        assert ancestors
        mirrors = [node.arrays() for node in ancestors]
        tree.insert(p, payload="duplicate")
        assert all(node.arrays() is mirror for node, mirror in zip(ancestors, mirrors))
        validate_rtree(tree)

    def test_rstar_reinserts_happen(self):
        tree = RTree(RTreeConfig(max_entries=6, split_policy=SplitPolicy.RSTAR))
        for p in make_points(300):
            tree.insert(p)
        assert tree.reinsert_count > 0

    def test_all_payloads_preserved(self):
        tree = RTree(RTreeConfig(max_entries=5))
        points = make_points(120)
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        payloads = sorted(entry.payload for entry in tree.iter_entries())
        assert payloads == list(range(120))


class TestBulkLoad:
    def test_bulk_load_small(self):
        points = make_points(10)
        tree = RTree.bulk_load([(p, i) for i, p in enumerate(points)])
        assert len(tree) == 10
        assert tree.height == 1
        validate_rtree(tree, strict_fill=False)

    def test_bulk_load_large_invariant_leafcount(self):
        points = make_points(2000)
        tree = RTree.bulk_load(
            [(p, i) for i, p in enumerate(points)],
            RTreeConfig(max_entries=16),
        )
        assert len(tree) == 2000
        # Bulk-loaded trees may have underfull nodes: STR packing leaves
        # one trailing under-filled node per level.
        validate_rtree(tree, strict_fill=False)
        assert sorted(e.payload for e in tree.iter_entries()) == list(range(2000))
        assert tree.height >= 2

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_bbox_containment(self):
        points = make_points(800)
        tree = RTree.bulk_load([(p, None) for p in points], RTreeConfig(max_entries=10))
        # containment and tightness of every MBR
        validate_rtree(tree, strict_fill=False)


class TestPropertyBased:
    @given(st.lists(point_strategy, max_size=120))
    @settings(max_examples=30, deadline=None)
    def test_insert_then_range_equals_brute_force(self, points):
        tree = RTree(RTreeConfig(max_entries=6))
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
        window = BoundingBox(-250, -250, 250, 250)
        expected = sorted(i for i, p in enumerate(points) if window.contains_point(p))
        found = sorted(
            e.payload for e in tree.iter_entries() if window.contains_point(e.point)
        )
        assert found == expected

    @given(st.lists(point_strategy, max_size=120), st.sampled_from(list(SplitPolicy)))
    @settings(max_examples=30, deadline=None)
    def test_invariants_hold_for_any_input(self, points, policy):
        tree = RTree(RTreeConfig(max_entries=5, split_policy=policy))
        for i, p in enumerate(points):
            tree.insert(p, payload=i)
            validate_rtree(tree)
        assert len(tree) == len(points)
