"""Tie-breaking regression: equal-distance POIs across all kNN algorithms.

INN, EINN and the depth-first baseline must break exact distance ties
identically -- stable by POI id via :func:`repro.index.knn.poi_tie_key` --
so differential comparisons (and the paper's page-access experiments) see
the same neighbor sequence from every algorithm.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.knn import (
    NeighborResult,
    PruningBounds,
    k_nearest,
    k_nearest_depth_first,
    k_nearest_einn,
    poi_tie_key,
)
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig
from repro.testing.oracles import oracle_knn


def build_trees(items):
    """Both construction paths: STR bulk packing and one-by-one insertion."""
    bulk = RTree.bulk_load(list(items))
    incremental = RTree()
    for point, payload in items:
        incremental.insert(point, payload)
    return [bulk, incremental]


def sequences(tree, query, k):
    return {
        "inn": [(n.payload, n.distance) for n in k_nearest(tree, query, k)],
        "depth-first": [
            (n.payload, n.distance) for n in k_nearest_depth_first(tree, query, k)
        ],
        "einn": [(n.payload, n.distance) for n in k_nearest_einn(tree, query, k)],
    }


class TestPoiTieKey:
    def test_numeric_payloads_sort_numerically(self):
        assert poi_tie_key(2) < poi_tie_key(10)
        assert poi_tie_key(2.5) < poi_tie_key(3)

    def test_string_payloads_sort_lexicographically(self):
        assert poi_tie_key("a2") < poi_tie_key("b1")

    def test_numerics_sort_before_strings(self):
        assert poi_tie_key(999) < poi_tie_key("0")

    def test_bool_is_not_numeric(self):
        # repr-stable: True ties by str("True"), not by float(1.0).
        assert poi_tie_key(True) == poi_tie_key("True")


class TestDuplicateDistanceTies:
    def test_four_corners_same_distance(self):
        """Four POIs at exactly the same distance; k=2 picks by id."""
        items = [
            (Point(1.0, 0.0), "d"),
            (Point(-1.0, 0.0), "a"),
            (Point(0.0, 1.0), "c"),
            (Point(0.0, -1.0), "b"),
        ]
        query = Point(0.0, 0.0)
        for tree in build_trees(items):
            got = sequences(tree, query, 2)
            assert got["inn"] == [("a", 1.0), ("b", 1.0)]
            assert got["depth-first"] == got["inn"]
            assert got["einn"] == got["inn"]

    def test_duplicate_locations(self):
        """Several POIs on the very same location."""
        items = [
            (Point(0.5, 0.5), "p2"),
            (Point(0.5, 0.5), "p0"),
            (Point(0.5, 0.5), "p1"),
            (Point(2.0, 2.0), "far"),
        ]
        query = Point(0.0, 0.0)
        for tree in build_trees(items):
            got = sequences(tree, query, 3)
            assert [p for p, _ in got["inn"]] == ["p0", "p1", "p2"]
            assert got["depth-first"] == got["inn"]
            assert got["einn"] == got["inn"]

    def test_numeric_ids_on_tied_ring(self):
        items = [(Point(0.0, 3.0), 11), (Point(3.0, 0.0), 2), (Point(-3.0, 0.0), 5)]
        query = Point(0.0, 0.0)
        for tree in build_trees(items):
            got = sequences(tree, query, 2)
            assert [p for p, _ in got["inn"]] == [2, 5]
            assert got["depth-first"] == got["inn"]
            assert got["einn"] == got["inn"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_lattice_agreement(self, seed):
        """Dyadic lattice worlds are packed with exact ties; all three
        algorithms must agree on the full ranking."""
        rng = random.Random(seed)
        items = [
            (
                Point(rng.randint(0, 8) / 4.0, rng.randint(0, 8) / 4.0),
                f"p{index}",
            )
            for index in range(40)
        ]
        query = Point(rng.randint(0, 8) / 4.0, rng.randint(0, 8) / 4.0)
        for tree in build_trees(items):
            for k in (1, 3, 7, 40):
                got = sequences(tree, query, k)
                assert got["depth-first"] == got["inn"]
                assert got["einn"] == got["inn"]


def oracle(items, query, k):
    """Brute force (:func:`oracle_knn`), as ``NeighborResult`` rows so a
    test can hand part of the truth back as ``known_certain``."""
    return [
        NeighborResult(n.point, n.payload, n.distance)
        for n in oracle_knn(items, query, k)
    ]


def named(results):
    return [(r.payload, r.distance) for r in results]


class TestTiesAtTheCut:
    """Exact ties at the three places EINN compares against its cut.

    The cut is ``(k-th distance, k-th tie key)``.  It is met when a leaf's
    entries are admitted to the queue, when a queued entry is popped
    (the cut may have tightened in between), and when an index child is
    tested at ``mindist == cut distance``.  Every case is also put to
    INN, the depth-first baseline and the brute-force oracle.
    """

    QUERY = Point(0.0, 0.0)
    #: One leaf: a near POI and three on the circle of radius 2.
    RING = [
        (Point(1.0, 0.0), "near"),
        (Point(2.0, 0.0), "m"),
        (Point(0.0, 2.0), "a"),
        (Point(-2.0, 0.0), "z"),
    ]

    def check_all(self, tree, items, k, bounds=PruningBounds(), known=()):
        expected = named(oracle(items, self.QUERY, k))
        assert named(k_nearest(tree, self.QUERY, k)) == expected
        assert named(k_nearest_depth_first(tree, self.QUERY, k)) == expected
        got = k_nearest_einn(tree, self.QUERY, k, bounds, known)
        assert named(got) == expected
        return expected

    @pytest.mark.parametrize("kth, expected_last", [("m", "a"), ("a", "a")])
    def test_leaf_entry_at_the_cut_distance_on_admission(self, kth, expected_last):
        """``known_certain`` fills the result before the leaf is read: a
        smaller tie key at the cut distance displaces the k-th, a larger
        one ("z", and "m" when the k-th is "a") does not."""
        known = [r for r in oracle(self.RING, self.QUERY, 4) if r.payload in ("near", kth)]
        for tree in build_trees(self.RING):
            expected = self.check_all(tree, self.RING, 2, known=known)
            assert expected[-1] == (expected_last, 2.0)
            capped = PruningBounds(lower=1.0, upper=2.0)
            self.check_all(tree, self.RING, 2, bounds=capped, known=known)

    def test_cut_tightens_between_admission_and_pop(self):
        """Admitted under an open cut; by the time the ring entries pop the
        result is full.  "a" (smaller than the known "m") must displace it,
        "z" must not, and with nothing known "m" itself must stay out."""
        known = [r for r in oracle(self.RING, self.QUERY, 4) if r.payload == "m"]
        for tree in build_trees(self.RING):
            assert self.check_all(tree, self.RING, 2, known=known) == [
                ("near", 1.0),
                ("a", 2.0),
            ]
            assert self.check_all(tree, self.RING, 2)[-1] == ("a", 2.0)
            assert [p for p, _ in self.check_all(tree, self.RING, 3)] == [
                "near",
                "a",
                "m",
            ]

    def test_equal_keys_keep_arrival_order(self):
        """Two POIs under one id at one distance compare equal; EINN must
        list them in the order the queue released them, as INN does."""
        twins = [
            (Point(1.0, 0.0), "near"),
            (Point(2.0, 0.0), "twin"),
            (Point(0.0, 2.0), "twin"),
            (Point(0.0, -2.0), "twin"),
            (Point(3.0, 0.0), "far"),
        ]
        for tree in build_trees(twins):
            for k in (2, 3, 4, 5):
                assert k_nearest_einn(tree, self.QUERY, k) == k_nearest(
                    tree, self.QUERY, k
                )

    #: Two leaves under one root (fan-out 4): the right one holds the k-th
    #: candidate "m" at distance 2, the left one's MBR starts at exactly
    #: distance 2 with the better-tie "b" on its edge.
    #: (In an order that makes one-by-one R* insertion split the same way.)
    SPLIT = [
        (Point(1.0, 0.0), "a1"),
        (Point(0.0, 1.0), "a2"),
        (Point(1.0, 1.0), "a3"),
        (Point(-2.0, 0.0), "b"),
        (Point(-3.0, 1.0), "far2"),
        (Point(2.0, 0.0), "m"),
        (Point(-4.0, 0.0), "far3"),
        (Point(-3.0, 0.0), "far1"),
    ]

    def split_trees(self):
        config = RTreeConfig(max_entries=4)
        bulk = RTree.bulk_load(list(self.SPLIT), config)
        incremental = RTree(config)
        for point, payload in self.SPLIT:
            incremental.insert(point, payload)
        for tree in (bulk, incremental):
            mindists = sorted(e.bbox.mindist(self.QUERY) for e in tree.root.entries)
            assert tree.height == 2 and mindists == [0.0, 2.0]
        return [bulk, incremental]

    def test_index_child_at_the_cut_distance_is_still_read(self):
        ranked = oracle(self.SPLIT, self.QUERY, 8)
        known = [r for r in ranked if r.payload in ("a1", "a2", "a3", "m")]
        for tree in self.split_trees():
            for bounds, client in (
                (PruningBounds(), ()),  # the cut forms while popping
                (PruningBounds(), known),  # the cut stands at the root
                (PruningBounds(upper=2.0), ()),  # the bound is the cut
                (PruningBounds(lower=1.0, upper=2.0), known[:2]),
            ):
                counter = PageAccessCounter()
                counter.start_query()
                got = k_nearest_einn(tree, self.QUERY, 4, bounds, client, counter)
                pages = counter.finish_query()
                assert [r.payload for r in got] == ["a1", "a2", "a3", "b"]
                assert (pages.index_nodes, pages.leaf_nodes) == (1, 2)
            expected = self.check_all(tree, self.SPLIT, 4)
            assert expected[-1] == ("b", 2.0)
            # One short of the tie the far leaf is not needed -- by EINN.
            counter = PageAccessCounter()
            counter.start_query()
            k_nearest_einn(tree, self.QUERY, 3, counter=counter)
            assert counter.finish_query().leaf_nodes == 1


lattice_point = st.builds(
    Point,
    st.integers(min_value=0, max_value=6).map(lambda v: v / 2.0),
    st.integers(min_value=0, max_value=6).map(lambda v: v / 2.0),
)


@given(
    st.lists(lattice_point, min_size=1, max_size=70),
    lattice_point,
    st.integers(min_value=1, max_value=12),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_einn_without_client_knowledge_is_inn(points, query, k, bulk):
    """Default bounds, nothing known: same neighbors, same pages as INN,
    on trees whose POIs share locations and distances."""
    items = [(point, f"p{index}") for index, point in enumerate(points)]
    config = RTreeConfig(max_entries=4)
    if bulk:
        tree = RTree.bulk_load(items, config)
    else:
        tree = RTree(config)
        for point, payload in items:
            tree.insert(point, payload)
    breakdowns = []
    answers = []
    for search in (k_nearest, k_nearest_einn):
        counter = PageAccessCounter()
        counter.start_query()
        answers.append(search(tree, query, k, counter=counter))
        breakdowns.append(counter.finish_query())
    assert answers[0] == answers[1] == oracle(items, query, k)
    assert breakdowns[0] == breakdowns[1]
