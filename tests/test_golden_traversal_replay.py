"""Golden regression: the *order* in which INN and EINN walk the tree.

``tests/test_golden_page_history.py`` pins how many pages each query
costs; this pins which ones, in which order.  For eleven seeded trees
(STR bulk and one-by-one R* inserts, uniform and on a dyadic lattice
full of exact ties and shared locations, the three tie corpora of
``tests/golden/*.scenario``, a one-leaf tree asked for more neighbors
than it holds) every stream records

- ``visits``: the nodes read through ``RTree.read_node``, in order,
  numbered by a preorder walk of the tree (``page_id`` comes from a
  process-wide counter, so it cannot be pinned);
- ``neighbors``: the reported ``[payload, distance]`` rows;
- ``pages``: the ``AccessBreakdown`` of the stream, taken with a
  six-page LRU ``BufferPool`` shared by all streams of the tree, so the
  hit / miss split depends on the visit order of every earlier stream.

The streams are ``incremental_nearest`` pulled to exhaustion and stopped
after ``k``, and ``k_nearest_einn`` with default bounds, a finite
``upper`` only (at the k-th distance exactly, and short of it), ``lower``
only, both, and ``known_certain`` of none / some / at least ``k``
entries.  The ``einn.pruned_mbrs{rule}`` totals of each tree's streams
are read from a fresh registry.

The golden file was generated from the push-every-child best-first loop
(``_expand_into_heap`` / ``_expand_einn``), before both algorithms moved
to one sorted run per node.  Regenerate (only when the traversal order
changes on purpose) with::

    PYTHONPATH=src:. python tests/test_golden_traversal_replay.py --regen
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import pytest

from repro.geometry.point import Point
from repro.index.knn import (
    NeighborResult,
    PruningBounds,
    incremental_nearest,
    k_nearest_einn,
)
from repro.index.node import Node
from repro.index.pagestats import BufferPool, PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig
from repro.obs import OBS, MetricsRegistry, observed
from repro.testing.oracles import oracle_knn

from tests.test_golden_page_history import _golden_scenarios

REPLAY_PATH = Path(__file__).parent / "golden" / "traversal_replay.json"
TIE_CORPORA = (
    "dyadic_lattice_ties",
    "four_corner_distance_ties",
    "duplicate_pois_one_location",
)
BUFFER_PAGES = 6

Poi = Tuple[Point, Any]


class _VisitLog(PageAccessCounter):
    """A counter that also remembers which pages it was billed for."""

    def __init__(self, buffer_pool: BufferPool) -> None:
        super().__init__(buffer_pool)
        self.pages: List[int] = []

    def record_scan(self, page_id: int, is_leaf: bool, entries: int) -> None:
        self.pages.append(page_id)
        super().record_scan(page_id, is_leaf, entries)


def _build(pois: Sequence[Poi], bulk: bool, max_entries: int) -> RTree:
    config = RTreeConfig(max_entries=max_entries)
    if bulk:
        return RTree.bulk_load(list(pois), config)
    tree = RTree(config)
    for point, payload in pois:
        tree.insert(point, payload)
    return tree


def _uniform(seed: int, count: int) -> List[Poi]:
    rng = random.Random(seed)
    return [
        (Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)), index)
        for index in range(count)
    ]


def _lattice(seed: int, count: int) -> List[Poi]:
    # Quarter steps on a 9 x 9 grid: distances tie exactly, locations
    # repeat, and every fifth payload is a number among strings.
    rng = random.Random(seed)
    return [
        (
            Point(rng.randint(0, 8) / 4.0, rng.randint(0, 8) / 4.0),
            index if index % 5 == 4 else f"p{index:03d}",
        )
        for index in range(count)
    ]


def _corpus(name: str) -> Tuple[List[Poi], Point, int]:
    scenario = dict(_golden_scenarios())[name]
    pois = [(Point(x, y), pid) for x, y, pid in scenario.pois]
    return pois, Point(*scenario.query), scenario.k


def cases() -> Iterator[Tuple[str, List[Poi], RTree, List[Tuple[Point, int]]]]:
    """Every tree with its ``(query, k)`` battery; a pure function."""
    rng = random.Random(24)
    scattered = [
        Point(rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)) for _ in range(4)
    ]
    for name, pois, bulk in (
        ("bulk-240", _uniform(1, 240), True),
        ("insert-151", _uniform(2, 151), False),
    ):
        queries = scattered + [pois[7][0], pois[100][0]]
        battery = [(query, k) for query in queries for k in (1, 8, 24)]
        yield name, pois, _build(pois, bulk, 6), battery
    on_grid = [
        Point(rng.randint(0, 8) / 4.0, rng.randint(0, 8) / 4.0) for _ in range(4)
    ]
    off_grid = [Point(1.125, 0.875), Point(-0.5, 1.0)]
    for name, pois, bulk in (
        ("lattice-bulk", _lattice(3, 120), True),
        ("lattice-insert", _lattice(4, 90), False),
    ):
        battery = [(query, k) for query in on_grid + off_grid for k in (3, 8, 20)]
        yield name, pois, _build(pois, bulk, 4), battery
    for corpus in TIE_CORPORA:
        pois, query, k = _corpus(corpus)
        battery = [(query, k), (query, len(pois) + 2), (pois[0][0], 1)]
        for bulk in (True, False):
            suffix = "bulk" if bulk else "insert"
            yield f"{corpus}-{suffix}", pois, _build(pois, bulk, 4), battery
    few = _lattice(5, 5)
    yield "one-leaf", few, _build(few, True, 30), [
        (Point(0.5, 0.5), 3),
        (Point(0.5, 0.5), 8),
    ]


def preorder(tree: RTree) -> Dict[int, int]:
    """``page_id`` -> position of the node in a preorder walk."""
    numbers: Dict[int, int] = {}

    def walk(node: Node) -> None:
        numbers[node.page_id] = len(numbers)
        if not node.is_leaf:
            for entry in node.entries:
                walk(entry.child)  # type: ignore[union-attr]

    walk(tree.root)
    return numbers


def ranking(pois: Sequence[Poi], query: Point) -> List[NeighborResult]:
    """Every POI by ``(distance, tie key)``: the brute-force answer."""
    return [
        NeighborResult(n.point, n.payload, n.distance)
        for n in oracle_knn(pois, query, len(pois))
    ]


def einn_arguments(
    ranked: List[NeighborResult], k: int
) -> Dict[str, Tuple[PruningBounds, List[NeighborResult]]]:
    """The bound / ``known_certain`` combinations one ``(query, k)`` runs."""
    kth = ranked[min(k, len(ranked)) - 1].distance
    mid = ranked[min(k, len(ranked)) // 2]
    inside = [r for r in ranked if r.distance < kth / 2.0]
    return {
        "default": (PruningBounds(), []),
        "upper-at-kth": (PruningBounds(upper=kth), []),
        "upper-short": (PruningBounds(upper=mid.distance), []),
        "lower-only": (PruningBounds(lower=kth / 2.0), []),
        "both": (PruningBounds(lower=kth / 2.0, upper=kth), inside),
        "known-some": (
            PruningBounds(lower=mid.distance),
            ranked[: ranked.index(mid) + 1],
        ),
        "known-k": (PruningBounds(lower=kth), ranked[: k + 1]),
    }


def _rows(neighbors: Sequence[NeighborResult]) -> List[List[Any]]:
    return [[n.payload, n.distance] for n in neighbors]


def replay_tree(
    pois: List[Poi], tree: RTree, battery: List[Tuple[Point, int]]
) -> Dict[str, Any]:
    """Run the battery over one tree; the record the golden holds."""
    numbers = preorder(tree)
    pool = BufferPool(BUFFER_PAGES)
    streams: Dict[str, Any] = {}

    def run(label: str, produce: Any) -> None:
        log = _VisitLog(pool)
        log.start_query()
        neighbors = produce(log)
        b = log.finish_query()
        streams[label] = {
            "visits": [numbers[page] for page in log.pages],
            "neighbors": _rows(neighbors),
            "pages": [
                b.total,
                b.index_nodes,
                b.leaf_nodes,
                b.buffer_hits,
                b.buffer_misses,
                b.entries_scanned,
            ],
        }

    previous = OBS.registry
    try:
        with observed(enabled=True):
            OBS.registry = MetricsRegistry()
            for number, (query, k) in enumerate(battery):
                ranked = ranking(pois, query)
                prefix = f"{number}:k={k}"
                if number % 4 == 0:
                    run(
                        f"{prefix}:inn-all",
                        lambda log: list(incremental_nearest(tree, query, log)),
                    )
                run(
                    f"{prefix}:inn-stop",
                    lambda log: list(
                        itertools.islice(incremental_nearest(tree, query, log), k)
                    ),
                )
                for label, (bounds, known) in einn_arguments(ranked, k).items():
                    run(
                        f"{prefix}:einn-{label}",
                        lambda log: k_nearest_einn(
                            tree, query, k, bounds, known, counter=log
                        ),
                    )
            pruned = {
                rule: OBS.registry.counter("einn.pruned_mbrs", rule=rule).value
                for rule in ("upward", "downward")
            }
    finally:
        OBS.registry = previous
    return {"nodes": len(numbers), "pruned_mbrs": pruned, "streams": streams}


def replay() -> Dict[str, Any]:
    return {
        name: replay_tree(pois, tree, battery)
        for name, pois, tree, battery in cases()
    }


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Any]:
    return json.loads(REPLAY_PATH.read_text())


@pytest.fixture(scope="module")
def live() -> Dict[str, Any]:
    return replay()


def test_every_tree_is_pinned(pinned, live) -> None:
    assert sorted(live) == sorted(pinned)
    for name, record in live.items():
        assert record["nodes"] == pinned[name]["nodes"], name
        assert sorted(record["streams"]) == sorted(pinned[name]["streams"]), name


def test_streams_replay_the_pinned_traversals(pinned, live) -> None:
    for name, record in live.items():
        for label, stream in record["streams"].items():
            assert stream == pinned[name]["streams"][label], (name, label)
        assert record["pruned_mbrs"] == pinned[name]["pruned_mbrs"], name


def test_streams_reach_the_forks_of_the_traversal(live) -> None:
    seen: Counter = Counter()
    for name, pois, tree, battery in cases():
        record = live[name]
        for rule, count in record["pruned_mbrs"].items():
            seen[f"pruned {rule}"] += count
        numbers = preorder(tree)
        boxes = []  # (preorder number of the child, its MBR as stored)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                for entry in node.entries:
                    boxes.append((numbers[entry.child.page_id], entry.bbox))
                    stack.append(entry.child)
        for number, (query, k) in enumerate(battery):
            stream = record["streams"][f"{number}:k={k}:einn-default"]
            known_k = record["streams"][f"{number}:k={k}:einn-known-k"]
            ranked = ranking(pois, query)
            assert stream["neighbors"] == _rows(ranked[:k]), (name, number)
            if len(ranked) <= k:
                seen["k exceeds the POI count"] += 1
                continue
            kth = ranked[k - 1].distance
            # The cut is (kth, tie of ranked[k-1]): an equal-distance POI
            # ranked after it must stay out, one ranked before it is in.
            # Exact ties are what is being counted, hence the noqa's.
            if ranked[k].distance == kth:  # repro: noqa(RPR001)
                seen["tie at the cut, larger key"] += 1
            if k >= 2 and ranked[k - 2].distance == kth:  # repro: noqa(RPR001)
                seen["tie at the cut, smaller key"] += 1
            for child, box in boxes:
                if box.mindist(query) == kth:  # repro: noqa(RPR001)
                    # The node tie sorts first: the page must be read.
                    assert child in stream["visits"], (name, number, child)
                    seen["MINDIST equals the k-th distance"] += 1
                # known-k runs with lower == kth: rule 1 is strict, so a
                # box reaching exactly to the bound is not pruned by it.
                if (
                    box.maxdist(query) == kth  # repro: noqa(RPR001)
                    and child in known_k["visits"]
                ):
                    seen["MAXDIST equals the lower bound"] += 1
        if record["nodes"] == 1:
            seen["one-leaf tree"] += 1
    for case in (
        "pruned upward",
        "pruned downward",
        "tie at the cut, larger key",
        "tie at the cut, smaller key",
        "MINDIST equals the k-th distance",
        "MAXDIST equals the lower bound",
        "k exceeds the POI count",
        "one-leaf tree",
    ):
        assert seen[case] >= 3, (case, seen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    REPLAY_PATH.write_text(json.dumps(replay(), separators=(",", ":")) + "\n")
    print(f"wrote {REPLAY_PATH}")
