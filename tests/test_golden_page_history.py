"""Golden regression: page-access histories are pinned byte-for-byte.

The vectorized index rewrite promises that *page counts stay exactly
unchanged* (the paper's Figure 17 metric).  This suite freezes the full
:class:`~repro.index.pagestats.PageAccessCounter` history — every
per-query ``AccessBreakdown``, in order — for a fixed workload over the
golden scenario corpus plus two larger seed trees, and compares the live
code against the committed snapshot ``tests/golden/page_histories.json``.

The snapshot was generated from the scalar (pre-vectorization)
implementation, so a green run proves the rewrite is page-identical,
not just statistically close.  When range and window queries were
retired their steps left the workload and the file was regenerated
once; the code from before that retirement writes the same bytes for
the reduced workload.  Regenerate (only when the workload itself
changes, never to paper over a drift) with::

    PYTHONPATH=src python tests/test_golden_page_history.py --regen
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.geometry.point import Point
from repro.index.knn import (
    NeighborResult,
    PruningBounds,
    incremental_nearest,
    k_nearest_depth_first,
    k_nearest_einn,
    poi_tie_key,
)
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree, RTreeConfig
from repro.obs import OBS
from repro.testing.scenarios import Scenario, ScenarioGen, decode_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"
SNAPSHOT_PATH = GOLDEN_DIR / "page_histories.json"

#: Generated scenarios folded into the corpus (fixed seed, one per family,
#: plus a second lap so both tree build paths appear per family).
_GEN_SEED = 20260808
_GEN_INDICES = tuple(range(10))


def _golden_scenarios() -> List[Tuple[str, Scenario]]:
    items: List[Tuple[str, Scenario]] = []
    for path in sorted(GOLDEN_DIR.glob("*.scenario")):
        text = "\n".join(
            line
            for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
        items.append((path.stem, decode_scenario(text)))
    gen = ScenarioGen(seed=_GEN_SEED)
    for index in _GEN_INDICES:
        items.append((f"gen-{_GEN_SEED}-{index}", gen.generate(index)))
    return items


def _build_tree(pois: List[Tuple[Point, Any]]) -> RTree:
    # Same alternation rule as the difftest harness: even POI counts take
    # the STR bulk path, odd counts the dynamic R* insert path.
    if len(pois) % 2 == 0:
        return RTree.bulk_load(list(pois))
    tree = RTree()
    for point, payload in pois:
        tree.insert(point, payload)
    return tree


def _brute_force(
    query: Point, pois: List[Tuple[Point, Any]]
) -> List[NeighborResult]:
    ranked = sorted(
        (
            NeighborResult(point, payload, math.hypot(point.x - query.x, point.y - query.y))
            for point, payload in pois
        ),
        key=lambda r: (r.distance, poi_tie_key(r.payload)),
    )
    return ranked


def _scenario_history(scenario: Scenario) -> Dict[str, Any]:
    pois = [(Point(x, y), pid) for x, y, pid in scenario.pois]
    query = Point(*scenario.query)
    tree = _build_tree(pois)
    counter = PageAccessCounter()
    k = scenario.k
    ranked = _brute_force(query, pois)
    kth = ranked[min(k, len(ranked)) - 1].distance

    counter.start_query()
    list(incremental_nearest(tree, query, counter))
    counter.finish_query()

    counter.start_query()
    k_nearest_depth_first(tree, query, k, counter)
    counter.finish_query()

    counter.start_query()
    k_nearest_einn(tree, query, k, counter=counter)
    counter.finish_query()

    # EINN with genuine pruning bounds: everything strictly inside half
    # the k-th distance is client-known (certain), the k-th distance caps
    # the search from above.
    lower = kth / 2.0
    known = [r for r in ranked if r.distance < lower]
    counter.start_query()
    k_nearest_einn(
        tree,
        query,
        k,
        bounds=PruningBounds(lower=lower, upper=kth),
        known_certain=known,
        counter=counter,
    )
    counter.finish_query()

    return {"history": [_breakdown_row(b) for b in counter.history]}


def _breakdown_row(breakdown: Any) -> List[int]:
    return [
        breakdown.total,
        breakdown.index_nodes,
        breakdown.leaf_nodes,
        breakdown.data_records,
        breakdown.buffer_hits,
        breakdown.buffer_misses,
    ]


def _seed_tree_workloads() -> Dict[str, Any]:
    """Two larger trees (multi-level) with a fixed query battery.

    Also pins the global ``rtree.node_reads`` observability counters for
    the whole battery — the regression demanded by the pagestats fix: a
    vectorized whole-node scan must still bill exactly one node read.
    """
    import numpy as np

    out: Dict[str, Any] = {}
    rng = np.random.default_rng(987123)
    bulk_coords = rng.uniform(0.0, 30.0, size=(3000, 2))
    insert_coords = rng.uniform(0.0, 30.0, size=(701, 2))
    queries = [
        (float(x), float(y)) for x, y in rng.uniform(0.0, 30.0, size=(25, 2))
    ]

    trees = {
        "bulk-3000": RTree.bulk_load(
            [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(bulk_coords)],
            RTreeConfig(max_entries=30),
        ),
    }
    dynamic = RTree(RTreeConfig(max_entries=30))
    for i, (x, y) in enumerate(insert_coords):
        dynamic.insert(Point(float(x), float(y)), i)
    trees["insert-701"] = dynamic

    for name, tree in trees.items():
        counter = PageAccessCounter()
        previous_enabled = OBS.enabled
        OBS.enabled = True
        registry = OBS.registry
        leaf_counter = registry.counter("rtree.node_reads", kind="leaf")
        index_counter = registry.counter("rtree.node_reads", kind="index")
        base_leaf, base_index = leaf_counter.value, index_counter.value
        try:
            for qx, qy in queries:
                query = Point(qx, qy)
                counter.start_query()
                k_nearest_depth_first(tree, query, 8, counter)
                counter.finish_query()
                counter.start_query()
                k_nearest_einn(tree, query, 8, counter=counter)
                counter.finish_query()
            node_reads = {
                "leaf": leaf_counter.value - base_leaf,
                "index": index_counter.value - base_index,
            }
        finally:
            OBS.enabled = previous_enabled
        out[name] = {
            "height": tree.height,
            "history": [_breakdown_row(b) for b in counter.history],
            "node_reads": node_reads,
        }
    return out


def build_snapshot() -> Dict[str, Any]:
    return {
        "scenarios": {
            name: _scenario_history(scenario)
            for name, scenario in _golden_scenarios()
        },
        "seed_trees": _seed_tree_workloads(),
    }


@pytest.fixture(scope="module")
def snapshot() -> Dict[str, Any]:
    if not SNAPSHOT_PATH.exists():
        pytest.fail(f"missing golden snapshot {SNAPSHOT_PATH}")
    return json.loads(SNAPSHOT_PATH.read_text())


@pytest.fixture(scope="module")
def live() -> Dict[str, Any]:
    return build_snapshot()


def test_snapshot_covers_all_golden_scenarios(snapshot: Dict[str, Any]) -> None:
    expected = {name for name, _ in _golden_scenarios()}
    assert set(snapshot["scenarios"]) == expected


@pytest.mark.parametrize("name", [name for name, _ in _golden_scenarios()])
def test_scenario_page_history_is_byte_identical(
    name: str, snapshot: Dict[str, Any], live: Dict[str, Any]
) -> None:
    assert live["scenarios"][name] == snapshot["scenarios"][name]


@pytest.mark.parametrize("tree_name", ["bulk-3000", "insert-701"])
def test_seed_tree_page_history_is_byte_identical(
    tree_name: str, snapshot: Dict[str, Any], live: Dict[str, Any]
) -> None:
    assert live["seed_trees"][tree_name] == snapshot["seed_trees"][tree_name]


def test_seed_tree_node_reads_pinned(
    snapshot: Dict[str, Any], live: Dict[str, Any]
) -> None:
    for tree_name, data in snapshot["seed_trees"].items():
        assert live["seed_trees"][tree_name]["node_reads"] == data["node_reads"]


def main() -> None:
    SNAPSHOT_PATH.write_text(
        json.dumps(build_snapshot(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        main()
    else:
        print("pass --regen to rewrite the golden snapshot")
