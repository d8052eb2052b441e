"""Golden regression: the paper's counts, at seed 0.

The claims this reproduction checks are counts, not clocks:

- ``fig17`` -- Figure 17, mean R*-tree pages per query for EINN (with
  the client's pruning bounds) and INN, straight from
  :func:`repro.experiments.figures.fig17` at ``Quality.FAST``; EINN
  must read no more pages than INN for every region and ``k``;
- ``tree_build`` -- STR bulk load at the Table-4 LA POI count and a
  dynamic R* insertion run (height, splits, forced reinserts);
- ``verification`` -- how many candidates Lemma 3.2 (one peer) and
  Lemma 3.8 (three peers) certify on synthesized constellations;
- ``service`` -- amortized pages per query as co-located concurrency
  grows through :class:`BatchExecutor` (the strict ordering itself is
  ``tests/test_service_batching.py``'s assertion);
- ``sim_window`` and ``counters`` -- one LA 2x2 road-network window:
  the SQRR shares, tier counts and per-query means, and every counter
  and gauge it leaves in a fresh registry.

Numbers are compared with a 5 % relative tolerance floored at an
absolute 0.05 (``rtol * max(|pinned|, 1)``), which absorbs the libm
drift across platforms that can flip one borderline certification in a
long simulation; strings compare exactly.  Regenerate (only when a
count changes on purpose) with::

    PYTHONPATH=src:. python tests/test_golden_paper_counts.py --regen
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest

from repro.core.heap import CandidateHeap
from repro.core.server import ServerAlgorithm, SpatialDatabaseServer
from repro.core.verification import verify_multi_peer, verify_single_peer
from repro.experiments.figures import _true_knn_cache, fig17
from repro.experiments.runner import Quality
from repro.geometry.point import Point
from repro.index.rtree import RTree, RTreeConfig
from repro.obs import OBS, MetricsRegistry, observed
from repro.service.batching import BatchExecutor
from repro.service.protocol import KnnRequest
from repro.sim.config import (
    PARAMETER_SETS_2X2,
    PARAMETER_SETS_30X30,
    MovementMode,
    SimulationConfig,
)
from repro.sim.simulation import Simulation

GOLDEN_PATH = Path(__file__).parent / "golden" / "paper_counts.json"
SEED = 0
RTOL = 0.05


@functools.lru_cache(maxsize=None)
def figure17() -> Dict[str, Any]:
    result = fig17(Quality.FAST, seed=SEED)
    return {"ks": result.xs, **result.series}


def tree_build() -> Dict[str, int]:
    """STR bulk load + 500 dynamic R* inserts at the Table-4 LA POI count."""
    params = PARAMETER_SETS_30X30["LA"]()
    coords = np.random.default_rng(SEED + 11).uniform(
        0.0, 30.0, size=(params.poi_number, 2)
    )
    pois = [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]
    bulk = RTree.bulk_load(list(pois), RTreeConfig())
    dynamic = RTree(RTreeConfig())
    for point, payload in pois[:500]:
        dynamic.insert(point, payload)
    return {
        "pois": len(bulk),
        "bulk_height": bulk.height,
        "dynamic_inserts": len(dynamic),
        "dynamic_height": dynamic.height,
        "dynamic_splits": dynamic.split_count,
        "dynamic_reinserts": dynamic.reinsert_count,
    }


def verification() -> Dict[str, int]:
    """Lemma 3.2 / 3.8 certifications over 200 synthesized constellations."""
    rng = np.random.default_rng(SEED + 17)
    area, tx_range, k, trials = 2.0, 0.124, 4, 200
    coords = rng.uniform(0.0, area, size=(400, 2))

    def query_point() -> Point:
        return Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))

    def peer_cache(center: Point):
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        radius = float(rng.uniform(0.0, tx_range))
        peer = Point(
            center.x + radius * float(np.cos(angle)),
            center.y + radius * float(np.sin(angle)),
        )
        return _true_knn_cache(peer, 10, coords)

    single_certified = 0
    for _ in range(trials):
        query = query_point()
        single_certified += verify_single_peer(
            query, peer_cache(query), CandidateHeap(k)
        )

    multi_certified = 0
    multi_complete = 0
    for _ in range(trials):
        query = query_point()
        caches = [peer_cache(query) for _ in range(3)]
        heap = CandidateHeap(k)
        for cache in caches:
            verify_single_peer(query, cache, heap)
        multi_certified += verify_multi_peer(query, caches, heap)
        multi_complete += heap.is_complete()

    return {
        "trials": trials,
        "k": k,
        "single_certified": single_certified,
        "multi_newly_certified": multi_certified,
        "multi_complete": multi_complete,
    }


def service() -> Dict[str, Any]:
    """Amortized pages per query for 25 waves at 1, 2, 4 and 8 clients.

    The anchors and jitters are drawn once; level ``c`` sends the first
    ``c`` points of each wave, and each level gets a fresh server.
    """
    rng = np.random.default_rng(SEED + 23)
    area, cell, k, waves = 10.0, 0.25, 8, 25
    concurrency = [1, 2, 4, 8]
    coords = rng.uniform(0.0, area, size=(2000, 2))
    pois = [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]
    tree = RTree.bulk_load(list(pois), RTreeConfig(max_entries=30))

    # Anchors sit at cell centers so the jittered cluster (±cell/8)
    # stays inside one batching cell and the whole wave merges.
    clusters: List[List[Point]] = []
    for _ in range(waves):
        anchor = Point(
            (float(rng.integers(1, int(area / cell) - 1)) + 0.5) * cell,
            (float(rng.integers(1, int(area / cell) - 1)) + 0.5) * cell,
        )
        clusters.append(
            [
                anchor.translated(
                    float(rng.uniform(-cell / 8.0, cell / 8.0)),
                    float(rng.uniform(-cell / 8.0, cell / 8.0)),
                )
                for _ in range(max(concurrency))
            ]
        )

    amortized: List[float] = []
    node_pages: List[float] = []
    entries: List[float] = []
    for level in concurrency:
        executor = BatchExecutor(
            SpatialDatabaseServer(tree, ServerAlgorithm.EINN), cell_size=cell
        )
        answers = [
            answer
            for cluster in clusters
            for answer in executor.execute(
                [
                    KnnRequest(request_id=index + 1, query=point, k=k)
                    for index, point in enumerate(cluster[:level])
                ]
            )
        ]
        amortized.append(sum(a.pages.total for a in answers) / len(answers))
        node_pages.append(
            sum(a.pages.index_nodes + a.pages.leaf_nodes for a in answers)
            / len(answers)
        )
        entries.append(
            sum(a.pages.entries_scanned for a in answers) / len(answers)
        )

    return {
        "pois": len(pois),
        "k": k,
        "waves": waves,
        "concurrency": concurrency,
        "amortized_pages": amortized,
        "amortized_node_pages": node_pages,
        "amortized_entries_scanned": entries,
    }


@functools.lru_cache(maxsize=None)
def _sim_window_and_counters() -> Tuple[Dict[str, Any], Dict[str, float]]:
    """One 240 s LA 2x2 road-network window on a fresh enabled registry."""
    config = SimulationConfig(
        parameters=PARAMETER_SETS_2X2["LA"](),
        movement_mode=MovementMode.ROAD_NETWORK,
        seed=SEED,
        t_execution_s=240.0,
    )
    previous = OBS.registry
    try:
        with observed(enabled=True):
            OBS.registry = MetricsRegistry()
            metrics = Simulation(config).run()
            snapshot = OBS.registry.snapshot()
    finally:
        OBS.registry = previous
    window = {
        "region": "LA",
        "movement": config.movement_mode.value,
        "duration_s": config.t_execution_s,
        "queries": metrics.total_queries,
        "warmup_queries": metrics.warmup_queries,
        "tier_counts": {
            tier.value: count for tier, count in metrics.tier_counts.items()
        },
        "server_share": metrics.server_share,
        "single_peer_share": metrics.single_peer_share,
        "multi_peer_share": metrics.multi_peer_share,
        "mean_server_pages": metrics.mean_server_pages(),
        "mean_peer_probes": metrics.mean_peer_probes(),
        "mean_tuples_received": metrics.mean_tuples_received(),
        "mean_latency_ms": metrics.mean_latency_ms(),
    }
    # Counters and gauges only: histograms may hold wall-clock sums.
    counters = {
        name: value for name, value in snapshot.items() if isinstance(value, float)
    }
    return window, counters


SECTIONS = {
    "fig17": figure17,
    "tree_build": tree_build,
    "verification": verification,
    "service": service,
    "sim_window": lambda: _sim_window_and_counters()[0],
    "counters": lambda: _sim_window_and_counters()[1],
}


def paper_counts() -> Dict[str, Any]:
    return {name: section() for name, section in SECTIONS.items()}


def _flatten(tree: Any, path: str = "") -> Dict[str, Any]:
    if isinstance(tree, dict):
        return {
            key: value
            for name, item in tree.items()
            for key, value in _flatten(item, f"{path}.{name}").items()
        }
    if isinstance(tree, list):
        return {
            key: value
            for index, item in enumerate(tree)
            for key, value in _flatten(item, f"{path}[{index}]").items()
        }
    return {path: tree}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", list(SECTIONS))
def test_section_matches_the_pinned_counts(name, golden):
    fresh = _flatten(SECTIONS[name]())
    pinned = _flatten(golden[name])
    assert sorted(fresh) == sorted(pinned)
    assert fresh == pytest.approx(pinned, rel=RTOL, abs=RTOL)


def test_einn_reads_no_more_pages_than_inn():
    figure = figure17()
    for region in PARAMETER_SETS_30X30:
        for k, einn, inn in zip(
            figure["ks"], figure[region]["EINN"], figure[region]["INN"]
        ):
            assert einn <= inn, f"{region} k={k}: EINN {einn} > INN {inn}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    GOLDEN_PATH.write_text(json.dumps(paper_counts(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
