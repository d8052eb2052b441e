"""``repro-bench``: the pinned suite of the paper's counts.

Runs a fixed, seeded suite over the engine's hot paths and emits
``BENCH_baseline.json`` — page counts, certification counts, SQRR
shares and the counter snapshot behind them — the regression gate
``repro-bench --fast --check`` diffs against.

Five sections, every one driven through the instrumentation this layer
added rather than ad-hoc counters in the benchmark script:

* ``tree_build`` — STR bulk load at the Table-4 LA POI count plus a
  dynamic R\\* insertion run (splits / forced reinserts).
* ``inn_vs_einn`` — the Figure 17 experiment: mean pages per query for
  EINN (with client pruning bounds) vs plain INN over the 30×30-mile
  parameter sets; the suite *requires* the paper's EINN ≤ INN ordering.
* ``verification`` — Lemma 3.2 single-peer and Lemma 3.8 multi-peer
  certification rates on synthesized peer constellations.
* ``service`` — the query-batching experiment: amortized pages per
  query as co-located client concurrency grows (waves of clustered kNN
  requests through the service's :class:`BatchExecutor`); the suite
  *requires* the amortized cost to be strictly decreasing.
* ``sim_window`` — one FAST-quality LA 2×2 simulation window; SQRR
  shares, per-tier counts and the global counter snapshot.
* ``network`` — road-network kNN at scale: the hierarchical
  ``NetworkIndex`` vs the Dijkstra reference on a real extract (``smoke``
  / ``fast``: the committed ~5k-node extract; ``full``: a generated
  100k+-node graph), reporting per-query settled vertices and the
  speedup; the suite *requires* answers bit-identical across the two
  implementations and a >= 10x settled-vertex reduction.

Every result is ``deterministic``: seeded, bit-stable across runs on
one machine, compared by ``--check`` with a tolerance that absorbs
cross-platform libm drift.  The suite reads no clock; speed is
``bench_e2e``'s job (``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.index.pagestats import AccessBreakdown
from repro.index.rtree import RTree, RTreeConfig
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.index import DijkstraIndex, HierarchicalIndex
from repro.network.loaders import load_bundled_extract
from repro.core.heap import CandidateHeap
from repro.core.server import ServerAlgorithm, SpatialDatabaseServer
from repro.core.verification import verify_multi_peer, verify_single_peer
from repro.obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry
from repro.obs.profiling import OBS, observed
from repro.obs.tracing import Tracer, records_from_jsonl
from repro.sim.config import (
    PARAMETER_SETS_2X2,
    PARAMETER_SETS_30X30,
    MovementMode,
    SimulationConfig,
)
from repro.sim.simulation import Simulation
from repro.service.batching import BatchExecutor
from repro.service.protocol import KnnRequest
from repro.experiments.figures import _client_partial_knowledge, _true_knn_cache

__all__ = [
    "BenchProfile",
    "PROFILES",
    "SCHEMA_VERSION",
    "compare_to_baseline",
    "main",
    "run_suite",
    "validate_baseline",
]

#: Bumped whenever the result layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchProfile:
    """One pinned suite configuration (``smoke`` / ``fast`` / ``full``)."""

    name: str
    dynamic_inserts: int
    knn_regions: Tuple[str, ...]
    knn_ks: Tuple[int, ...]
    knn_queries: int
    verify_trials: int
    sim_region: str
    sim_duration_s: float
    sim_movement: MovementMode
    #: ``extract`` = the committed ~5k-node graph; ``la-100k`` = a
    #: generated 100k+-node LA-scale graph (``full`` only -- Dijkstra is
    #: visibly hopeless there, which is the point).
    network_graph: str = "extract"
    network_queries: int = 8
    network_pois: int = 600
    network_k: int = 10


PROFILES: Dict[str, BenchProfile] = {
    "smoke": BenchProfile(
        name="smoke",
        dynamic_inserts=150,
        knn_regions=("LA",),
        knn_ks=(4, 8),
        knn_queries=8,
        verify_trials=40,
        sim_region="LA",
        sim_duration_s=40.0,
        sim_movement=MovementMode.FREE,
        network_graph="extract",
        network_queries=4,
        network_pois=300,
        network_k=8,
    ),
    "fast": BenchProfile(
        name="fast",
        dynamic_inserts=500,
        knn_regions=("LA", "RV"),
        knn_ks=(4, 8, 14),
        knn_queries=25,
        verify_trials=200,
        sim_region="LA",
        sim_duration_s=240.0,
        sim_movement=MovementMode.ROAD_NETWORK,
        network_graph="extract",
        network_queries=10,
        network_pois=600,
        network_k=10,
    ),
    "full": BenchProfile(
        name="full",
        dynamic_inserts=1000,
        knn_regions=("LA", "SYN", "RV"),
        knn_ks=(4, 6, 8, 10, 12, 14),
        knn_queries=100,
        verify_trials=1000,
        sim_region="LA",
        sim_duration_s=900.0,
        sim_movement=MovementMode.ROAD_NETWORK,
        network_graph="la-100k",
        network_queries=10,
        network_pois=2000,
        network_k=10,
    ),
}


# ----------------------------------------------------------------------
# suite sections
# ----------------------------------------------------------------------
def _bench_tree_build(profile: BenchProfile, seed: int) -> Dict[str, Any]:
    """STR bulk load + dynamic R\\* inserts at the Table-4 LA POI count."""
    params = PARAMETER_SETS_30X30["LA"]()
    rng = np.random.default_rng(seed + 11)
    coords = rng.uniform(0.0, 30.0, size=(params.poi_number, 2))
    pois = [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]

    bulk_tree = RTree.bulk_load(list(pois), RTreeConfig())

    dynamic_tree = RTree(RTreeConfig())
    for point, payload in pois[: profile.dynamic_inserts]:
        dynamic_tree.insert(point, payload)

    return {
        "pois": len(bulk_tree),
        "bulk_height": bulk_tree.height,
        "dynamic_inserts": len(dynamic_tree),
        "dynamic_height": dynamic_tree.height,
        "dynamic_splits": dynamic_tree.split_count,
        "dynamic_reinserts": dynamic_tree.reinsert_count,
    }


def _mean_entries_scanned(history: Sequence[AccessBreakdown]) -> float:
    """Mean ``entries_scanned`` per query over a slice of counter history.

    The CPU-side companion to the pages-per-query series: how many node
    entries the vectorized kernels examined per query.  Never part of
    ``total`` (a whole-node scan is one page access), so it is tracked
    as its own baseline series.
    """
    if not history:
        return 0.0
    return sum(item.entries_scanned for item in history) / len(history)


def _bench_inn_vs_einn(profile: BenchProfile, seed: int) -> Dict[str, Any]:
    """The Figure 17 experiment: mean pages per query, EINN vs INN.

    Page counts are read back from the ``server.pages_per_query``
    histograms in the global registry — the instrumentation is the
    measurement, the benchmark script only orchestrates.
    """
    out: Dict[str, Any] = {}
    # Seed offset by region position (as fig17 does post-PR-5): stable
    # across processes, distinct per region.
    for offset, region in enumerate(profile.knn_regions):
        params = PARAMETER_SETS_30X30[region]()
        rng = np.random.default_rng(seed + 1000 * (offset + 1))
        area = 30.0
        coords = rng.uniform(0.0, area, size=(params.poi_number, 2))
        pois = [
            (Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)
        ]
        tree = RTree.bulk_load(list(pois), RTreeConfig(max_entries=30))
        einn_server = SpatialDatabaseServer(tree, ServerAlgorithm.EINN)
        inn_server = SpatialDatabaseServer(tree, ServerAlgorithm.INN)
        einn_series: List[float] = []
        inn_series: List[float] = []
        einn_entries: List[float] = []
        inn_entries: List[float] = []
        for k in profile.knn_ks:
            einn_history_base = len(einn_server.counter.history)
            inn_history_base = len(inn_server.counter.history)
            einn_pages = OBS.registry.histogram(
                "server.pages_per_query",
                boundaries=DEFAULT_COUNT_BUCKETS,
                algorithm="einn",
            )
            inn_pages = OBS.registry.histogram(
                "server.pages_per_query",
                boundaries=DEFAULT_COUNT_BUCKETS,
                algorithm="inn",
            )
            base = (einn_pages.sum, einn_pages.count, inn_pages.sum, inn_pages.count)
            issued = 0
            attempts = 0
            while issued < profile.knn_queries and attempts < profile.knn_queries * 50:
                attempts += 1
                q = Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))
                bounds, known = _client_partial_knowledge(q, k, coords, params, rng)
                if len(known) >= k:
                    continue  # answered by peers; never reaches the server
                issued += 1
                einn_server.knn_query(q, k, bounds, known)
                inn_server.knn_query(q, k)
            einn_delta = (einn_pages.sum - base[0], einn_pages.count - base[1])
            inn_delta = (inn_pages.sum - base[2], inn_pages.count - base[3])
            einn_series.append(einn_delta[0] / max(einn_delta[1], 1))
            inn_series.append(inn_delta[0] / max(inn_delta[1], 1))
            einn_entries.append(
                _mean_entries_scanned(
                    einn_server.counter.history[einn_history_base:]
                )
            )
            inn_entries.append(
                _mean_entries_scanned(
                    inn_server.counter.history[inn_history_base:]
                )
            )
        out[region] = {
            "ks": list(profile.knn_ks),
            "einn_pages": einn_series,
            "inn_pages": inn_series,
            "einn_entries_scanned": einn_entries,
            "inn_entries_scanned": inn_entries,
        }
    return out


def _bench_verification(profile: BenchProfile, seed: int) -> Dict[str, Any]:
    """Lemma 3.2 / Lemma 3.8 certification rates on synthesized peers."""
    rng = np.random.default_rng(seed + 17)
    area = 2.0
    tx_range = 0.124
    coords = rng.uniform(0.0, area, size=(400, 2))
    k = 4

    def random_peer(center: Point) -> Point:
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        radius = float(rng.uniform(0.0, tx_range))
        return Point(
            center.x + radius * float(np.cos(angle)),
            center.y + radius * float(np.sin(angle)),
        )

    single_certified = 0
    for _ in range(profile.verify_trials):
        query = Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))
        cache = _true_knn_cache(random_peer(query), 10, coords)
        heap = CandidateHeap(k)
        single_certified += verify_single_peer(query, cache, heap)

    multi_certified = 0
    multi_complete = 0
    for _ in range(profile.verify_trials):
        query = Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))
        caches = [
            _true_knn_cache(random_peer(query), 10, coords) for _ in range(3)
        ]
        heap = CandidateHeap(k)
        for cache in caches:
            verify_single_peer(query, cache, heap)
        multi_certified += verify_multi_peer(query, caches, heap)
        if heap.is_complete():
            multi_complete += 1

    return {
        "trials": profile.verify_trials,
        "k": k,
        "single_certified": single_certified,
        "multi_newly_certified": multi_certified,
        "multi_complete": multi_complete,
    }


#: Client concurrency levels for the service batching experiment.
_SERVICE_CONCURRENCY: Tuple[int, ...] = (1, 2, 4, 8)


def _bench_service(profile: BenchProfile, seed: int) -> Dict[str, Any]:
    """Amortized pages per query vs co-located client concurrency.

    The issue's acceptance experiment: waves of clustered kNN requests
    run through the service's :class:`BatchExecutor` at increasing
    concurrency.  With ``c`` clients sharing one EINN traversal the node
    reads amortize ~``1/c`` while shipped records stay exact, so the
    amortized per-query page cost must *strictly decrease* with ``c``
    (``validate_baseline`` enforces this).

    Determinism: the query anchors and per-client jitters are drawn once
    and reused at every level — level ``c`` uses the first ``c`` jittered
    points of each wave — and each level gets a fresh server so buffer
    state cannot leak between levels.
    """
    rng = np.random.default_rng(seed + 23)
    area = 10.0
    cell = 0.25
    k = 8
    coords = rng.uniform(0.0, area, size=(2000, 2))
    pois = [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]
    tree = RTree.bulk_load(list(pois), RTreeConfig(max_entries=30))

    waves = profile.knn_queries
    max_clients = max(_SERVICE_CONCURRENCY)
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
                for _ in range(max_clients)
            ]
        )

    amortized: List[float] = []
    traversal_pages: List[float] = []
    scanned_entries: List[float] = []
    for level in _SERVICE_CONCURRENCY:
        server = SpatialDatabaseServer(tree, ServerAlgorithm.EINN)
        executor = BatchExecutor(server, cell_size=cell)
        total_pages = 0
        node_pages = 0
        entries = 0
        queries = 0
        for cluster in clusters:
            requests = [
                KnnRequest(request_id=index + 1, query=point, k=k)
                for index, point in enumerate(cluster[:level])
            ]
            for answer in executor.execute(requests):
                total_pages += answer.pages.total
                node_pages += answer.pages.index_nodes + answer.pages.leaf_nodes
                entries += answer.pages.entries_scanned
                queries += 1
        amortized.append(total_pages / queries)
        traversal_pages.append(node_pages / queries)
        scanned_entries.append(entries / queries)

    return {
        "pois": len(pois),
        "k": k,
        "waves": waves,
        "concurrency": list(_SERVICE_CONCURRENCY),
        "amortized_pages": amortized,
        "amortized_node_pages": traversal_pages,
        "amortized_entries_scanned": scanned_entries,
    }


def _bench_sim_window(
    profile: BenchProfile, seed: int, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    """One FAST-quality simulation window; SQRR re-derived from metrics."""
    config = SimulationConfig(
        parameters=PARAMETER_SETS_2X2[profile.sim_region](),
        movement_mode=profile.sim_movement,
        seed=seed,
        t_execution_s=profile.sim_duration_s,
    )
    if tracer is not None:
        OBS.tracer = tracer
    metrics = Simulation(config).run()
    OBS.tracer = None

    return {
        "region": profile.sim_region,
        "movement": profile.sim_movement.value,
        "duration_s": profile.sim_duration_s,
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


def _bench_network(profile: BenchProfile, seed: int) -> Dict[str, Any]:
    """Road-network kNN: hierarchical ``NetworkIndex`` vs plain Dijkstra.

    The same origins, POIs and ``k`` run through both implementations;
    the answers must agree bit for bit (summarized by the checksums the
    validator compares exactly), and the settled-vertex counts quantify
    the hierarchy's advantage.  The graph is pinned per profile, the
    query workload derives from the bench seed.
    """
    if profile.network_graph == "extract":
        network = load_bundled_extract()
    elif profile.network_graph == "la-100k":
        spec = RoadNetworkSpec(
            width=30.0, height=30.0, secondary_spacing=0.093, seed=1601
        )
        network = generate_road_network(spec)
    else:  # pragma: no cover - profile table is pinned above
        raise ValueError(f"unknown network graph {profile.network_graph!r}")

    hierarchy = HierarchicalIndex(network, leaf_size=64)
    reference = DijkstraIndex(network)

    rng = random.Random(f"bench-network:{seed}")
    edges = list(network.edges())

    def on_edge() -> Any:
        edge = rng.choice(edges)
        return network.location_at(edge, rng.uniform(0.0, edge.length))

    pois = [(on_edge(), index) for index in range(profile.network_pois)]
    origins = [on_edge() for _ in range(profile.network_queries)]
    reference.register_pois(pois)
    hierarchy.register_pois(pois)

    def run(index: Any) -> Tuple[float, float]:
        index.stats.reset()
        checksum = 0.0
        for origin in origins:
            for neighbor in index.knn(origin, profile.network_k):
                if not math.isinf(neighbor.network_distance):
                    checksum += neighbor.network_distance
        return checksum, index.stats.settled_vertices / len(origins)

    checksum_dijkstra, settled_dijkstra = run(reference)
    checksum_hierarchy, settled_hierarchy = run(hierarchy)
    return {
        "graph": profile.network_graph,
        "graph_nodes": network.node_count,
        "graph_edges": network.edge_count,
        "pois": profile.network_pois,
        "queries": profile.network_queries,
        "k": profile.network_k,
        "hierarchy": {
            key: float(value) for key, value in hierarchy.describe().items()
        },
        "settled_per_query_dijkstra": settled_dijkstra,
        "settled_per_query_hierarchy": settled_hierarchy,
        "settled_speedup": settled_dijkstra / max(1.0, settled_hierarchy),
        "pois_refined_per_query": hierarchy.stats.pois_refined
        / profile.network_queries,
        "answer_checksum_dijkstra": checksum_dijkstra,
        "answer_checksum_hierarchy": checksum_hierarchy,
    }


def _counter_snapshot(registry: MetricsRegistry) -> Dict[str, float]:
    """Counters and gauges only (histograms may hold wall-clock sums)."""
    return {
        name: value
        for name, value in registry.snapshot().items()
        if isinstance(value, float)
    }


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_suite(
    profile_name: str = "fast",
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Run the full pinned suite and return the baseline document.

    Forces the observability switchboard on for the duration (the suite
    *is* the instrumentation's consumer) and restores the previous
    global registry afterwards, so callers' metrics are unaffected.
    """
    profile = PROFILES[profile_name]
    previous_registry = OBS.registry
    try:
        with observed(enabled=True):
            OBS.registry = MetricsRegistry()
            tree_build = _bench_tree_build(profile, seed)
            OBS.registry = MetricsRegistry()
            inn_vs_einn = _bench_inn_vs_einn(profile, seed)
            OBS.registry = MetricsRegistry()
            verification = _bench_verification(profile, seed)
            OBS.registry = MetricsRegistry()
            service = _bench_service(profile, seed)
            OBS.registry = MetricsRegistry()
            sim_window = _bench_sim_window(profile, seed, tracer)
            counters = _counter_snapshot(OBS.registry)
            # The network section runs *after* the counter snapshot on
            # its own registry, so every pre-existing deterministic
            # section (counters included) stays byte-identical to the
            # baselines committed before the section existed.
            OBS.registry = MetricsRegistry()
            network = _bench_network(profile, seed)
    finally:
        OBS.registry = previous_registry
    return {
        "schema_version": SCHEMA_VERSION,
        "profile": profile.name,
        "seed": seed,
        "deterministic": {
            "tree_build": tree_build,
            "inn_vs_einn": inn_vs_einn,
            "verification": verification,
            "service": service,
            "sim_window": sim_window,
            "counters": counters,
            "network": network,
        },
    }


# ----------------------------------------------------------------------
# validation and regression checking
# ----------------------------------------------------------------------
def validate_baseline(data: Any) -> List[str]:
    """Schema-validate a baseline document; returns problems (empty = ok).

    Beyond structure, enforces two qualitative invariants: EINN accesses
    no more pages than INN (Figure 17 / Section 4.4) at every measured
    ``k``, and the service's query batching makes the amortized per-query
    page cost *strictly decreasing* as co-located concurrency grows.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["baseline must be a JSON object"]
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got "
            f"{data.get('schema_version')!r}"
        )
    if data.get("profile") not in PROFILES:
        problems.append(f"unknown profile {data.get('profile')!r}")
    if not isinstance(data.get("seed"), int):
        problems.append("seed must be an integer")
    deterministic = data.get("deterministic")
    if not isinstance(deterministic, dict):
        return problems + ["missing 'deterministic' section"]
    for section in (
        "tree_build",
        "inn_vs_einn",
        "verification",
        "service",
        "sim_window",
        "counters",
        "network",
    ):
        if not isinstance(deterministic.get(section), dict):
            problems.append(f"missing deterministic section {section!r}")
    for region, series in (deterministic.get("inn_vs_einn") or {}).items():
        einn = series.get("einn_pages", [])
        inn = series.get("inn_pages", [])
        ks = series.get("ks", [])
        einn_entries = series.get("einn_entries_scanned", [])
        inn_entries = series.get("inn_entries_scanned", [])
        if not (
            len(einn)
            == len(inn)
            == len(einn_entries)
            == len(inn_entries)
            == len(ks)
        ) or not ks:
            problems.append(f"inn_vs_einn[{region!r}]: malformed series")
            continue
        for k, einn_pages, inn_pages in zip(ks, einn, inn):
            if einn_pages > inn_pages + 1e-9:
                problems.append(
                    f"inn_vs_einn[{region!r}] k={k}: EINN accessed more "
                    f"pages than INN ({einn_pages:.2f} > {inn_pages:.2f}) — "
                    "violates the Figure 17 ordering"
                )
    service = deterministic.get("service") or {}
    concurrency = service.get("concurrency", [])
    amortized = service.get("amortized_pages", [])
    scanned = service.get("amortized_entries_scanned", [])
    if (
        len(concurrency) != len(amortized)
        or len(concurrency) != len(scanned)
        or len(concurrency) < 2
    ):
        problems.append("service: malformed concurrency/amortized_pages series")
    else:
        for index in range(1, len(amortized)):
            if not amortized[index] < amortized[index - 1]:
                problems.append(
                    f"service: amortized pages/query not strictly decreasing "
                    f"at concurrency {concurrency[index]} "
                    f"({amortized[index]:.2f} >= {amortized[index - 1]:.2f})"
                )
    network = deterministic.get("network") or {}
    if network:
        checksum_ref = network.get("answer_checksum_dijkstra")
        checksum_hier = network.get("answer_checksum_hierarchy")
        # Bit-identity across implementations is the NetworkIndex
        # contract, so the checksums must agree exactly, not within rtol.
        if checksum_ref != checksum_hier:  # repro: noqa(RPR001)
            problems.append(
                f"network: hierarchy answer checksum {checksum_hier!r} != "
                f"Dijkstra reference {checksum_ref!r} — the NetworkIndex "
                "exactness contract is broken"
            )
        speedup = network.get("settled_speedup", 0.0)
        if not isinstance(speedup, (int, float)) or speedup < 10.0:
            problems.append(
                f"network: settled-vertex speedup {speedup!r} below the "
                "required 10x hierarchy advantage"
            )
    return problems


def compare_to_baseline(
    fresh: Dict[str, Any], baseline: Dict[str, Any], rtol: float = 0.05
) -> List[str]:
    """Diff a fresh run against the committed baseline.

    Only the ``deterministic`` tree plus the identity fields are
    compared; numbers match within ``rtol`` relative tolerance (absorbs
    1-ulp libm differences across platforms that can flip a borderline
    certification in a long simulation), everything else exactly.
    """
    diffs: List[str] = []
    for field in ("schema_version", "profile", "seed"):
        if fresh.get(field) != baseline.get(field):
            diffs.append(
                f"{field}: fresh={fresh.get(field)!r} "
                f"baseline={baseline.get(field)!r}"
            )
    _compare_trees(
        fresh.get("deterministic"),
        baseline.get("deterministic"),
        "deterministic",
        rtol,
        diffs,
    )
    return diffs


def _compare_trees(
    fresh: Any, baseline: Any, path: str, rtol: float, diffs: List[str]
) -> None:
    if len(diffs) > 50:
        return
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            diffs.append(f"{path}: expected object, got {type(fresh).__name__}")
            return
        for key in sorted(set(fresh) | set(baseline)):
            if key not in fresh:
                diffs.append(f"{path}.{key}: missing from fresh run")
            elif key not in baseline:
                diffs.append(f"{path}.{key}: not in baseline (new metric?)")
            else:
                _compare_trees(
                    fresh[key], baseline[key], f"{path}.{key}", rtol, diffs
                )
    elif isinstance(baseline, list):
        if not isinstance(fresh, list) or len(fresh) != len(baseline):
            diffs.append(f"{path}: list shape changed")
            return
        for index, (fresh_item, base_item) in enumerate(zip(fresh, baseline)):
            _compare_trees(
                fresh_item, base_item, f"{path}[{index}]", rtol, diffs
            )
    elif isinstance(baseline, (int, float)) and not isinstance(baseline, bool):
        if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
            diffs.append(f"{path}: expected number, got {type(fresh).__name__}")
            return
        tolerance = rtol * max(abs(float(baseline)), 1.0)
        if abs(float(fresh) - float(baseline)) > tolerance:
            diffs.append(f"{path}: fresh={fresh} baseline={baseline} (> {rtol:.0%})")
    elif fresh != baseline:
        diffs.append(f"{path}: fresh={fresh!r} baseline={baseline!r}")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the pinned micro/macro performance suite.",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="fast",
        help="suite size (default: fast — the committed baseline profile)",
    )
    parser.add_argument(
        "--fast",
        action="store_const",
        const="fast",
        dest="profile",
        help="shorthand for --profile fast",
    )
    parser.add_argument("--seed", type=int, default=0, help="suite RNG seed")
    parser.add_argument(
        "--output",
        default="BENCH_baseline.json",
        help="baseline file to write (or compare against with --check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh run against --output instead of rewriting it",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=0.05,
        help="relative tolerance for --check numeric comparisons",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record the sim window as a deterministic JSONL trace",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary output"
    )
    return parser


def _print_summary(result: Dict[str, Any]) -> None:
    deterministic = result["deterministic"]
    tree = deterministic["tree_build"]
    sim = deterministic["sim_window"]
    print(
        f"tree_build: {tree['pois']} POIs bulk (height {tree['bulk_height']}), "
        f"{tree['dynamic_inserts']} inserts "
        f"({tree['dynamic_splits']} splits, {tree['dynamic_reinserts']} reinserts)"
    )
    for region, series in deterministic["inn_vs_einn"].items():
        pairs = ", ".join(
            f"k={k}: {einn:.1f}/{inn:.1f}"
            for k, einn, inn in zip(
                series["ks"], series["einn_pages"], series["inn_pages"]
            )
        )
        print(f"inn_vs_einn[{region}] (EINN/INN mean pages): {pairs}")
    service = deterministic["service"]
    pairs = ", ".join(
        f"c={level}: {pages:.1f}"
        for level, pages in zip(
            service["concurrency"], service["amortized_pages"]
        )
    )
    print(f"service (amortized pages/query by concurrency): {pairs}")
    verify = deterministic["verification"]
    print(
        f"verification: {verify['single_certified']} single-peer certs, "
        f"{verify['multi_newly_certified']} multi-peer certs over "
        f"{verify['trials']} trials (k={verify['k']})"
    )
    print(
        f"sim_window[{sim['region']}/{sim['movement']}]: "
        f"{sim['queries']} queries, "
        f"SQRR {100 * sim['server_share']:.1f}%, "
        f"single {100 * sim['single_peer_share']:.1f}%, "
        f"multi {100 * sim['multi_peer_share']:.1f}%, "
        f"{sim['mean_server_pages']:.1f} pages/server-query"
    )
    network = deterministic["network"]
    print(
        f"network[{network['graph']}]: {network['graph_nodes']} nodes, "
        f"{network['queries']} kNN queries (k={network['k']}), "
        f"settled/query {network['settled_per_query_dijkstra']:.0f} -> "
        f"{network['settled_per_query_hierarchy']:.0f} "
        f"({network['settled_speedup']:.1f}x)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point for ``repro-bench``."""
    args = _build_parser().parse_args(argv)
    tracer = Tracer() if args.trace else None
    result = run_suite(args.profile, seed=args.seed, tracer=tracer)

    problems = validate_baseline(result)
    if problems:
        for problem in problems:
            print(f"repro-bench: invalid result: {problem}", file=sys.stderr)
        return 2

    if tracer is not None and args.trace:
        text = tracer.to_jsonl()
        with open(args.trace, "w", encoding="utf-8") as stream:
            stream.write(text)
        reloaded = records_from_jsonl(text)
        if len(reloaded) != len(tracer.records):
            print("repro-bench: trace round-trip mismatch", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"trace: {len(tracer.records)} records -> {args.trace}")

    if not args.quiet:
        _print_summary(result)

    if args.check:
        try:
            with open(args.output, "r", encoding="utf-8") as stream:
                baseline = json.load(stream)
        except (OSError, ValueError) as exc:
            print(f"repro-bench: cannot read baseline: {exc}", file=sys.stderr)
            return 2
        diffs = compare_to_baseline(result, baseline, rtol=args.rtol)
        if diffs:
            print(
                f"repro-bench: {len(diffs)} regression(s) vs {args.output}:",
                file=sys.stderr,
            )
            for diff in diffs:
                print(f"  {diff}", file=sys.stderr)
            return 1
        if not args.quiet:
            print(f"check: within {args.rtol:.0%} of {args.output}")
        return 0

    with open(args.output, "w", encoding="utf-8") as stream:
        json.dump(result, stream, indent=2, sort_keys=True)
        stream.write("\n")
    if not args.quiet:
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
