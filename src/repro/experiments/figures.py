"""One function per paper artifact (see DESIGN.md's experiment index).

Every mobile-host figure (9-16) is a parameter sweep over the three
regional parameter sets with road-network mobility; Section 4.3 re-runs
them in free-movement mode; Figure 17 is the server-side EINN vs INN
page-access comparison.  The ablation studies at the bottom are this
repository's own additions, probing the design choices DESIGN.md calls
out (coverage backend, R-tree split policy).

``Quality.FAST`` keeps each figure's total runtime in benchmark range;
``Quality.FULL`` approaches the paper's horizons (Tables 3-4).  The 30x30
configurations always run through a density-preserving window scale-down
(see ``ParameterSet.scaled_area``); EXPERIMENTS.md records the factors.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.bounds import derive_pruning_bounds
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.core.senn import SennConfig
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import snnn_query
from repro.core.verification import verify_single_peer
from repro.geometry.coverage import CoverageMethod
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.index.rtree import RTree, RTreeConfig, SplitPolicy
from repro.index.knn import k_nearest
from repro.index.pagestats import PageAccessCounter
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.ier import incremental_network_expansion
from repro.sim.config import (
    METERS_PER_MILE,
    PARAMETER_SETS_2X2,
    PARAMETER_SETS_30X30,
    MovementMode,
    ParameterSet,
)
from repro.experiments.runner import FigureResult, Quality, run_one, sweep_parameter

__all__ = [
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "free_movement_comparison",
    "ablation_coverage_backend",
    "ablation_rtree_split",
    "snnn_cost_study",
]


# ----------------------------------------------------------------------
# shared sizing knobs
# ----------------------------------------------------------------------
def _duration_2x2(quality: Quality) -> float:
    return 900.0 if quality is Quality.FAST else 3600.0


def _duration_30x30(quality: Quality) -> float:
    return 240.0 if quality is Quality.FAST else 900.0


def _window_30x30(quality: Quality) -> float:
    # Density-preserving window side fraction of the 30-mile square.
    return 0.15 if quality is Quality.FAST else 0.3


def _regions_30x30(quality: Quality) -> Dict[str, Callable[[], ParameterSet]]:
    factor = _window_30x30(quality)
    return {
        name: (lambda factory=factory: factory().scaled_area(factor))
        for name, factory in PARAMETER_SETS_30X30.items()
    }


# ----------------------------------------------------------------------
# Figures 9 / 10: transmission range sweeps
# ----------------------------------------------------------------------
def fig9(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 9: resolution shares vs wireless range, 2x2-mile area."""
    xs = [50.0, 100.0, 150.0, 200.0] if quality is Quality.FAST else [
        20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0
    ]
    return sweep_parameter(
        "fig9",
        "Queries resolved by peers vs server, by transmission range (2x2 mi)",
        "Tx range (m)",
        xs,
        PARAMETER_SETS_2X2,
        lambda params, x: dataclasses.replace(params, tx_range_m=x),
        t_execution_s=_duration_2x2(quality),
        seed=seed,
    )


def fig10(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 10: same sweep over the 30x30-mile configurations."""
    xs = [50.0, 100.0, 150.0, 200.0] if quality is Quality.FAST else [
        20.0, 60.0, 100.0, 140.0, 180.0, 200.0
    ]
    return sweep_parameter(
        "fig10",
        "Queries resolved by peers vs server, by transmission range (30x30 mi)",
        "Tx range (m)",
        xs,
        _regions_30x30(quality),
        lambda params, x: dataclasses.replace(params, tx_range_m=x),
        t_execution_s=_duration_30x30(quality),
        seed=seed,
        notes=f"density-preserving {_window_30x30(quality):g}-side window",
    )


# ----------------------------------------------------------------------
# Figures 11 / 12: cache capacity sweeps
# ----------------------------------------------------------------------
def fig11(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 11: resolution shares vs cache capacity, 2x2-mile area."""
    xs = [1, 3, 5, 7, 9]
    return sweep_parameter(
        "fig11",
        "Queries resolved by peers vs server, by cache capacity (2x2 mi)",
        "Cached items",
        xs,
        PARAMETER_SETS_2X2,
        lambda params, x: dataclasses.replace(params, c_size=int(x)),
        t_execution_s=_duration_2x2(quality),
        seed=seed,
    )


def fig12(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 12: cache capacity sweep over the 30x30-mile configurations."""
    xs = [4, 8, 12, 16, 20]
    return sweep_parameter(
        "fig12",
        "Queries resolved by peers vs server, by cache capacity (30x30 mi)",
        "Cached items",
        xs,
        _regions_30x30(quality),
        lambda params, x: dataclasses.replace(params, c_size=int(x)),
        t_execution_s=_duration_30x30(quality),
        seed=seed,
        notes=f"density-preserving {_window_30x30(quality):g}-side window",
    )


# ----------------------------------------------------------------------
# Figures 13 / 14: movement velocity sweeps
# ----------------------------------------------------------------------
def fig13(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 13: resolution shares vs host velocity, 2x2-mile area."""
    xs = [10.0, 20.0, 30.0, 40.0, 50.0]
    return sweep_parameter(
        "fig13",
        "Queries resolved by peers vs server, by velocity (2x2 mi)",
        "Speed (mph)",
        xs,
        PARAMETER_SETS_2X2,
        lambda params, x: dataclasses.replace(params, m_velocity=x),
        t_execution_s=_duration_2x2(quality),
        seed=seed,
    )


def fig14(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 14: velocity sweep over the 30x30-mile configurations."""
    xs = [10.0, 30.0, 50.0] if quality is Quality.FAST else [
        10.0, 20.0, 30.0, 40.0, 50.0
    ]
    return sweep_parameter(
        "fig14",
        "Queries resolved by peers vs server, by velocity (30x30 mi)",
        "Speed (mph)",
        xs,
        _regions_30x30(quality),
        lambda params, x: dataclasses.replace(params, m_velocity=x),
        t_execution_s=_duration_30x30(quality),
        seed=seed,
        notes=f"density-preserving {_window_30x30(quality):g}-side window",
    )


# ----------------------------------------------------------------------
# Figures 15 / 16: k sweeps
# ----------------------------------------------------------------------
def fig15(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 15: resolution shares vs k, 2x2-mile area."""
    xs = [1, 3, 5, 7, 9]
    return sweep_parameter(
        "fig15",
        "Queries resolved by peers vs server, by k (2x2 mi)",
        "k",
        xs,
        PARAMETER_SETS_2X2,
        lambda params, x: dataclasses.replace(params, lambda_knn=int(x)),
        t_execution_s=_duration_2x2(quality),
        seed=seed,
    )


def fig16(quality: Quality = Quality.FAST, seed: int = 0) -> FigureResult:
    """Fig. 16: k sweep over the 30x30-mile configurations."""
    xs = [3, 6, 9, 12, 15]
    return sweep_parameter(
        "fig16",
        "Queries resolved by peers vs server, by k (30x30 mi)",
        "k",
        xs,
        _regions_30x30(quality),
        lambda params, x: dataclasses.replace(params, lambda_knn=int(x)),
        t_execution_s=_duration_30x30(quality),
        seed=seed,
        notes=f"density-preserving {_window_30x30(quality):g}-side window",
    )


# ----------------------------------------------------------------------
# Section 4.3: free movement vs road network
# ----------------------------------------------------------------------
def free_movement_comparison(
    quality: Quality = Quality.FAST, seed: int = 0
) -> FigureResult:
    """Section 4.3: server share under road-network vs free movement."""
    duration = _duration_2x2(quality)
    result = FigureResult(
        "free_movement",
        "Server share: road-network mode vs free movement (2x2 mi)",
        "mode",
        [0.0, 1.0],
        notes="x=0: road network, x=1: free movement",
    )
    for region, factory in PARAMETER_SETS_2X2.items():
        values: Dict[str, List[float]] = {"server": [], "single_peer": [], "multi_peer": []}
        for mode in (MovementMode.ROAD_NETWORK, MovementMode.FREE):
            metrics = run_one(
                factory(), mode=mode, seed=seed, t_execution_s=duration
            )
            percentages = metrics.percentages()
            for label in values:
                values[label].append(percentages[label])
        result.series[region] = values
    return result


# ----------------------------------------------------------------------
# Figure 17: EINN vs INN page accesses
# ----------------------------------------------------------------------
def fig17(
    quality: Quality = Quality.FAST, seed: int = 0
) -> FigureResult:
    """Fig. 17: R*-tree pages accessed by EINN vs INN, as a function of k.

    Mirrors Section 4.4's server-module experiment: query points uniform
    over the area, each client holding the partial knowledge produced by
    verifying two nearby peers' caches (the realistic source of pruning
    bounds), POI sets at the full Table-4 sizes.

    Both series come from the one EINN server algorithm, on two server
    objects over one tree (each keeps its own page counter): the EINN
    series asks with the client's bounds and known POIs, the INN series
    is ``inn_server.knn_query(q, k)`` with nothing known, which reads
    exactly the pages plain INN reads.
    """
    ks = [4, 6, 8, 10, 12, 14]
    queries = 40 if quality is Quality.FAST else 200
    area = 30.0
    result = FigureResult(
        "fig17",
        "R*-tree page accesses per query: EINN vs INN",
        "k",
        list(ks),
        notes=f"{queries} uniform query points per k, full Table-4 POI counts",
    )
    # Seed offset by region position, not hash(region): str hashes vary
    # per process (PYTHONHASHSEED), which made reruns irreproducible.
    for offset, (region, factory) in enumerate(PARAMETER_SETS_30X30.items()):
        params = factory()
        rng = np.random.default_rng(seed + 1000 * (offset + 1))
        coords = rng.uniform(0.0, area, size=(params.poi_number, 2))
        pois = [
            (Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)
        ]
        tree = RTree.bulk_load(pois, RTreeConfig(max_entries=30))
        einn_server = SpatialDatabaseServer(tree)
        inn_server = SpatialDatabaseServer(tree)
        einn_series: List[float] = []
        inn_series: List[float] = []
        for k in ks:
            einn_server.reset_statistics()
            inn_server.reset_statistics()
            issued = 0
            attempts = 0
            while issued < queries and attempts < queries * 50:
                attempts += 1
                q = Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))
                bounds, known = _client_partial_knowledge(
                    q, k, coords, params, rng
                )
                if len(known) >= k:
                    # Fully answered by peers: such queries never reach the
                    # server in the real system.
                    continue
                issued += 1
                einn_server.knn_query(q, k, bounds, known)
                inn_server.knn_query(q, k)
            einn_series.append(einn_server.mean_page_accesses())
            inn_series.append(inn_server.mean_page_accesses())
        result.series[region] = {"EINN": einn_series, "INN": inn_series}
    return result


def _client_partial_knowledge(
    query: Point,
    k: int,
    poi_coords: np.ndarray,
    params: ParameterSet,
    rng: np.random.Generator,
) -> Tuple:
    """Synthesize a querying client's heap from nearby peers' caches.

    Each peer sits within the transmission range and carries the true
    NNs of its own location (exactly what the caching policies
    guarantee).  Peer count (0-2) and cache fill vary: the clients that
    actually reach the server are the ones whose neighborhood could not
    certify everything, so their knowledge is partial by construction.
    The client runs single-peer verification to populate its heap and
    derives the branch-expanding bounds from the heap state.
    """
    heap = CandidateHeap(k)
    for _ in range(int(rng.integers(0, 3))):
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(0.0, params.tx_range_miles)
        peer = Point(
            query.x + radius * float(np.cos(angle)),
            query.y + radius * float(np.sin(angle)),
        )
        cache_size = int(rng.integers(1, params.c_size + 1))
        cache = _true_knn_cache(peer, cache_size, poi_coords)
        verify_single_peer(query, cache, heap)
    bounds = derive_pruning_bounds(heap)
    known = [
        NeighborResult(entry.point, entry.payload, entry.distance)
        for entry in heap.certain_entries()
    ]
    return bounds, known


def _true_knn_cache(
    location: Point, k: int, poi_coords: np.ndarray
) -> CachedQueryResult:
    """Brute-force kNN of ``location`` as a peer cache (numpy-vectorized)."""
    deltas = poi_coords - np.array([location.x, location.y])
    distances = np.hypot(deltas[:, 0], deltas[:, 1])
    order = np.argsort(distances)[:k]
    neighbors = tuple(
        NeighborResult(
            Point(float(poi_coords[i, 0]), float(poi_coords[i, 1])),
            int(i),
            float(distances[i]),
        )
        for i in order
    )
    return CachedQueryResult(location, neighbors)


# ----------------------------------------------------------------------
# Ablations (this repository's own studies)
# ----------------------------------------------------------------------
def ablation_coverage_backend(
    quality: Quality = Quality.FAST, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Exact disk-union coverage vs the paper's polygonization.

    Runs the LA 2x2 simulation once per backend and reports the resolution
    shares; the polygon backend under-approximates the certain region, so
    its multi-peer share can only be lower or equal.
    """
    duration = _duration_2x2(quality)
    results: Dict[str, Dict[str, float]] = {}
    for method in (CoverageMethod.EXACT, CoverageMethod.POLYGON):
        metrics = run_one(
            PARAMETER_SETS_2X2["LA"](),
            seed=seed,
            t_execution_s=duration,
            config_overrides={"coverage_method": method, "polygon_sides": 24},
        )
        results[method.value] = metrics.percentages()
    return results


def ablation_rtree_split(
    quality: Quality = Quality.FAST, seed: int = 0
) -> Dict[str, float]:
    """R* split vs Guttman quadratic split: mean INN pages per query."""
    rng = np.random.default_rng(seed)
    poi_count = 3105  # Synthetic Suburbia, Table 4
    queries = 50 if quality is Quality.FAST else 300
    area = 30.0
    coords = rng.uniform(0.0, area, size=(poi_count, 2))
    items = [(Point(float(x), float(y)), i) for i, (x, y) in enumerate(coords)]
    query_points = [
        Point(float(rng.uniform(0, area)), float(rng.uniform(0, area)))
        for _ in range(queries)
    ]
    results: Dict[str, float] = {}
    for policy in (SplitPolicy.RSTAR, SplitPolicy.QUADRATIC):
        tree = RTree(RTreeConfig(max_entries=30, split_policy=policy))
        for point, payload in items:
            tree.insert(point, payload)
        counter = PageAccessCounter()
        for q in query_points:
            counter.start_query()
            k_nearest(tree, q, 8, counter)
            counter.finish_query()
        results[policy.value] = counter.mean_per_query()
    return results


def snnn_cost_study(
    quality: Quality = Quality.FAST, seed: int = 0
) -> Dict[str, float]:
    """SNNN correctness + cost against the INE oracle on a road network.

    Returns the mean wall-clock per query for both, the candidate split
    between peers and server, and the (asserted-zero) mismatch count.
    """
    queries = 15 if quality is Quality.FAST else 60
    k = 3
    rng = np.random.default_rng(seed)
    network = generate_road_network(
        RoadNetworkSpec(width=4.0, height=4.0, secondary_spacing=0.4, seed=seed)
    )
    poi_count = 40
    pois = []
    for i in range(poi_count):
        raw = Point(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
        snapped = network.snap(raw)
        pois.append((snapped.point, f"poi-{i}"))
    server = SpatialDatabaseServer.from_points(pois)
    poi_locations = [(network.snap(p), payload) for p, payload in pois]
    config = SennConfig(k=k, cache_capacity=10)

    mismatches = 0
    peers_total = 0
    server_total = 0
    snnn_time = 0.0
    ine_time = 0.0
    for _ in range(queries):
        q = Point(float(rng.uniform(0.2, 3.8)), float(rng.uniform(0.2, 3.8)))
        started = time.perf_counter()
        snnn = snnn_query(q, k, network, None, [], config, server=server)
        snnn_time += time.perf_counter() - started
        started = time.perf_counter()
        oracle = incremental_network_expansion(network, network.snap(q), poi_locations, k)
        ine_time += time.perf_counter() - started
        got = [round(r.network_distance, 6) for r in snnn.neighbors]
        want = [round(r.network_distance, 6) for r in oracle]
        if got != want:
            mismatches += 1
        peers_total += snnn.candidates_from_peers
        server_total += snnn.candidates_from_server
    return {
        "queries": float(queries),
        "mismatches": float(mismatches),
        "snnn_ms_per_query": 1000.0 * snnn_time / queries,
        "ine_ms_per_query": 1000.0 * ine_time / queries,
        "mean_candidates_from_peers": peers_total / queries,
        "mean_candidates_from_server": server_total / queries,
    }
