"""The differential runner: implementations vs. oracles, plus a shrinker.

For each :class:`~repro.testing.scenarios.Scenario` the runner

1. materializes the POI set and builds every peer's cache from *ground
   truth* (the oracle kNN at the peer's location), so cache contents are
   valid by construction;
2. executes the full cast side by side -- INN, depth-first, EINN (empty
   and client-derived bounds), SENN, SNNN, naive sharing,
   ``kNN_single`` / ``kNN_multiple``;
3. diffs every result against the brute-force oracles and checks the
   cross-implementation invariants:

   - the three server algorithms return identical neighbor sequences
     (tie-breaking is pinned by ``poi_tie_key``);
   - EINN never reads more pages than INN for the same query;
   - SENN's answers match the oracle ranking rank by rank (ties compared
     by distance class), and certified ranks are exact (Lemma 3.7);
   - ``kNN_single`` / ``kNN_multiple`` certainty flags agree with the
     sampling oracle, in both directions (soundness *and* completeness,
     with margins wide enough for the backends' documented conservatism).

Failures are :class:`CheckFailure` records; :func:`shrink_scenario`
greedily minimizes a failing scenario (drop POIs/peers, simplify
coordinates, shrink ``k`` and caches) while preserving the failing check,
and :func:`repro_snippet` renders the result as a copy-pasteable test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.geometry.coverage import CoverageMethod
from repro.geometry.point import Point
from repro.index.knn import (
    NeighborResult,
    k_nearest,
    k_nearest_depth_first,
    k_nearest_einn,
    poi_tie_key,
)
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree
from repro.network.dijkstra import DijkstraSearch, network_distance, origin_seeds
from repro.network.graph import NetworkLocation, SpatialNetwork
from repro.network.index import DijkstraIndex, HierarchicalIndex
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.core.naive_sharing import naive_share_query
from repro.core.senn import ResolutionTier, SennConfig, senn_query
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import snnn_query
from repro.core.verification import (
    collect_candidates,
    verify_multi_peer,
    verify_single_peer,
)
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport
import repro.testing.oracles as oracles
from repro.testing.scalar_reference import (
    scalar_collect_candidates,
    scalar_verify_multi_peer,
    scalar_verify_single_peer,
)
from repro.testing.scenarios import Scenario, encode_scenario

__all__ = [
    "CheckFailure",
    "DiffReport",
    "repro_snippet",
    "run_scenario",
    "shrink_scenario",
]

#: Absolute tolerance for distance comparisons between implementations.
TOL = 1e-9

#: Completeness margin for non-exact scenarios: the oracle must report at
#: least this much coverage slack before a missing certification counts
#: as a bug (well above float noise, well below scenario geometry).
LOOSE_MARGIN = 1e-7

#: Boundary samples for the multi-peer coverage oracle.  The sampled
#: minimum overestimates the true minimum slack by at most
#: ``pi * candidate_distance / samples`` (slack is 1-Lipschitz along the
#: boundary), which the completeness margin must absorb.
MULTI_ORACLE_SAMPLES = 256


@dataclass(frozen=True)
class CheckFailure:
    """One violated invariant on one scenario."""

    check: str
    detail: str

    def render(self) -> str:
        return f"[{self.check}] {self.detail}"


@dataclass
class DiffReport:
    """Aggregate outcome of a differential run."""

    scenarios_run: int = 0
    checks_run: Dict[str, int] = field(default_factory=dict)
    failures: List[Tuple[int, Scenario, List[CheckFailure]]] = field(
        default_factory=list
    )
    log: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------
@dataclass
class _Materialized:
    pois: List[Tuple[Point, str]]
    query: Point
    own_cache: Optional[CachedQueryResult]
    peer_caches: List[CachedQueryResult]
    all_caches: List[CachedQueryResult]
    config: SennConfig
    tree: RTree


def _build_cache(
    scenario: Scenario, pois: Sequence[Tuple[Point, str]], x: float, y: float, cache_k: int
) -> CachedQueryResult:
    """A peer's cache: its true ``cache_k`` NNs, as peers actually hold them."""
    location = Point(x, y)
    count = min(cache_k, scenario.cache_capacity)
    truth = oracles.oracle_knn(pois, location, count)
    neighbors = tuple(
        NeighborResult(n.point, n.payload, n.distance) for n in truth
    )
    return CachedQueryResult(location, neighbors)


def _materialize(scenario: Scenario) -> _Materialized:
    pois = [(Point(x, y), pid) for x, y, pid in scenario.pois]
    query = Point(*scenario.query)
    caches = [
        _build_cache(scenario, pois, peer.x, peer.y, peer.cache_k)
        for peer in scenario.peers
    ]
    own_cache: Optional[CachedQueryResult] = None
    peer_caches = caches
    if scenario.use_own_cache and caches:
        own_cache, peer_caches = caches[0], caches[1:]
    config = SennConfig(
        k=scenario.k,
        cache_capacity=scenario.cache_capacity,
        coverage_method=(
            CoverageMethod.EXACT
            if scenario.coverage == "exact"
            else CoverageMethod.POLYGON
        ),
        polygon_sides=scenario.polygon_sides,
    )
    # Alternate build paths so both STR packing and R* insertion are
    # exercised across a budget.
    if len(pois) % 2 == 0:
        tree = RTree.bulk_load(list(pois))
    else:
        tree = RTree()
        for point, payload in pois:
            tree.insert(point, payload)
    return _Materialized(
        pois, query, own_cache, peer_caches, caches, config, tree
    )


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def _sequence_mismatch(
    label: str,
    got: Sequence[NeighborResult],
    expected: Sequence[oracles.OracleNeighbor],
) -> Optional[str]:
    """Exact sequence comparison (payload identity and distances)."""
    if len(got) != len(expected):
        return (
            f"{label}: got {len(got)} neighbors, oracle has {len(expected)}: "
            f"{[n.payload for n in got]} vs {[n.payload for n in expected]}"
        )
    for rank, (ours, truth) in enumerate(zip(got, expected)):
        if ours.payload != truth.payload:
            return (
                f"{label}: rank {rank} payload {ours.payload!r} != oracle "
                f"{truth.payload!r}"
            )
        if abs(ours.distance - truth.distance) > TOL:
            return (
                f"{label}: rank {rank} distance {ours.distance!r} != oracle "
                f"{truth.distance!r}"
            )
    return None


def _rank_mismatch(
    label: str,
    got: Sequence[NeighborResult],
    expected: Sequence[oracles.OracleNeighbor],
    truth_distance: Dict[str, float],
) -> Optional[str]:
    """Tie-class comparison: distances per rank exact, payloads real.

    Peer-derived answers may legitimately pick a different member of an
    equal-distance tie class (Lemma 3.2 certifies either), so payload
    equality is required only up to the tie class at each rank.
    """
    if len(got) != len(expected):
        return (
            f"{label}: got {len(got)} neighbors, oracle has {len(expected)}: "
            f"{[n.payload for n in got]} vs {[n.payload for n in expected]}"
        )
    seen: set = set()
    for rank, (ours, truth) in enumerate(zip(got, expected)):
        if abs(ours.distance - truth.distance) > TOL:
            return (
                f"{label}: rank {rank} distance {ours.distance!r} != oracle "
                f"{truth.distance!r} (payload {ours.payload!r})"
            )
        actual = truth_distance.get(ours.payload)
        if actual is None:
            return f"{label}: rank {rank} payload {ours.payload!r} is not a POI"
        if abs(actual - ours.distance) > TOL:
            return (
                f"{label}: rank {rank} payload {ours.payload!r} reported at "
                f"{ours.distance!r} but truly lies at {actual!r}"
            )
        if ours.payload in seen:
            return f"{label}: duplicate payload {ours.payload!r}"
        seen.add(ours.payload)
    return None


def _multi_completeness_margin(
    scenario: Scenario,
    circles: Sequence[Tuple[Point, float]],
    candidate_distance: float,
) -> float:
    """How much oracle slack obliges ``kNN_multiple`` to certify.

    Three conservatisms stack up: the oracle's sampled slack overestimates
    the true slack by up to ``pi * d / samples``; the exact backend
    declares borderline configurations uncovered (by design, within its
    1e-9 tolerance); the polygon backend additionally under-approximates
    each circle by its inscribed polygon, losing up to
    ``r * (1 - cos(pi/sides))`` of radius.
    """
    sampling = math.pi * candidate_distance / MULTI_ORACLE_SAMPLES
    if scenario.coverage == "exact":
        return sampling + 1e-6
    max_radius = max((radius for _, radius in circles), default=0.0)
    sagitta = max_radius * (1.0 - math.cos(math.pi / scenario.polygon_sides))
    return sampling + sagitta + 1e-6


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def run_scenario(
    scenario: Scenario, stats: Optional[MutableMapping[str, int]] = None
) -> List[CheckFailure]:
    """Run every differential check on one scenario; return the failures."""
    failures: List[CheckFailure] = []

    def ran(check: str) -> None:
        if stats is not None:
            stats[check] = stats.get(check, 0) + 1

    def fail(check: str, detail: str) -> None:
        failures.append(CheckFailure(check, detail))

    m = _materialize(scenario)
    ranking = oracles.oracle_knn(m.pois, m.query, len(m.pois))
    truth_distance = {n.payload: n.distance for n in ranking}
    expected_k = ranking[: min(scenario.k, len(m.pois))]

    # -- server algorithms against the oracle and each other ------------
    ran("server-inn")
    inn_counter = PageAccessCounter()
    inn = k_nearest(m.tree, m.query, scenario.k, inn_counter)
    mismatch = _sequence_mismatch("INN vs oracle", inn, expected_k)
    if mismatch:
        fail("server-inn", mismatch)

    ran("server-depth-first")
    df = k_nearest_depth_first(m.tree, m.query, scenario.k)
    mismatch = _sequence_mismatch("depth-first vs oracle", df, expected_k)
    if mismatch:
        fail("server-depth-first", mismatch)

    ran("server-einn-plain")
    einn_plain = k_nearest_einn(m.tree, m.query, scenario.k)
    mismatch = _sequence_mismatch("EINN (no bounds) vs oracle", einn_plain, expected_k)
    if mismatch:
        fail("server-einn-plain", mismatch)

    # -- kNN_single soundness & completeness (Lemma 3.2) ----------------
    candidate_count = sum(len(c.neighbors) for c in m.all_caches)
    for cache_index, cache in enumerate(m.all_caches):
        if cache.is_empty():
            continue
        ran("single-peer-lemma")
        probe = CandidateHeap(max(1, candidate_count))
        verify_single_peer(m.query, cache, probe)
        for neighbor in cache.neighbors:
            distance = m.query.distance_to(neighbor.point)
            verdict = oracles.certify_single_oracle(
                m.query, cache.query_location, cache.certain_radius, distance
            )
            certified = probe.is_certain(neighbor.point, neighbor.payload)
            if certified and verdict.definitely_uncovered(TOL):
                fail(
                    "single-peer-soundness",
                    f"peer {cache_index}: {neighbor.payload!r} certified but its "
                    f"disk leaves the certain circle (slack {verdict.slack!r})",
                )
            if not certified and verdict.definitely_covered(
                LOOSE_MARGIN, allow_exact_zero=scenario.exact
            ):
                fail(
                    "single-peer-completeness",
                    f"peer {cache_index}: {neighbor.payload!r} not certified "
                    f"although its disk lies inside the certain circle "
                    f"(slack {verdict.slack!r})",
                )

    # -- kNN_multiple soundness & completeness (Lemma 3.8) --------------
    circles = [
        (c.query_location, c.certain_radius)
        for c in m.all_caches
        if not c.is_empty() and c.certain_radius > 0.0
    ]
    if m.all_caches:
        ran("multi-peer-lemma")
        probe = CandidateHeap(max(1, candidate_count))
        verify_multi_peer(
            m.query,
            m.all_caches,
            probe,
            method=m.config.coverage_method,
            polygon_sides=m.config.polygon_sides,
        )
        candidates = collect_candidates(m.query, m.all_caches)
        for distance, point, payload in candidates:
            margin = _multi_completeness_margin(scenario, circles, distance)
            verdict = oracles.certify_multi_oracle(
                m.query, circles, distance, samples=MULTI_ORACLE_SAMPLES
            )
            certified = probe.is_certain(point, payload)
            if certified and verdict.definitely_uncovered(TOL):
                fail(
                    "multi-peer-soundness",
                    f"{payload!r} certified but its disk leaves the certain "
                    f"region (slack {verdict.slack!r})",
                )
            if not certified:
                if verdict.definitely_covered(margin):
                    fail(
                        "multi-peer-completeness",
                        f"{payload!r} at distance {distance!r} not certified "
                        f"although the certain region covers its disk with "
                        f"slack {verdict.slack!r} (margin {margin!r})",
                    )
                # verify_multi_peer stops at the first uncovered candidate
                # (coverage is monotone); later ones are legitimately
                # unclassified, so the completeness sweep must stop too.
                break

    # -- vectorized verification vs the frozen scalar reference -----------
    # The batched Lemma 3.2 / 3.8 verifiers promise *bit-identical*
    # behaviour to the scalar loops preserved in
    # ``repro.testing.scalar_reference``.  Replay both and demand equal
    # heaps (exact floats, exact order, exact flags), plus a longhand
    # recomputation of every Lemma 3.2 verdict as a second, formula-level
    # oracle.
    ran("vectorized-verify")
    failures.extend(_check_vectorized_verify(m, candidate_count))

    # -- SENN end to end -------------------------------------------------
    ran("senn")
    server = SpatialDatabaseServer(m.tree)
    senn = senn_query(
        m.query,
        scenario.k,
        m.own_cache,
        m.peer_caches,
        m.config,
        server=server,
    )
    mismatch = _rank_mismatch("SENN vs oracle", senn.neighbors, expected_k, truth_distance)
    if mismatch:
        fail("senn", mismatch)

    # The offline run (no server) stops where the server would start: with
    # accept_uncertain off, its neighbors are exactly the heap's certified
    # entries, which the served run above forwarded as its partial result.
    offline = senn_query(
        m.query, scenario.k, m.own_cache, m.peer_caches, m.config, server=None
    )

    ran("senn-certified-ranks")
    for rank, entry in enumerate(offline.neighbors):
        if rank >= len(ranking) or abs(entry.distance - ranking[rank].distance) > TOL:
            truth_repr = ranking[rank].distance if rank < len(ranking) else None
            fail(
                "senn-certified-ranks",
                f"certified rank {rank} ({entry.payload!r}) at distance "
                f"{entry.distance!r}, oracle rank distance {truth_repr!r}",
            )
            break

    # -- EINN with client bounds vs INN (results and page accesses) ------
    ran("einn-bounds")
    einn_counter = PageAccessCounter()
    einn_bounded = k_nearest_einn(
        m.tree, m.query, scenario.k, offline.bounds, offline.neighbors, einn_counter
    )
    mismatch = _rank_mismatch(
        "EINN (client bounds) vs oracle", einn_bounded, expected_k, truth_distance
    )
    if mismatch:
        fail("einn-bounds", mismatch)

    ran("einn-page-accesses")
    if einn_counter.total_accesses > inn_counter.total_accesses:
        fail(
            "einn-page-accesses",
            f"EINN read {einn_counter.total_accesses} pages, INN only "
            f"{inn_counter.total_accesses} (bounds {offline.bounds!r})",
        )

    # -- the query service: loopback answers vs the direct server ---------
    # The loopback transport runs the full encode -> decode -> engine ->
    # encode -> decode pipeline, so these checks pin the wire codec and
    # the batching executor (a singleton wave) to the in-process truth
    # bit for bit -- same floats, same tie order, same page breakdown.
    ran("service-knn")
    served = SpatialDatabaseServer(m.tree)
    direct = SpatialDatabaseServer(m.tree)
    client = ServiceClient(LoopbackTransport(QueryService(served)))
    via_wire = client.knn_query_detailed(m.query, scenario.k)
    in_process = direct.knn_query_detailed(m.query, scenario.k)
    if via_wire.neighbors != in_process.neighbors:
        fail(
            "service-knn",
            f"loopback kNN {[n.payload for n in via_wire.neighbors]} != "
            f"direct {[n.payload for n in in_process.neighbors]}",
        )
    if via_wire.pages != in_process.pages:
        fail(
            "service-knn",
            f"loopback breakdown {via_wire.pages!r} != direct "
            f"{in_process.pages!r}",
        )

    ran("service-senn")
    senn_served = senn_query(
        m.query,
        scenario.k,
        m.own_cache,
        m.peer_caches,
        m.config,
        server=client,
        server_k=scenario.cache_capacity,
    )
    senn_direct = senn_query(
        m.query,
        scenario.k,
        m.own_cache,
        m.peer_caches,
        m.config,
        server=SpatialDatabaseServer(m.tree),
        server_k=scenario.cache_capacity,
    )
    if senn_served.neighbors != senn_direct.neighbors:
        fail(
            "service-senn",
            f"SENN over loopback {[n.payload for n in senn_served.neighbors]} "
            f"!= direct {[n.payload for n in senn_direct.neighbors]}",
        )
    if len(senn_served.neighbors) > scenario.k:
        # Regression: policy-2 over-fetch (server_k = cache_capacity > k)
        # must trim the visible answer to k; the surplus is cache-only.
        fail(
            "service-senn",
            f"{len(senn_served.neighbors)} neighbors returned for "
            f"k={scenario.k} (over-fetch surplus leaked into the answer)",
        )
    if senn_served.prefetched != senn_direct.prefetched:
        fail(
            "service-senn",
            f"prefetched set over loopback differs: "
            f"{[n.payload for n in senn_served.prefetched]} != "
            f"{[n.payload for n in senn_direct.prefetched]}",
        )

    ran("service-stream")
    stream = client.incremental_query(m.query)
    streamed: List[NeighborResult] = []
    for neighbor in stream:
        streamed.append(neighbor)
        if len(streamed) >= scenario.k:
            break
    stream.close()
    if streamed != in_process.neighbors[: len(streamed)]:
        fail(
            "service-stream",
            f"streamed prefix {[n.payload for n in streamed]} != direct "
            f"{[n.payload for n in in_process.neighbors]}",
        )

    # -- naive sharing: well-formedness and server fallback ---------------
    ran("naive-sharing")
    naive = naive_share_query(
        m.query, scenario.k, m.peer_caches, adoption_radius=0.25, server=server
    )
    previous = -math.inf
    for neighbor in naive.neighbors:
        actual = truth_distance.get(neighbor.payload)
        if actual is None:
            fail("naive-sharing", f"adopted payload {neighbor.payload!r} is not a POI")
            break
        if abs(actual - neighbor.distance) > TOL:
            fail(
                "naive-sharing",
                f"adopted {neighbor.payload!r} reported at {neighbor.distance!r}, "
                f"truly at {actual!r}",
            )
            break
        if neighbor.distance < previous - TOL:
            fail("naive-sharing", "adopted answer is not in ascending order")
            break
        previous = neighbor.distance
    if len(naive.neighbors) > scenario.k:
        fail("naive-sharing", f"{len(naive.neighbors)} neighbors for k={scenario.k}")
    if naive.tier is ResolutionTier.SERVER:
        mismatch = _rank_mismatch(
            "naive server fallback vs oracle", naive.neighbors, expected_k, truth_distance
        )
        if mismatch:
            fail("naive-sharing", mismatch)

    # -- SNNN against the independent network oracle ----------------------
    if scenario.check_network:
        ran("snnn")
        failures.extend(_check_snnn(scenario, m))
        ran("network-index")
        failures.extend(_check_network_index(scenario, m))

    return failures


# ----------------------------------------------------------------------
# vectorized-verification cross-check
# ----------------------------------------------------------------------
def _heap_rows(heap: CandidateHeap) -> List[Tuple[float, float, object, float, bool]]:
    return [
        (e.point.x, e.point.y, e.payload, e.distance, e.certain)
        for e in heap.entries()
    ]


def _check_vectorized_verify(
    m: _Materialized, candidate_count: int
) -> List[CheckFailure]:
    failures: List[CheckFailure] = []
    capacity = max(1, candidate_count)

    # Lemma 3.2, per peer: batched verifier vs the scalar loop vs longhand.
    for cache_index, cache in enumerate(m.all_caches):
        if cache.is_empty():
            continue
        live = CandidateHeap(capacity)
        live_certified = verify_single_peer(m.query, cache, live)
        offers = scalar_verify_single_peer(
            m.query,
            cache.query_location,
            cache.certain_radius,
            [(n.point, n.payload) for n in cache.neighbors],
        )
        reference = CandidateHeap(capacity)
        for point, payload, distance, certain in offers:
            reference.add(point, payload, distance, certain)
        # Bit-identity is the contract under test: the batched verifier
        # must reproduce the scalar loop exactly, not within tolerance.
        if _heap_rows(live) != _heap_rows(reference):
            failures.append(
                CheckFailure(
                    "vectorized-verify",
                    f"peer {cache_index}: batched kNN_single heap "
                    f"{_heap_rows(live)!r} != scalar reference "
                    f"{_heap_rows(reference)!r}",
                )
            )
        scalar_certified = sum(1 for offer in offers if offer[3])
        # Integer certification counts; equality is exact by definition.
        if live_certified != scalar_certified:
            failures.append(
                CheckFailure(
                    "vectorized-verify",
                    f"peer {cache_index}: batched kNN_single certified "
                    f"{live_certified}, scalar reference {scalar_certified}",
                )
            )
        # Longhand oracle: recompute each verdict from the raw formula,
        # independent of both implementations' plumbing.
        delta = math.hypot(
            m.query.x - cache.query_location.x, m.query.y - cache.query_location.y
        )
        for point, payload, distance, certain in offers:
            longhand_distance = math.hypot(m.query.x - point.x, m.query.y - point.y)
            longhand = longhand_distance + delta <= cache.certain_radius
            if (
                # Exact equality is the check: the stored distance must be
                # the very float math.hypot produces, bit for bit.
                distance != longhand_distance  # repro: noqa(RPR001)
                or certain is not longhand
                or live.is_certain(point, payload)
                is not (longhand and reference.is_certain(point, payload))
            ):
                failures.append(
                    CheckFailure(
                        "vectorized-verify",
                        f"peer {cache_index}: {payload!r} verdict/distance "
                        f"disagrees with the longhand Lemma 3.2 formula "
                        f"(distance {distance!r} vs {longhand_distance!r}, "
                        f"certain {certain} vs {longhand})",
                    )
                )
                break

    # Candidate collection: one vectorized distance pass vs per-POI loop.
    if m.all_caches:
        batched = collect_candidates(m.query, m.all_caches)
        scalar = scalar_collect_candidates(m.query, m.all_caches)
        # Bit-identity again: the batched distances must equal the loop's.
        if [  # repro: noqa(RPR001)
            (distance, point.x, point.y, payload)
            for distance, point, payload in batched
        ] != [
            (distance, point.x, point.y, payload)
            for distance, point, payload in scalar
        ]:
            failures.append(
                CheckFailure(
                    "vectorized-verify",
                    f"collect_candidates diverged: batched {batched!r} != "
                    f"scalar {scalar!r}",
                )
            )

        # Lemma 3.8: the float coverage kernel's loop vs the object-based
        # scalar loop.
        live = CandidateHeap(capacity)
        live_certified = verify_multi_peer(
            m.query,
            m.all_caches,
            live,
            method=m.config.coverage_method,
            polygon_sides=m.config.polygon_sides,
        )
        reference = CandidateHeap(capacity)
        scalar_certified = scalar_verify_multi_peer(
            m.query,
            m.all_caches,
            reference,
            method=m.config.coverage_method,
            polygon_sides=m.config.polygon_sides,
        )
        if (
            # Same bit-identity contract as the single-peer check above.
            _heap_rows(live) != _heap_rows(reference)
            # Integer certification counts; equality is exact by definition.
            or live_certified != scalar_certified
        ):
            failures.append(
                CheckFailure(
                    "vectorized-verify",
                    f"batched kNN_multiple (certified {live_certified}, heap "
                    f"{_heap_rows(live)!r}) != scalar reference (certified "
                    f"{scalar_certified}, heap {_heap_rows(reference)!r})",
                )
            )
    return failures


# ----------------------------------------------------------------------
# SNNN cross-check
# ----------------------------------------------------------------------
def _grid_network(side: int = 4) -> SpatialNetwork:
    """A deterministic ``side x side`` grid network over the unit square."""
    network = SpatialNetwork()
    nodes = {}
    for i in range(side):
        for j in range(side):
            nodes[(i, j)] = network.add_node(Point(i / (side - 1), j / (side - 1)))
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                network.add_edge(nodes[(i, j)], nodes[(i + 1, j)])
            if j + 1 < side:
                network.add_edge(nodes[(i, j)], nodes[(i, j + 1)])
    return network


def _flatten_location(location: NetworkLocation) -> oracles.NetworkLoc:
    edge = location.edge
    return ("edge", edge.u, edge.v, location.offset, edge.length)


def _check_snnn(scenario: Scenario, m: _Materialized) -> List[CheckFailure]:
    network = _grid_network()
    # SNNN's IER stop rule assumes POIs lie *on* the network (only the
    # query may stand off it, absorbed by the snap-slack adjustment), so
    # the scenario's free-floating POIs are projected onto the grid first
    # and the whole stack -- server tree, peer caches -- is rebuilt over
    # the projected set.
    projected = [
        (network.snap(point).point, payload) for point, payload in m.pois
    ]
    tree = RTree.bulk_load(list(projected))
    server = SpatialDatabaseServer(tree)
    caches = [
        _build_cache(scenario, projected, peer.x, peer.y, peer.cache_k)
        for peer in scenario.peers
    ]
    own_cache = None
    peer_caches = caches
    if scenario.use_own_cache and caches:
        own_cache, peer_caches = caches[0], caches[1:]

    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for node in network.node_ids():
        adjacency[node] = [
            (other, edge.length) for other, edge in network.neighbors(node)
        ]
    origin = _flatten_location(network.snap(m.query))
    flattened = [
        (_flatten_location(network.snap(point)), payload)
        for point, payload in projected
    ]
    k = min(scenario.k, len(projected))
    truth = oracles.oracle_network_knn(adjacency, origin, flattened, k)

    result = snnn_query(
        m.query,
        scenario.k,
        network,
        own_cache,
        peer_caches,
        m.config,
        server=server,
    )
    got = sorted(n.network_distance for n in result.neighbors)
    want = sorted(distance for _, distance in truth)
    if len(got) != len(want):
        return [
            CheckFailure(
                "snnn",
                f"SNNN returned {len(got)} neighbors, network oracle has "
                f"{len(want)}",
            )
        ]
    for rank, (ours, truth_distance) in enumerate(zip(got, want)):
        if abs(ours - truth_distance) > 1e-6:
            return [
                CheckFailure(
                    "snnn",
                    f"network distance at rank {rank}: SNNN {ours!r}, oracle "
                    f"{truth_distance!r}",
                )
            ]
    return []


def _check_network_index(scenario: Scenario, m: _Materialized) -> List[CheckFailure]:
    """Hierarchy vs Dijkstra reference vs oracle, bit-for-tie-key-identical.

    The :class:`~repro.network.index.NetworkIndex` contract is *exact*
    agreement (POI ids, tie order under ``poi_tie_key``, and the
    distance floats themselves), so unlike the tolerance-based SNNN
    check these comparisons are bitwise.  The grid is sized up with the
    scenario's POI count so POI-heavy scenarios exercise real partition
    depth; the size depends only on the scenario, keeping replay stable.
    """
    failures: List[CheckFailure] = []
    side = 4 + min(4, len(scenario.pois) // 8)
    network = _grid_network(side)
    pois = [(network.snap(point), payload) for point, payload in m.pois]
    reference = DijkstraIndex(network)
    hierarchy = HierarchicalIndex(network, leaf_size=8)
    reference.register_pois(pois)
    hierarchy.register_pois(pois)
    origin = network.snap(m.query)
    k = min(scenario.k, len(pois))

    want = [
        (n.payload, n.network_distance) for n in reference.knn(origin, k)
    ]
    got = [
        (n.payload, n.network_distance) for n in hierarchy.knn(origin, k)
    ]
    # Bit-identity is the protocol contract: the hierarchy refines every
    # reported distance through the same Dijkstra recurrence.
    if got != want:
        failures.append(
            CheckFailure(
                "network-index",
                f"hierarchical kNN {got!r} != Dijkstra reference {want!r}",
            )
        )

    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for node in network.node_ids():
        adjacency[node] = [
            (other, edge.length) for other, edge in network.neighbors(node)
        ]
    truth = oracles.oracle_network_knn(
        adjacency,
        _flatten_location(origin),
        [(_flatten_location(location), payload) for location, payload in pois],
        k,
    )
    # The oracle folds the same candidate floats through the same mins,
    # so its distances and tie order are also exact matches.
    if [(payload, distance) for payload, distance in truth] != want:
        failures.append(
            CheckFailure(
                "network-index",
                f"Dijkstra reference {want!r} != network oracle {truth!r}",
            )
        )

    for location, payload in pois[:3]:
        direct = network_distance(
            DijkstraSearch(network, origin_seeds(origin)), origin, location
        )
        indexed = hierarchy.network_distance(origin, location)
        # Point-to-point distances share the exactness contract.
        if direct != indexed and not (  # repro: noqa(RPR001)
            math.isinf(direct) and math.isinf(indexed)
        ):
            failures.append(
                CheckFailure(
                    "network-index",
                    f"network_distance to POI {payload!r}: hierarchy "
                    f"{indexed!r}, Dijkstra {direct!r}",
                )
            )
    return failures


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _round_coord(value: float, grid: float) -> float:
    return round(value / grid) * grid


def _shrink_candidates(scenario: Scenario) -> List[Scenario]:
    """Strictly-simpler variants, most aggressive first."""
    out: List[Scenario] = []

    def attempt(**changes: object) -> None:
        try:
            out.append(replace(scenario, **changes))
        except ValueError:
            pass  # candidate violates Scenario validation; skip it

    for index in range(len(scenario.pois)):
        attempt(pois=scenario.pois[:index] + scenario.pois[index + 1 :])
    for index in range(len(scenario.peers)):
        attempt(
            peers=scenario.peers[:index] + scenario.peers[index + 1 :],
            use_own_cache=scenario.use_own_cache and len(scenario.peers) > 1,
        )
    if scenario.check_network:
        attempt(check_network=False)
    if scenario.use_own_cache:
        attempt(use_own_cache=False)
    if scenario.k > 1:
        attempt(k=scenario.k - 1)
    for index, peer in enumerate(scenario.peers):
        if peer.cache_k > 0:
            shrunk = replace(peer, cache_k=peer.cache_k - 1)
            attempt(
                peers=scenario.peers[:index] + (shrunk,) + scenario.peers[index + 1 :]
            )
    for grid in (0.25, 0.125):
        rounded_pois = tuple(
            (_round_coord(x, grid), _round_coord(y, grid), pid)
            for x, y, pid in scenario.pois
        )
        rounded_peers = tuple(
            replace(p, x=_round_coord(p.x, grid), y=_round_coord(p.y, grid))
            for p in scenario.peers
        )
        if rounded_pois != scenario.pois or rounded_peers != scenario.peers:
            attempt(
                pois=rounded_pois,
                peers=rounded_peers,
                query=(
                    _round_coord(scenario.query[0], grid),
                    _round_coord(scenario.query[1], grid),
                ),
            )
    return out


def shrink_scenario(
    scenario: Scenario, check: str, max_runs: int = 600
) -> Scenario:
    """Greedy minimization preserving a failure of ``check``.

    Each accepted candidate restarts the pass, so the result is a local
    minimum: no single simplification step keeps the failure alive.
    """

    def still_fails(candidate: Scenario) -> bool:
        try:
            return any(f.check == check for f in run_scenario(candidate))
        except Exception:
            # A shrink step must not trade the original failure for a crash.
            return False

    current = scenario
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in _shrink_candidates(current):
            runs += 1
            if runs > max_runs:
                break
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


def repro_snippet(scenario: Scenario, check: str) -> str:
    """A copy-pasteable pytest regression for a (shrunk) failing scenario."""
    encoded = encode_scenario(scenario)
    return (
        "def test_difftest_regression() -> None:\n"
        f'    """Shrunk repro-difftest failure: {check}."""\n'
        "    from repro.testing.difftest import run_scenario\n"
        "    from repro.testing.scenarios import decode_scenario\n"
        "\n"
        "    scenario = decode_scenario(\n"
        f'        "{encoded}"\n'
        "    )\n"
        "    assert run_scenario(scenario) == []\n"
    )
