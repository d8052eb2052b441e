"""The observability layer's cost contract.

Two halves:

- **Disabled means silent:** with ``observed(enabled=False)`` the global
  registry must not move at all, however hard the engine works.  Two
  scenarios: the quickstart, and one that enters the hot loops the
  quickstart skips.  This is the only gate on a missing guard: replacing
  any ``if OBS.enabled:`` on those paths by ``if True:`` fails it (the
  sweep is in ``docs/static_analysis.md``).
- **Disabled means cheap:** the ≤2 % overhead budget on the quickstart
  scenario.  Measuring two end-to-end wall times and subtracting is
  hopelessly noisy at millisecond scale, so the budget is asserted the
  robust way: count the instrumentation events an *enabled* run records
  (every one of which corresponds to one ``if OBS.enabled`` guard in the
  disabled run), measure the per-guard cost directly with a tight loop
  (an overestimate — it includes loop overhead), and compare
  ``events x guard_cost`` against 2 % of the scenario's runtime.
"""

import time

from repro.core import MobileHost, SennConfig, SpatialDatabaseServer
from repro.geometry.point import Point
from repro.index.knn import PruningBounds
from repro.index.rtree import RTreeConfig
from repro.obs import OBS, MetricsRegistry, observed
from repro.service.batching import BatchExecutor
from repro.service.protocol import KnnRequest


def _quickstart_scenario() -> None:
    """A compressed quickstart: one warm host seeds a second host's query."""
    stations = [
        (Point(0.1 + 0.13 * i, 0.07 * ((i * 7) % 11)), f"station-{i}")
        for i in range(16)
    ]
    server = SpatialDatabaseServer.from_points(stations)
    config = SennConfig(k=3, transmission_range=0.124, cache_capacity=10)
    veteran = MobileHost(1, Point(0.5, 0.4), config)
    veteran.query_knn(peers=[], server=server)
    newcomer = MobileHost(2, Point(0.52, 0.41), config)
    for step in range(10):
        newcomer.position = Point(0.52 + 0.005 * step, 0.41)
        newcomer.query_knn(peers=[veteran], server=server)


def _wide_scenario() -> None:
    """The hot loops the quickstart never enters: the INN stream, the
    Lemma 3.8 loop (both exits), a shared batch traversal, a range and a
    window query, and both EINN pruning rules on a multi-level tree."""
    stations = [
        (Point(0.1 + 0.13 * i, 0.07 * ((i * 7) % 11)), f"station-{i}")
        for i in range(16)
    ]
    server = SpatialDatabaseServer.from_points(stations)
    stream = server.incremental_query(Point(0.5, 0.4))
    for _ in range(5):
        next(stream)
    stream.close()
    # Neither peer's two-POI cache certifies the newcomer's answer alone;
    # the union of their certain circles does (verify_multi_peer).
    config = SennConfig(k=2, transmission_range=0.124, cache_capacity=2)
    peers = [
        MobileHost(1, Point(0.45, 0.3), config),
        MobileHost(2, Point(0.55, 0.3), config),
    ]
    for peer in peers:
        peer.query_knn(peers=[], server=server)
    MobileHost(3, Point(0.5, 0.3), config).query_knn(peers=peers, server=server)
    # Peers farther apart, one more neighbor asked for: the union certifies
    # two candidates, the third one's disk is not covered and ends the loop.
    apart = [
        MobileHost(4, Point(0.4, 0.3), config),
        MobileHost(5, Point(0.6, 0.3), config),
    ]
    for peer in apart:
        peer.query_knn(peers=[], server=server)
    wider = SennConfig(k=3, transmission_range=0.124, cache_capacity=2)
    MobileHost(6, Point(0.5, 0.3), wider).query_knn(peers=apart, server=server)
    pair = [KnnRequest(i, Point(0.5 + 0.01 * i, 0.4), 3) for i in range(2)]
    BatchExecutor(server).execute(pair)
    # The 16 stations fit one leaf, so EINN never prunes an MBR there.  A
    # three-level tree, a client that knows its 16 nearest of 20: subtrees
    # inside its certain circle go downward, those past its bound upward.
    lattice = [
        (Point(0.25 * i, 0.25 * j), f"cell-{i}-{j}")
        for i in range(8)
        for j in range(8)
    ]
    deep = SpatialDatabaseServer.from_points(
        lattice, tree_config=RTreeConfig(max_entries=4)
    )
    query = Point(0.8, 0.9)
    truth = deep.knn_query(query, 20)
    known = truth[:16]
    deep.knn_query_detailed(
        query, 20, PruningBounds(known[-1].distance, truth[-1].distance), known
    )


#: What an *enabled* run of ``_wide_scenario`` must record, so that the
#: scenario cannot quietly stop reaching the loops it is there for.
_WIDE_METRICS = {
    "verify.candidates{lemma=3.8,outcome=certain}",
    "verify.candidates{lemma=3.8,outcome=uncertain}",
    "einn.pruned_mbrs{rule=upward}",
    "einn.pruned_mbrs{rule=downward}",
    "service.shared_traversals",
}


def _time_scenario(repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _quickstart_scenario()
        best = min(best, time.perf_counter() - start)
    return best


def _guard_cost_ns(loops: int = 100_000) -> float:
    """Per-event cost of the disabled guard, loop overhead included."""
    sink = 0
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(loops):
            if OBS.enabled:
                sink += 1
        best = min(best, time.perf_counter() - start)
    assert sink == 0
    return best / loops * 1e9


class TestDisabledIsSilent:
    def test_registry_untouched_when_disabled(self):
        with observed(enabled=False):
            OBS.registry = MetricsRegistry()
            try:
                _quickstart_scenario()
                assert len(OBS.registry) == 0
                assert OBS.registry.snapshot() == {}
            finally:
                OBS.registry = MetricsRegistry()

    def test_registry_untouched_on_the_paths_the_quickstart_skips(self):
        previous = OBS.registry
        try:
            with observed(enabled=True):
                OBS.registry = MetricsRegistry()
                _wide_scenario()
                assert _WIDE_METRICS <= set(OBS.registry.snapshot())
            with observed(enabled=False):
                OBS.registry = MetricsRegistry()
                _wide_scenario()
                assert OBS.registry.snapshot() == {}
        finally:
            OBS.registry = previous

    def test_observed_restores_previous_state(self):
        before = OBS.enabled
        with observed(enabled=not before):
            assert OBS.enabled is (not before)
        assert OBS.enabled is before


class TestOverheadBudget:
    def test_disabled_guards_stay_within_two_percent_of_quickstart(self):
        # How many instrumentation events does the scenario emit?
        with observed(enabled=True):
            previous = OBS.registry
            OBS.registry = MetricsRegistry()
            try:
                _quickstart_scenario()
                events = sum(
                    metric.value
                    for metric in OBS.registry
                    if not hasattr(metric, "bucket_counts")
                )
            finally:
                OBS.registry = previous
        assert events > 0, "the quickstart scenario must exercise hot paths"

        with observed(enabled=False):
            scenario_s = _time_scenario()
            guard_ns = _guard_cost_ns()
        overhead_s = events * guard_ns * 1e-9
        # The counter *values* overcount guards where one guarded block
        # does several inc() calls; that slack is in the budget's favor.
        assert overhead_s <= 0.02 * scenario_s, (
            f"{events:.0f} events x {guard_ns:.0f} ns = "
            f"{overhead_s * 1e6:.1f} us exceeds 2% of the "
            f"{scenario_s * 1e3:.2f} ms quickstart scenario"
        )

    def test_locked_increment_cost_stays_cheap(self):
        # The per-instrument lock (thread-safety work) rides only the
        # *enabled* path -- the disabled budget above is unaffected by
        # construction.  This pins the locked inc() cost so the lock
        # never silently grows into a syscall or contention problem
        # (an uncontended threading.Lock is ~100 ns; the bound is
        # deliberately loose to stay robust on slow CI).
        from repro.obs.metrics import Counter

        counter = Counter("overhead.probe", ())
        loops = 50_000
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(loops):
                counter.inc()
            best = min(best, time.perf_counter() - start)
        per_inc_ns = best / loops * 1e9
        assert counter.value == float(3 * loops)
        assert per_inc_ns < 5_000, f"locked inc costs {per_inc_ns:.0f} ns"
