"""Tests for repro.obs.metrics (counters, gauges, histograms, registry)
and the :class:`repro.obs.Instrument` handle call sites reach them through."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import OBS, Instrument, observed


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a="x") is registry.counter("c", a="x")
        assert registry.counter("c", a="x") is not registry.counter("c", a="y")

    def test_label_order_is_canonicalized(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a="1", b="2") is registry.counter(
            "c", b="2", a="1"
        )

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        registry.counter("c", k=4).inc()
        assert registry.value("c", k="4") == 1.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 7.0

    def test_gauge_may_go_negative(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.dec(3.0)
        assert gauge.value == -3.0


class TestHistogramBucketEdges:
    def test_boundary_value_lands_in_boundary_bucket(self):
        histogram = MetricsRegistry().histogram("h", boundaries=(1.0, 2.0, 5.0))
        histogram.observe(1.0)  # le semantics: exactly 1.0 -> first bucket
        assert histogram.bucket_counts == [1, 0, 0, 0]
        histogram.observe(2.0)
        assert histogram.bucket_counts == [1, 1, 0, 0]
        histogram.observe(5.0)
        assert histogram.bucket_counts == [1, 1, 1, 0]

    def test_between_boundaries_goes_up(self):
        histogram = MetricsRegistry().histogram("h", boundaries=(1.0, 2.0, 5.0))
        histogram.observe(1.5)
        assert histogram.bucket_counts == [0, 1, 0, 0]

    def test_overflow_bucket_catches_above_last_boundary(self):
        histogram = MetricsRegistry().histogram("h", boundaries=(1.0, 2.0, 5.0))
        histogram.observe(5.000001)
        histogram.observe(1e9)
        assert histogram.bucket_counts == [0, 0, 0, 2]

    def test_below_first_boundary_goes_to_first_bucket(self):
        histogram = MetricsRegistry().histogram("h", boundaries=(1.0, 2.0))
        histogram.observe(0.0)
        histogram.observe(-1.0)
        assert histogram.bucket_counts == [2, 0, 0]

    def test_count_sum_mean(self):
        histogram = MetricsRegistry().histogram("h", boundaries=(10.0,))
        assert histogram.mean == 0.0
        histogram.observe(2.0)
        histogram.observe(4.0)
        assert histogram.count == 2
        assert histogram.sum == 6.0
        assert histogram.mean == 3.0

    def test_boundaries_must_be_strictly_increasing(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h3", boundaries=())

    def test_default_boundaries_are_time_buckets(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.boundaries == DEFAULT_TIME_BUCKETS_S

    def test_conflicting_boundaries_raise(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=DEFAULT_COUNT_BUCKETS)
        with pytest.raises(ValueError):
            registry.histogram("h", boundaries=(1.0, 2.0))
        # Re-requesting with the same boundaries (or none) is fine.
        assert registry.histogram("h", boundaries=DEFAULT_COUNT_BUCKETS).count == 0
        assert registry.histogram("h").boundaries == DEFAULT_COUNT_BUCKETS

    def test_default_bucket_ladders_are_valid(self):
        assert list(DEFAULT_TIME_BUCKETS_S) == sorted(DEFAULT_TIME_BUCKETS_S)
        assert list(DEFAULT_COUNT_BUCKETS) == sorted(DEFAULT_COUNT_BUCKETS)


class TestRegistry:
    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")
        with pytest.raises(TypeError):
            registry.histogram("m")

    def test_value_of_absent_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_value_of_histogram_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0,))
        with pytest.raises(TypeError):
            registry.value("h")

    def test_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("q", tier="server").inc(3)
        registry.counter("q", tier="peer").inc(2)
        assert registry.total("q") == 5.0

    def test_label_values_groups_by_label(self):
        registry = MetricsRegistry()
        registry.counter("q", tier="server").inc(3)
        registry.counter("q", tier="peer").inc(2)
        registry.counter("q").inc()  # unlabelled: skipped (no tier key)
        assert registry.label_values("q", "tier") == {
            "server": 3.0,
            "peer": 2.0,
        }

    def test_iteration_and_snapshot_are_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", z="2", y="1").inc(2)
        registry.histogram("h", boundaries=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a{y=1,z=2}"] == 2.0
        assert snapshot["b"] == 1.0
        assert snapshot["h"] == {
            "count": 1,
            "sum": 0.5,
            "boundaries": [1.0],
            "buckets": [1, 0],
        }
        # Two identical workloads -> byte-identical JSON.
        other = MetricsRegistry()
        other.histogram("h", boundaries=(1.0,)).observe(0.5)
        other.counter("a", y="1", z="2").inc(2)
        other.counter("b").inc()
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(
            other.snapshot(), sort_keys=True
        )

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.value("c") == 0.0

    def test_len_counts_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1")
        registry.counter("c", a="2")
        registry.gauge("g")
        assert len(registry) == 3

    def test_direct_construction_types(self):
        # The registry is the intended constructor, but the classes are
        # public and must agree with it.
        assert Counter("c", ()).value == 0.0
        assert Gauge("g", ()).value == 0.0
        assert Histogram("h", (), (1.0,)).count == 0


class _CountingLock:
    """A registry lock that counts how often it is entered."""

    def __init__(self, inner):
        self._inner = inner
        self.entered = 0

    def __enter__(self):
        self.entered += 1
        return self._inner.__enter__()

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self):
        import threading

        registry = MetricsRegistry()
        rounds, workers = 2000, 8

        def hammer():
            counter = registry.counter("hits")
            gauge = registry.gauge("depth")
            histogram = registry.histogram("lat", boundaries=(1.0, 2.0))
            for _ in range(rounds):
                counter.inc()
                gauge.inc(2.0)
                gauge.dec(1.0)
                histogram.observe(0.5)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("hits") == float(rounds * workers)
        assert registry.value("depth") == float(rounds * workers)
        histogram = registry.histogram("lat", boundaries=(1.0, 2.0))
        assert histogram.count == rounds * workers

    def test_every_update_enters_the_registry_lock_once(self):
        """Each get-or-create and each instrument mutator takes the lock.

        CPython's GIL rarely splits an unlocked ``+=``, so a lost update
        is no reliable witness of a missing lock; the count is.
        """
        registry = MetricsRegistry()
        lock = registry._lock = _CountingLock(registry._lock)
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", boundaries=(1.0,))
        assert lock.entered == 3
        updates = (
            lambda: registry.counter("c"),
            counter.inc,
            lambda: gauge.set(2.0),
            gauge.inc,
            gauge.dec,
            lambda: histogram.observe(0.5),
        )
        for update in updates:
            before = lock.entered
            update()
            assert lock.entered == before + 1

    def test_instruments_share_the_registry_lock(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", boundaries=(1.0,))
        assert counter._lock is registry._lock
        assert gauge._lock is registry._lock
        assert histogram._lock is registry._lock

    def test_direct_construction_uses_private_lock(self):
        counter = Counter("c", ())
        other = Counter("c2", ())
        assert counter._lock is not other._lock
        counter.inc(2.0)
        assert counter.value == 2.0

    def test_iteration_does_not_hold_the_lock(self):
        # The registry lock is non-reentrant; consuming the iterator
        # while creating metrics mid-iteration must not deadlock.
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b").inc()
        for metric in registry:
            registry.counter(f"derived.{metric.name}").inc()
        assert registry.value("derived.a") == 1.0


@pytest.fixture
def registry():
    """``OBS`` enabled on a fresh registry; the previous one is put back."""
    previous = OBS.registry
    with observed(enabled=True):
        OBS.registry = MetricsRegistry()
        try:
            yield OBS.registry
        finally:
            OBS.registry = previous


class TestInstrument:
    def test_declaring_registers_nothing(self, registry):
        Instrument(Counter, "handle.hits", "kind")
        Instrument(Histogram, "handle.sizes", boundaries=DEFAULT_COUNT_BUCKETS)
        assert len(registry) == 0

    def test_first_call_creates_what_a_registry_lookup_would(self, registry):
        hits = Instrument(Counter, "handle.hits", "kind", "outcome")
        hits("leaf", "ok").inc()
        assert hits("leaf", "ok") is registry.counter(
            "handle.hits", outcome="ok", kind="leaf"
        )
        assert registry.snapshot() == {"handle.hits{kind=leaf,outcome=ok}": 1.0}

    def test_two_label_tuples_give_two_instruments(self, registry):
        hits = Instrument(Counter, "handle.hits", "kind")
        hits("leaf").inc()
        hits("index").inc(2.0)
        assert hits("leaf") is not hits("index")
        assert registry.label_values("handle.hits", "kind") == {
            "leaf": 1.0,
            "index": 2.0,
        }

    def test_unlabelled_gauge(self, registry):
        depth = Instrument(Gauge, "handle.depth")
        depth().set(3.0)
        assert registry.value("handle.depth") == 3.0

    def test_swapped_registry_gets_fresh_instruments(self, registry):
        hits = Instrument(Counter, "handle.hits")
        old = hits()
        old.inc()
        OBS.registry = MetricsRegistry()
        hits().inc(5.0)
        assert hits() is not old and old.value == 1.0
        assert OBS.registry.value("handle.hits") == 5.0
        assert registry.value("handle.hits") == 1.0

    def test_in_place_reset_gets_fresh_instruments(self, registry):
        hits = Instrument(Counter, "handle.hits")
        old = hits()
        old.inc()
        registry.reset()
        assert len(registry) == 0  # nothing re-registered until the next event
        hits().inc(5.0)
        assert hits() is not old and old.value == 1.0
        assert registry.value("handle.hits") == 5.0

    def test_wrong_arity_raises(self, registry):
        hits = Instrument(Counter, "handle.hits", "kind")
        with pytest.raises(TypeError, match="1 string label"):
            hits()
        with pytest.raises(TypeError, match="1 string label"):
            hits("leaf", "extra")
        assert len(registry) == 0

    def test_label_values_must_be_strings(self, registry):
        # ``True == 1`` as dict keys, ``"True" != "1"`` as labels.
        hits = Instrument(Counter, "handle.hits", "flag")
        for value in (True, 1):
            with pytest.raises(TypeError, match="string label"):
                hits(value)
        assert len(registry) == 0

    def test_histogram_handle_carries_its_boundaries(self, registry):
        sizes = Instrument(
            Histogram, "handle.sizes", "lemma", boundaries=DEFAULT_COUNT_BUCKETS
        )
        sizes("3.2").observe(7.0)
        assert sizes("3.2").boundaries == DEFAULT_COUNT_BUCKETS
        untimed = Instrument(Histogram, "handle.wait_s")
        assert untimed().boundaries == DEFAULT_TIME_BUCKETS_S

    def test_kind_conflict_with_an_existing_metric_raises(self, registry):
        registry.gauge("handle.hits")
        with pytest.raises(TypeError, match="already registered as Gauge"):
            Instrument(Counter, "handle.hits")()

    def test_no_update_is_lost_across_a_registry_swap(self, registry):
        import sys
        import threading

        hits = Instrument(Counter, "handle.hits", "kind")
        rounds, workers = 2000, 8
        replacement = MetricsRegistry()
        start = threading.Barrier(workers)

        def hammer(swaps):
            start.wait(timeout=30.0)
            for done in range(rounds):
                if swaps and done == rounds // 2:
                    OBS.registry = replacement  # the others are mid-loop
                hits("leaf").inc()

        threads = [
            threading.Thread(target=hammer, args=(index == 0,))
            for index in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        before = registry.value("handle.hits", kind="leaf")
        after = replacement.value("handle.hits", kind="leaf")
        assert before >= rounds // 2 and after >= rounds // 2
        assert before + after == float(rounds * workers)
