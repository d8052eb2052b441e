"""Per-query records: each kNN query reaches the registry in one flush.

- **Lock count.**  A host query with peers and a server takes at most
  one registry-lock acquisition inside ``senn_query``, one per server kNN
  query, and one more for the host's cache lookup and store.
- **Concurrency.**  Flushes from several threads into one registry lose
  nothing: the totals are exact.
- **A raising query** publishes exactly what it counted before the raise.
- **The explain record.**  With a tracer installed every flush of a
  SENN query or a server kNN answer is one tracer event whose attrs are
  the record's fields; summed over a run they are the registry's totals.
- **Reading a cache is not a lookup**: ``repr`` and ``cache_snapshot``
  leave the registry alone.
"""

import sys
import threading
from collections import Counter

import pytest

import repro.core.host as host_module
import repro.core.senn as senn_module
from repro.core import MobileHost, SennConfig, SpatialDatabaseServer
from repro.core.cache import CachedQueryResult
from repro.core.heap import CandidateHeap
from repro.core.senn import ResolutionTier, senn_query
from repro.geometry.point import Point
from repro.index.knn import NeighborResult
from repro.index.rtree import RTree, RTreeConfig
from repro.obs import OBS, MetricsRegistry, SennRecord, Tracer, observed
from repro.obs.records import TABLES

from tests.test_obs_metrics import _CountingLock
from tests.test_obs_overhead import _quickstart_scenario


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


def _stations():
    return [
        (Point(0.1 + 0.13 * i, 0.07 * ((i * 7) % 11)), f"station-{i}")
        for i in range(16)
    ]


class TestLockCount:
    def test_a_host_query_flushes_once_per_query(self, registry, monkeypatch):
        lock = registry._lock = _CountingLock(registry._lock)
        server = SpatialDatabaseServer.from_points(_stations())
        config = SennConfig(k=3, transmission_range=0.124, cache_capacity=3)
        veteran = MobileHost(1, Point(0.5, 0.4), config)
        veteran.query_knn(peers=[], server=server)
        newcomer = MobileHost(2, Point(0.6, 0.4), config)

        inside = {"senn": [], "server": []}

        def measured(name, func):
            def wrapper(*args, **kwargs):
                start = lock.entered
                try:
                    return func(*args, **kwargs)
                finally:
                    inside[name].append(lock.entered - start)

            return wrapper

        monkeypatch.setattr(host_module, "senn_query", measured("senn", senn_query))
        monkeypatch.setattr(
            server, "knn_query_detailed", measured("server", server.knn_query_detailed)
        )
        start = lock.entered
        result = newcomer.query_knn(peers=[veteran], server=server)
        total = lock.entered - start

        # The scenario must keep reaching every record: a peer, the server.
        assert result.tier is ResolutionTier.SERVER
        assert result.peers_consulted == 1
        assert inside["server"] == [1]
        assert inside["senn"][0] - sum(inside["server"]) <= 1
        assert total - inside["senn"][0] <= 1
        assert total <= 3

    def test_a_server_knn_query_flushes_once(self, registry):
        lock = registry._lock = _CountingLock(registry._lock)
        server = SpatialDatabaseServer.from_points(_stations())
        for k in (1, 3, 8):
            start = lock.entered
            server.knn_query_detailed(Point(0.5, 0.4), k)
            assert lock.entered - start == 1
        assert registry.value("server.knn_queries", algorithm="einn") == 3.0


class TestConcurrentFlushes:
    def test_four_threads_lose_nothing(self, registry):
        threads_n, flushes = 4, 5_000
        start = threading.Barrier(threads_n)

        def flush_many():
            start.wait(timeout=30.0)
            for _ in range(flushes):
                SennRecord(
                    single_certain=2,
                    single_uncertain=1,
                    certain_stored=2,
                    uncertain_rejected=1,
                    tiers=(ResolutionTier.SERVER,),
                    single_sizes=(3,),
                ).flush()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=flush_many) for _ in range(threads_n)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        total = float(threads_n * flushes)
        assert registry.value("senn.queries", tier="server") == total
        assert registry.value("heap.offers", certain="true", outcome="stored") == 2 * total
        assert registry.value("heap.offers", certain="false", outcome="rejected") == total
        assert registry.value("verify.candidates", lemma="3.2", outcome="certain") == 2 * total
        sizes = registry.histogram("verify.batch_size", lemma="3.2")
        assert (sizes.count, sizes.sum) == (threads_n * flushes, 3.0 * total)


class TestRaisingQuery:
    def test_a_query_that_raises_after_its_first_peer_counts_that_peer(
        self, registry, monkeypatch
    ):
        query = Point(0.05, 0.0)
        near = CachedQueryResult(
            Point(0.0, 0.0),
            (
                NeighborResult(Point(0.01, 0.0), "a", 0.01),
                NeighborResult(Point(0.0, 0.3), "b", 0.3),
            ),
        )
        far = CachedQueryResult(
            Point(0.2, 0.0), (NeighborResult(Point(0.25, 0.0), "c", 0.05),)
        )
        real = senn_module.verify_single_peer
        verified = []

        def first_then_raise(point, cache, heap):
            if verified:
                raise RuntimeError("the second peer's link dropped")
            verified.append(cache)
            return real(point, cache, heap)

        monkeypatch.setattr(senn_module, "verify_single_peer", first_then_raise)
        with pytest.raises(RuntimeError):
            senn_query(query, 2, None, [far, near], SennConfig(k=2))
        assert verified == [near]  # Heuristic 3.3: the nearer peer first
        raised = registry.snapshot()

        OBS.registry = MetricsRegistry()
        heap = CandidateHeap(2)
        real(query, near, heap)
        heap.flush_tally()
        assert raised == OBS.registry.snapshot()
        assert raised["verify.candidates{lemma=3.2,outcome=certain}"] == 1.0
        assert not any(name.startswith(("senn.", "bounds.")) for name in raised)


    def test_a_search_that_raises_after_its_first_node_counts_that_node(
        self, registry, monkeypatch
    ):
        server = SpatialDatabaseServer.from_points(
            _stations(), tree_config=RTreeConfig(max_entries=4)
        )
        real = RTree.read_node
        read = []

        def first_then_raise(node, counter):
            if read:
                raise RuntimeError("the second page read failed")
            read.append(node)
            return real(node, counter)

        monkeypatch.setattr(RTree, "read_node", staticmethod(first_then_raise))
        with pytest.raises(RuntimeError):
            server.knn_query_detailed(Point(1.0, 0.3), 5)
        assert not read[0].is_leaf  # the root, above the leaves
        assert registry.snapshot() == {"rtree.node_reads{kind=index}": 1.0}


def _metric_name(metric, labels):
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels))
    return f"{metric}{{{inner}}}" if inner else metric


class TestExplainRecord:
    def test_one_event_per_query_whose_attrs_sum_to_the_registry(self, registry):
        tracer = Tracer()
        with observed(enabled=True, tracer=tracer):
            _quickstart_scenario()
        snapshot = registry.snapshot()
        events = {"senn.query": [], "server.knn": []}
        for record in tracer.records:
            events[record.name].append(record.attrs)

        assert len(events["senn.query"]) == 11  # one veteran + ten newcomer queries
        assert len(events["senn.query"]) == registry.total("senn.queries")
        assert len(events["server.knn"]) == registry.total("server.knn_queries")
        compared = 0
        for table in TABLES.values():
            if table.event is None:
                continue
            for field, slot in zip(table.fields, table.slots):
                if slot is None:
                    continue
                _, metric, labels, label = slot
                values = [attrs.get(field, 0) for attrs in events[table.event]]
                if label is not None:  # one count per member, labelled by it
                    seen = Counter(v for value in values if value for v in value)
                    for member, count in seen.items():
                        name = _metric_name(metric, labels + ((label, member),))
                        assert snapshot[name] == count, name
                        compared += 1
                    continue
                name = _metric_name(metric, labels)
                got = snapshot.get(name, 0.0)
                if isinstance(got, dict):
                    samples = [v for value in values if value for v in value]
                    assert (len(samples), sum(samples)) == (got["count"], got["sum"]), name
                else:
                    assert sum(values) == got, name
                compared += name in snapshot
        assert compared >= 12

    def test_a_disabled_flush_publishes_nothing(self, registry):
        for enabled in (False, True):
            heap = CandidateHeap(1)
            heap.add(Point(0.0, 0.0), "a", 0.0, True)
            with observed(enabled=enabled):
                heap.flush_tally()
            with pytest.raises(AttributeError):
                heap.tally  # a finished query's heap keeps no record
        assert registry.snapshot() == {"heap.offers{certain=true,outcome=stored}": 1.0}


class TestCacheReads:
    def test_repr_and_snapshots_leave_the_registry_alone(self, registry):
        server = SpatialDatabaseServer.from_points(_stations())
        host = MobileHost(1, Point(0.5, 0.4), SennConfig(k=3, cache_capacity=10))
        host.query_knn(peers=[], server=server)
        before = registry.snapshot()
        assert before["cache.lookups{outcome=miss}"] == 1.0
        assert before["cache.stores{truncated=false}"] == 1.0
        repr(host.cache)
        host.cache_snapshot()
        host.cache.get()
        host.cache_snapshots()
        assert registry.snapshot() == before
        host.query_knn(peers=[], server=server)
        assert registry.value("cache.lookups", outcome="hit") == 1.0
