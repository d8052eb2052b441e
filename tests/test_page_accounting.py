"""Page accounting: every stream folds into the server counter's
history exactly once, and the history conserves the running totals.

Driven over the golden scenario corpus, a live loopback server and a
bare server stream.  The connection-drop path of the TCP server (a
stream left open when the socket goes) is pinned in
``test_service_async.py``.
"""

import pathlib

import numpy as np

from repro.geometry.point import Point
from repro.index.knn import k_nearest, k_nearest_einn
from repro.index.pagestats import PageAccessCounter
from repro.index.rtree import RTree
from repro.core.server import SpatialDatabaseServer
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport
from repro.testing.invariants import verify_conservation
from repro.testing.scenarios import ScenarioGen, decode_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _golden_scenarios():
    items = []
    for path in sorted(GOLDEN_DIR.glob("*.scenario")):
        text = "\n".join(
            line
            for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
        items.append((path.stem, decode_scenario(text)))
    gen = ScenarioGen(seed=20260808)
    for index in range(10):
        items.append((f"gen-{index}", gen.generate(index)))
    return items


class TestPageAccounting:
    def test_golden_scenarios_conserve_and_bill_in_model(self):
        scenarios = _golden_scenarios()
        assert len(scenarios) >= 20
        for _name, scenario in scenarios:
            pois = [(Point(x, y), pid) for x, y, pid in scenario.pois]
            tree = RTree.bulk_load(list(pois))
            counter = PageAccessCounter()
            query = Point(*scenario.query)
            counter.start_query()
            k_nearest_einn(tree, query, scenario.k, counter=counter)
            counter.finish_query()
            counter.start_query()
            k_nearest(tree, query, scenario.k, counter=counter)
            counter.finish_query()
            assert len(counter.history) == 2
            assert verify_conservation(counter) == []

    def test_live_loopback_server_accounting(self):
        rng = np.random.default_rng(7)
        pois = [
            (Point(float(x), float(y)), f"poi-{i}")
            for i, (x, y) in enumerate(rng.uniform(0.0, 4.0, size=(250, 2)))
        ]
        server = SpatialDatabaseServer.from_points(pois)
        history = server.counter.history
        transport = LoopbackTransport(QueryService(server))
        client = ServiceClient(transport)
        for seed in range(3):
            qrng = np.random.default_rng(seed)
            query = Point(float(qrng.uniform(0, 4)), float(qrng.uniform(0, 4)))
            client.knn_query_detailed(query, 5)
        assert len(history) == 3
        stream = client.incremental_query(Point(1.0, 1.0))
        for _ in range(5):
            next(stream)
        assert len(history) == 3  # an open stream has folded nothing
        stream.close()
        assert len(history) == 4
        # A second stream is deliberately left open: closing the
        # transport (-> the session) must fold it, once.
        dangling = client.incremental_query(Point(3.0, 3.0))
        next(dangling)
        assert len(history) == 4
        transport.close()
        assert len(history) == 5
        del dangling
        assert len(history) == 5
        assert verify_conservation(server.counter) == []

    def test_a_stream_left_open_is_a_leftover(self):
        """An open stream is left over: it reaches the history only when
        closed, once however often it is closed, both as a bare stream
        and as the ``incremental_query`` generator."""
        server = SpatialDatabaseServer.from_points(
            [(Point(float(i), 0.0), i) for i in range(40)]
        )
        history = server.counter.history
        stream = server.open_stream(Point(0.0, 0.0))
        stream.pull(3)
        assert not stream.closed and history == []
        breakdown = stream.close()
        assert stream.close() is breakdown
        assert history == [breakdown]
        generator = server.incremental_query(Point(5.0, 0.0))
        for _ in range(3):
            next(generator)
        assert len(history) == 1
        generator.close()
        assert len(history) == 2
        assert verify_conservation(server.counter) == []

    def test_conservation_breach_is_detected(self):
        counter = PageAccessCounter()
        counter.start_query()
        counter.record(1, is_leaf=True)
        counter.finish_query()
        counter.total_accesses += 1  # simulate a lost breakdown
        problems = verify_conservation(counter)
        assert len(problems) == 1
        assert "history sums to 1" in problems[0]
