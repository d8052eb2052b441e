"""Golden regression: the metrics one fixed workload leaves in ``OBS``.

``tests/golden/paper_counts.json`` pins the 26 counters a simulation
window touches; this pins the rest of the catalogue.  One enabled run of

- the two scenarios of ``tests/test_obs_overhead.py`` (SENN tiers, both
  verifiers, both EINN pruning rules, the INN stream, a shared batch
  traversal),
- a dynamically built tree (splits, forced reinserts),
- two ``LoopbackTransport`` clients of one service (kNN and a stream
  each, one request the engine rejects),
- one ``TcpTransport`` client of a ``BackgroundServer``, one request in
  flight, and one malformed frame,
- one ``snnn_query`` and one kNN query per ``NetworkIndex`` on a small
  generated network

is compared name for name, label for label, value for value with
``tests/golden/obs_snapshot.json``.  A misspelt metric name, a swapped
label value, a changed bucket ladder or an instrument registered before
its first event shows up here as a one-line diff.  Wall-clock
histograms (``*_s``) keep their ``count`` and ``boundaries`` only.

The snapshot was generated from the per-call
``OBS.registry.counter(name, **labels)`` lookups, before the
:class:`repro.obs.Instrument` handle replaced them.  When range and
window queries were retired their steps left the workload and the file
was regenerated once; the code from before that retirement writes the
same bytes for the reduced workload.  Regenerate (only when the
workload or the catalogue changes on purpose) with::

    PYTHONPATH=src:. python tests/test_golden_obs_snapshot.py --regen
"""

from __future__ import annotations

import json
import socket
import sys
from pathlib import Path
from typing import Dict

from repro.core.senn import SennConfig
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import snnn_query
from repro.geometry.point import Point
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.index import DijkstraIndex, HierarchicalIndex
from repro.obs import OBS, MetricsRegistry, observed
from repro.service.asyncserver import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.protocol import ErrorReply, KnnRequest
from repro.service.transport import LoopbackTransport, TcpTransport

from tests.test_obs_overhead import _quickstart_scenario, _wide_scenario
from tests.test_service_loopback import make_pois

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "obs_snapshot.json"


def _served_exchange() -> None:
    """Two loopback clients, then one TCP client, of the same POI set."""
    pois = make_pois(300, seed=5)
    service = QueryService(SpatialDatabaseServer.from_points(pois))
    clients = [ServiceClient(LoopbackTransport(service)) for _ in range(2)]
    for index, client in enumerate(clients):
        here = Point(1.0 + index, 2.0)
        client.knn_query(here, 4)
        stream = client.incremental_query(here)
        for _ in range(3):
            next(stream)
        stream.close()
    for client in clients:
        client.close()
    # The codec refuses a k below 1 on both sides of the wire, so the
    # engine's own rejection is reached by handing the session the message.
    reply = service.session().handle(KnnRequest(9, Point(1.0, 2.0), -1))
    assert isinstance(reply, ErrorReply)

    with BackgroundServer(SpatialDatabaseServer.from_points(pois)) as running:
        client = ServiceClient(TcpTransport(*running.address))
        for x in (0.5, 2.0, 3.5):
            client.knn_query(Point(x, 2.0), 3)
        client.close()
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(b"XX\x01\x01\x00\x00\x00\x00")
            sock.settimeout(5.0)
            while sock.recv(4096):
                pass


def _network_queries() -> None:
    network = generate_road_network(
        RoadNetworkSpec(width=2.0, height=2.0, secondary_spacing=2.0 / 6, seed=3)
    )
    pois = [
        (network.snap(point).point, payload)
        for point, payload in make_pois(30, seed=503, extent=2.0)
    ]
    server = SpatialDatabaseServer.from_points(pois)
    snnn_query(Point(1.0, 1.0), 2, network, None, [], SennConfig(k=2), server=server)
    origin = network.snap(Point(0.7, 1.2))
    for index in (DijkstraIndex(network), HierarchicalIndex(network, leaf_size=8)):
        index.register_pois(
            [(network.snap(point), payload) for point, payload in pois]
        )
        index.knn(origin, 3)


def obs_snapshot() -> Dict[str, object]:
    """Run the workload on a fresh enabled registry; return what it holds."""
    previous = OBS.registry
    try:
        with observed(enabled=True):
            OBS.registry = MetricsRegistry()
            _quickstart_scenario()
            _wide_scenario()
            SpatialDatabaseServer.from_points(
                make_pois(200, seed=9, extent=3.0), bulk=False
            )
            _served_exchange()
            _network_queries()
            snapshot = OBS.registry.snapshot()
    finally:
        OBS.registry = previous
    for name, value in snapshot.items():
        if isinstance(value, dict) and name.partition("{")[0].endswith("_s"):
            del value["sum"], value["buckets"]
    return snapshot


def test_workload_leaves_the_pinned_metrics():
    pinned = json.loads(SNAPSHOT_PATH.read_text())
    fresh = obs_snapshot()
    assert sorted(fresh) == sorted(pinned)
    assert fresh == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    SNAPSHOT_PATH.write_text(
        json.dumps(obs_snapshot(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")
