"""The traced pass: spans at layer boundaries, installed from outside.

Nothing under ``src/`` is edited.  The benchmark replaces public names
*in the namespace of their caller* (``repro.core.server.k_nearest_einn``
is the name the server calls, not the function's home module) with
wrappers that open a span on a benchmark-held
:class:`repro.obs.tracing.Tracer`, runs a shortened workload, restores
the names, and turns the spans plus an ``OBS`` registry delta into the
per-layer metrics of ``BENCHMARK.json``.

One traced run has two parts, both in this process:

1. the shortened workload with every second block traced and the
   others not, so ``trace.overhead_ratio`` (traced over untraced
   ops per second) compares neighbours in time;
2. untraced *probes*: ratios such as loopback / direct are measured by
   alternating the two sides in slices well under 100 ms, which is why
   they repeat where absolute times on a shared host do not.

A metric that the workload does not exercise is reported as 0.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.vecmath import mindist_arrays
from repro.network.index import DijkstraIndex, HierarchicalIndex
from repro.obs import OBS, observed
from repro.obs.tracing import TraceRecord, Tracer
from repro.service.asyncserver import BackgroundServer
from repro.service.client import ServiceClient
from repro.service.engine import QueryService
from repro.service.transport import LoopbackTransport
from repro.core.server import SpatialDatabaseServer

from bench_e2e.harness import Measurement, measure
from bench_e2e.stats import SpanTotals, span_totals
from bench_e2e.workloads import KNN_K, Workload, _SimWorkload, _TcpWorkload

__all__ = ["PER_LAYER", "installed", "measure_traced"]

_clock = time.perf_counter

#: name -> unit, in ``BENCHMARK.json`` order.
PER_LAYER: Dict[str, str] = {
    "geometry.vecmath.mindist_us": "us",
    "geometry.coverage.disk_cover_us": "us",
    "index.knn.einn_us": "us",
    "index.knn.entries_scanned_per_query": "count",
    "index.rtree.node_reads_per_query": "count",
    "index.rtree.bulk_load_s": "s",
    "core.server.knn_self_us": "us",
    "core.heap.offers_per_query": "count",
    "core.verification.single_us": "us",
    "core.verification.multi_us": "us",
    "core.verification.certain_ratio": "ratio",
    "core.senn.query_us": "us",
    "core.senn.self_us": "us",
    "core.senn.peer_answer_ratio": "ratio",
    "core.host.query_knn_us": "us",
    "core.snnn.query_ms": "ms",
    "core.snnn.network_distance_calls_per_query": "count",
    "service.protocol.encode_us": "us",
    "service.protocol.decode_us": "us",
    "service.protocol.reply_bytes": "bytes",
    "service.engine.handle_self_us": "us",
    "service.batching.execute_us_per_request": "us",
    "service.batching.mean_batch": "count",
    "service.batching.traversals_per_request": "ratio",
    "service.transport.loopback_us": "us",
    "service.transport.tcp_request_us": "us",
    "service.asyncserver.wait_ms": "ms",
    "service.loopback_over_direct": "ratio",
    "service.tcp_over_direct": "ratio",
    "sim.mobility.advance_us": "us",
    "sim.grid.update_us": "us",
    "sim.grid.within_range_us": "us",
    "sim.grid.peers_per_query": "count",
    "sim.phase.advance_share": "ratio",
    "sim.phase.query_share": "ratio",
    "sim.advance_over_query": "ratio",
    "network.index.dijkstra_knn_ms": "ms",
    "network.index.hierarchy_knn_ms": "ms",
    "network.hierarchy_over_dijkstra": "ratio",
    "network.index.hierarchy_build_s": "s",
    "network.index.settled_per_query_dijkstra": "count",
    "network.index.settled_per_query_hierarchy": "count",
    "network.dijkstra.distance_ms": "ms",
    "network.graph.snap_us": "us",
    "obs.enabled_over_disabled": "ratio",
    "trace.overhead_ratio": "ratio",
}

Attrs = Callable[[Tuple[Any, ...], Any], Dict[str, Any]]


def _frame_bytes(args: Tuple[Any, ...], result: Any) -> Dict[str, Any]:
    return {"bytes": len(args[0])}


def _wave_size(args: Tuple[Any, ...], result: Any) -> Dict[str, Any]:
    return {"requests": len(args[1])}


def _peer_count(args: Tuple[Any, ...], result: Any) -> Dict[str, Any]:
    return {"peers": len(result)}


#: (where the name is looked up, span name, extra attributes).  A target
#: is ``module:attribute`` or ``module:Class.method``.
PATCHES: Sequence[Tuple[str, str, Optional[Attrs]]] = (
    ("repro.geometry.coverage:CertainRegion.covers_disk", "geometry.coverage.covers_disk", None),
    ("repro.core.server:k_nearest_einn", "index.knn.k_nearest_einn", None),
    ("repro.index.rtree:RTree.bulk_load", "index.rtree.bulk_load", None),
    ("repro.core.server:SpatialDatabaseServer.knn_query_detailed", "core.server.knn_query_detailed", None),
    ("repro.core.senn:verify_single_peer", "core.verification.single", None),
    ("repro.core.senn:verify_multi_peer", "core.verification.multi", None),
    ("repro.core.host:senn_query", "core.senn.query", None),
    ("repro.core.snnn:senn_query", "core.senn.query", None),
    ("repro.core.host:MobileHost.query_knn", "core.host.query_knn", None),
    ("bench_e2e.workloads:snnn_query", "core.snnn.query", None),
    ("repro.core.snnn:network_distance", "network.dijkstra.network_distance", None),
    ("repro.network.graph:SpatialNetwork.snap", "network.graph.snap", None),
    ("repro.service.client:encode_message", "service.protocol.encode.client", None),
    ("repro.service.client:decode_message", "service.protocol.decode.client", _frame_bytes),
    ("bench_e2e.workloads:encode_message", "service.protocol.encode.client", None),
    ("bench_e2e.workloads:decode_message", "service.protocol.decode.client", _frame_bytes),
    ("repro.service.transport:encode_message", "service.protocol.encode.server", None),
    ("repro.service.transport:decode_message", "service.protocol.decode.server", None),
    ("repro.service.asyncserver:encode_message", "service.protocol.encode.server", None),
    ("repro.service.asyncserver:decode_message", "service.protocol.decode.server", None),
    ("repro.service.engine:ServiceSession.handle", "service.engine.handle", None),
    ("repro.service.engine:QueryService.execute_knn_batch", "service.engine.execute_knn_batch", _wave_size),
    ("repro.service.batching:BatchExecutor.execute", "service.batching.execute", _wave_size),
    ("repro.service.transport:LoopbackTransport.request", "service.transport.loopback", None),
    ("repro.service.transport:TcpTransport.request", "service.transport.tcp_request", None),
    ("repro.sim.mobility:RoadTrajectory.advance", "sim.mobility.advance", None),
    ("repro.sim.grid:UniformGrid.update", "sim.grid.update", None),
    ("repro.sim.grid:UniformGrid.within_range", "sim.grid.within_range", _peer_count),
)


class Tracers:
    """One tracer per thread that records: the generator's and the server's.

    ``Tracer`` keeps one span stack, so the in-process server thread of
    the TCP workloads must not share the generator's.
    """

    def __init__(self) -> None:
        self.generator = Tracer(clock=_clock)
        self.server = Tracer(clock=_clock)
        self._generator_thread = threading.get_ident()

    def current(self) -> Tracer:
        """The tracer of the calling thread."""
        if threading.get_ident() == self._generator_thread:
            return self.generator
        return self.server

    def records(self) -> List[TraceRecord]:
        """Both threads' records, server span ids shifted past the generator's."""
        shift = len(self.generator.records) + len(self.server.records) + 1
        merged = list(self.generator.records)
        for record in self.server.records:
            merged.append(
                TraceRecord(
                    record.kind,
                    record.name,
                    record.start,
                    record.end,
                    record.span_id + shift,
                    None if record.parent_id is None else record.parent_id + shift,
                    {**record.attrs, "thread": "server"},
                )
            )
        return merged


def _traced(tracers: Tracers, name: str, func: Callable[..., Any], attrs: Optional[Attrs]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracers.current().span(name) as record:
            result = func(*args, **kwargs)
            if attrs is not None:
                record.attrs.update(attrs(args, result))
            return result

    return wrapper


@contextmanager
def installed(tracers: Tracers) -> Iterator[None]:
    """Replace every name in :data:`PATCHES` by its traced wrapper."""
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for target, span_name, attrs in PATCHES:
            module_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = inspect.getattr_static(owner, attribute)
            undo.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(
                    _traced(tracers, span_name, raw.__func__, attrs)
                )
            else:
                replacement = _traced(tracers, span_name, raw, attrs)
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def measure_traced(
    workload: Workload, seconds: float, out_dir: Path
) -> Tuple[Measurement, Dict[str, Dict[str, Any]]]:
    """Alternating plain and traced blocks, then probes; returns the
    measurement and every per-layer metric."""
    _shorten(workload)
    tracers = Tracers()
    registry: Dict[str, float] = {}  # what the plain blocks added to OBS

    @contextmanager
    def every_second_block(index: int) -> Iterator[None]:
        if index % 2:
            with installed(tracers), tracers.generator.span("bench.block", index=index):
                yield
            return
        before = _registry_numbers()
        yield
        for key, value in _registry_numbers().items():
            registry[key] = registry.get(key, 0.0) + value - before.get(key, 0.0)

    with observed(enabled=True):
        run = measure(
            _Paired(workload),  # type: ignore[arg-type]
            seconds / 2.0,
            around_block=every_second_block,
            setup_samples=1,
        )
        # One traced set-up, for the spans set-up is made of.
        with installed(tracers), tracers.generator.span("bench.setup"):
            workload.release(workload.build())

    records = tracers.records()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace_{workload.name}.jsonl", "w") as stream:
        for record in records:
            stream.write(record.to_json() + "\n")

    values = {name: 0.0 for name in PER_LAYER}
    values.update(_from_spans(span_totals(records), records, registry, run))
    values.update(_probes(workload, seconds / 4.0))
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()
    }
    return run, metrics


class _Paired:
    """Gives blocks 2i and 2i+1 the inputs of block i.

    The plain block and the traced block after it then do the same
    work, so their ratio is the tracing overhead and not a difference
    of inputs.
    """

    def __init__(self, workload: Workload) -> None:
        self._workload = workload

    def __getattr__(self, name: str) -> Any:
        return getattr(self._workload, name)

    def run_block(self, world: Any, index: int) -> Any:
        return self._workload.run_block(world, index // 2)

    def verify(self, world: Any, index: int, block: Any) -> int:
        return self._workload.verify(world, index // 2, block)


def _split(run: Measurement) -> Tuple[float, float, List[float]]:
    """(plain ops/s, traced ops/s, traced blocks' latencies)."""
    ops = [0, 0]
    wall = [0.0, 0.0]
    traced_latencies: List[float] = []
    offset = 0
    for index, (block_ops, block_wall, samples) in enumerate(run.block_log):
        ops[index % 2] += block_ops
        wall[index % 2] += block_wall
        if index % 2:
            traced_latencies.extend(run.latencies_s[offset : offset + samples])
        offset += samples
    return ops[0] / wall[0], ops[1] / wall[1], traced_latencies


def _shorten(workload: Workload) -> None:
    """Traced sizes: one plain and one traced block at least, short
    simulations, the server in this process."""
    workload.min_blocks = 2
    if isinstance(workload, _SimWorkload):
        # Every host's ``advance`` is a span; a full-length block would
        # hold close to a million of them.
        workload.simulated_s *= 0.2
    if isinstance(workload, _TcpWorkload):
        workload.serve_in_process = _serve_in_process


def _serve_in_process(pois: Sequence[Tuple[Any, Any]]) -> BackgroundServer:
    spatial = SpatialDatabaseServer.from_points(pois)
    running = BackgroundServer(spatial).start()
    running.spatial = spatial  # type: ignore[attr-defined]  # for the direct side of probes
    return running


def _registry_numbers() -> Dict[str, float]:
    """Counters and gauges as they are, histograms as ``.sum``/``.count``."""
    flat: Dict[str, float] = {}
    for key, value in OBS.registry.snapshot().items():
        if isinstance(value, dict):
            flat[key + ".sum"] = float(value["sum"])
            flat[key + ".count"] = float(value["count"])
        else:
            flat[key] = float(value)  # type: ignore[arg-type]
    return flat


def _family(registry: Dict[str, float], name: str, needle: str = "") -> float:
    """Sum of one metric family's label sets whose labels contain ``needle``."""
    return sum(
        value
        for key, value in registry.items()
        if (key == name or key.startswith(name + "{")) and needle in key
    )


def _from_spans(
    totals: Dict[str, SpanTotals],
    records: Sequence[TraceRecord],
    registry: Dict[str, float],
    traced: Measurement,
) -> Dict[str, float]:
    """Every per-layer metric that comes from spans and counters."""

    def of(name: str) -> SpanTotals:
        return totals.get(name, SpanTotals())

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    def attr_sum(prefix: str, key: str) -> float:
        return float(
            sum(r.attrs.get(key, 0) for r in records if r.name.startswith(prefix))
        )

    plain_ops_per_s, traced_ops_per_s, traced_latencies = _split(traced)
    out: Dict[str, float] = {"trace.overhead_ratio": traced_ops_per_s / plain_ops_per_s}
    out["geometry.coverage.disk_cover_us"] = of("geometry.coverage.covers_disk").mean_s * 1e6
    einn = of("index.knn.k_nearest_einn")
    knn = of("core.server.knn_query_detailed")
    out["index.knn.einn_us"] = einn.mean_s * 1e6
    out["index.rtree.bulk_load_s"] = of("index.rtree.bulk_load").mean_s
    out["core.server.knn_self_us"] = per(knn.self_s, knn.count) * 1e6

    server_queries = _family(registry, "server.knn_queries")
    # Batched requests are answered by shared traversals, not by
    # ``knn_query_detailed``; both kinds read nodes.
    answered = server_queries + _family(registry, "service.batched_queries")
    out["index.rtree.node_reads_per_query"] = per(
        _family(registry, "rtree.node_reads"), answered
    )
    out["index.knn.entries_scanned_per_query"] = traced.extras[
        "entries_scanned_per_query"
    ]

    senn_queries = _family(registry, "senn.queries")
    out["core.heap.offers_per_query"] = per(_family(registry, "heap.offers"), senn_queries)
    out["core.verification.single_us"] = of("core.verification.single").mean_s * 1e6
    out["core.verification.multi_us"] = of("core.verification.multi").mean_s * 1e6
    out["core.verification.certain_ratio"] = per(
        _family(registry, "verify.candidates", "outcome=certain"),
        _family(registry, "verify.candidates"),
    )
    senn = of("core.senn.query")
    out["core.senn.query_us"] = senn.mean_s * 1e6
    out["core.senn.self_us"] = per(senn.self_s, senn.count) * 1e6
    out["core.senn.peer_answer_ratio"] = per(
        senn_queries - _family(registry, "senn.queries", "tier=server"), senn_queries
    )
    out["core.host.query_knn_us"] = of("core.host.query_knn").mean_s * 1e6
    snnn = of("core.snnn.query")
    distance = of("network.dijkstra.network_distance")
    out["core.snnn.query_ms"] = snnn.mean_s * 1e3
    out["core.snnn.network_distance_calls_per_query"] = per(distance.count, snnn.count)
    out["network.dijkstra.distance_ms"] = distance.mean_s * 1e3
    out["network.graph.snap_us"] = of("network.graph.snap").mean_s * 1e6

    encode_client = of("service.protocol.encode.client")
    encode_server = of("service.protocol.encode.server")
    decode_client = of("service.protocol.decode.client")
    decode_server = of("service.protocol.decode.server")
    out["service.protocol.encode_us"] = per(
        encode_client.total_s + encode_server.total_s,
        encode_client.count + encode_server.count,
    ) * 1e6
    out["service.protocol.decode_us"] = per(
        decode_client.total_s + decode_server.total_s,
        decode_client.count + decode_server.count,
    ) * 1e6
    out["service.protocol.reply_bytes"] = per(
        attr_sum("service.protocol.decode.client", "bytes"), decode_client.count
    )
    handle = of("service.engine.handle")
    wave = of("service.engine.execute_knn_batch")
    served = attr_sum("service.engine.execute_knn_batch", "requests")
    out["service.engine.handle_self_us"] = per(handle.self_s + wave.self_s, served) * 1e6
    out["service.batching.execute_us_per_request"] = per(
        of("service.batching.execute").total_s, served
    ) * 1e6
    out["service.batching.mean_batch"] = traced.extras.get(
        "mean_batch", 1.0 if served else 0.0
    )
    out["service.batching.traversals_per_request"] = per(
        registry.get("service.batch_size.count", 0.0),
        registry.get("service.batch_size.sum", 0.0),
    )
    out["service.transport.loopback_us"] = of("service.transport.loopback").mean_s * 1e6
    tcp = of("service.transport.tcp_request")
    out["service.transport.tcp_request_us"] = tcp.mean_s * 1e6
    if encode_server.count and not handle.count:  # a TCP workload
        # The request span: the transport's span where the product's
        # client is used, else the generator's own send-to-arrival time.
        request_s = tcp.mean_s or per(sum(traced_latencies), len(traced_latencies))
        server_side_s = per(
            decode_server.total_s + wave.total_s + encode_server.total_s, served
        )
        out["service.asyncserver.wait_ms"] = (request_s - server_side_s) * 1e3

    out["sim.mobility.advance_us"] = of("sim.mobility.advance").mean_s * 1e6
    out["sim.grid.update_us"] = of("sim.grid.update").mean_s * 1e6
    within = of("sim.grid.within_range")
    out["sim.grid.within_range_us"] = within.mean_s * 1e6
    out["sim.grid.peers_per_query"] = per(
        attr_sum("sim.grid.within_range", "peers"), within.count
    )
    advance_s = registry.get("sim.phase.advance.sum", 0.0)
    query_s = registry.get("sim.phase.query.sum", 0.0)
    if advance_s:
        # Of the plain blocks, so the spans around every ``advance`` do
        # not tilt the split; ``run()`` is these two phases and nothing else.
        out["sim.phase.advance_share"] = advance_s / (advance_s + query_s)
        out["sim.phase.query_share"] = query_s / (advance_s + query_s)
        out["sim.advance_over_query"] = per(advance_s, query_s)
    return out


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------
def _alternate(
    sides: Sequence[Callable[[Any], Any]],
    inputs: Sequence[Any],
    budget_s: float,
    slice_ops: int,
) -> List[float]:
    """Seconds each side spent on the same inputs, taken in turns.

    Every slice of ``slice_ops`` inputs is run by each side back to
    back, so both sides see the same host conditions.
    """
    spent = [0.0] * len(sides)
    deadline = _clock() + budget_s
    position = 0
    while _clock() < deadline:
        chunk = [inputs[(position + i) % len(inputs)] for i in range(slice_ops)]
        position += slice_ops
        for index, side in enumerate(sides):
            start = _clock()
            for item in chunk:
                side(item)
            spent[index] += _clock() - start
    return spent


def _probes(workload: Workload, budget_s: float) -> Dict[str, float]:
    probes = {
        "knn_direct": _probe_knn_direct,
        "tcp_solo": _probe_tcp_solo,
        "snnn_network": _probe_network,
    }
    probe = probes.get(workload.name)
    if probe is None:
        return {}
    world = workload.build()
    try:
        return probe(workload, world, budget_s)
    finally:
        workload.release(world)


def _probe_knn_direct(workload: Any, server: Any, budget_s: float) -> Dict[str, float]:
    out: Dict[str, float] = {}
    client = ServiceClient(LoopbackTransport(QueryService(server)))
    direct, loopback = _alternate(
        [
            lambda p: server.knn_query_detailed(p, KNN_K),
            lambda p: client.knn_query_detailed(p, KNN_K),
        ],
        workload.points,
        budget_s / 3.0,
        slice_ops=100,
    )
    out["service.loopback_over_direct"] = loopback / direct

    def unobserved(point: Any) -> None:
        with observed(enabled=False):
            server.knn_query_detailed(point, KNN_K)

    def observed_(point: Any) -> None:
        with observed(enabled=True):
            server.knn_query_detailed(point, KNN_K)

    off, on = _alternate([unobserved, observed_], workload.points, budget_s / 3.0, 100)
    out["obs.enabled_over_disabled"] = on / off

    # One 50-entry node block, the shape EINN hands to the kernel.
    rng = np.random.default_rng(workload.seed)
    low = rng.uniform(0.0, 9.0, (2, 50))
    high = low + rng.uniform(0.0, 1.0, (2, 50))
    calls = 0
    start = _clock()
    while _clock() - start < budget_s / 3.0:
        for point in workload.points[:200]:
            mindist_arrays(point.x, point.y, low[0], low[1], high[0], high[1])
        calls += 200
    out["geometry.vecmath.mindist_us"] = (_clock() - start) / calls * 1e6
    return out


def _probe_tcp_solo(workload: Any, world: Any, budget_s: float) -> Dict[str, float]:
    spatial = world.in_process.spatial
    direct, tcp = _alternate(
        [
            lambda p: spatial.knn_query_detailed(p, KNN_K),
            lambda p: world.client.knn_query_detailed(p, KNN_K),
        ],
        workload.points,
        budget_s,
        slice_ops=20,
    )
    return {"service.tcp_over_direct": tcp / direct}


def _probe_network(workload: Any, world: Any, budget_s: float) -> Dict[str, float]:
    start = _clock()
    hierarchy = HierarchicalIndex(world.network)
    build_s = _clock() - start
    dijkstra = DijkstraIndex(world.network)
    for index in (hierarchy, dijkstra):
        index.register_pois(world.pois)
        index.stats.reset()
    plain_s, tree_s = _alternate(
        [lambda o: dijkstra.knn(o, workload.k), lambda o: hierarchy.knn(o, workload.k)],
        world.origins,
        budget_s,
        slice_ops=4,
    )
    return {
        "network.index.hierarchy_build_s": build_s,
        "network.index.dijkstra_knn_ms": plain_s / dijkstra.stats.knn_queries * 1e3,
        "network.index.hierarchy_knn_ms": tree_s / hierarchy.stats.knn_queries * 1e3,
        "network.hierarchy_over_dijkstra": tree_s / plain_s,
        "network.index.settled_per_query_dijkstra": dijkstra.stats.settled_vertices
        / dijkstra.stats.knn_queries,
        "network.index.settled_per_query_hierarchy": hierarchy.stats.settled_vertices
        / hierarchy.stats.knn_queries,
    }
