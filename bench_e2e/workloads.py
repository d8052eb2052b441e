"""The six workloads.  Why each exists is in ``BENCHMARK.json`` / README.

Every workload is closed loop (the next request leaves only when the
previous reply is in) and is cut into *blocks* of a fixed number of
ops.  The harness runs ``min_blocks`` blocks, then more up to the block
count whose timed wall is nearest ``--seconds``.  Count metrics (pages per query, server
share) are tallied over the first ``min_blocks`` blocks only, which is
what makes them repeat exactly for a seed however fast the host is.

A *world* is what set-up produces (a server, a server process and its
connections, a simulation, a road network).  ``build`` is the timed
set-up; the harness calls it several times and reports the median.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.host import MobileHost
from repro.core.senn import ResolutionTier, SennConfig
from repro.core.server import SpatialDatabaseServer
from repro.core.snnn import snnn_query
from repro.geometry.point import Point
from repro.network.loaders import load_bundled_extract
from repro.service.cli import build_pois
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    HEADER_SIZE,
    Answer,
    KnnRequest,
    ProtocolError,
    decode_message,
    encode_message,
    parse_header,
)
from repro.service.transport import TcpTransport
from repro.sim.config import SimulationConfig, los_angeles_30x30
from repro.sim.simulation import Simulation

from bench_e2e.checks import KnnTruth, NetworkTruth
from bench_e2e.hostspeed import spin
from bench_e2e.procs import ServerProcess, self_peak_rss_mb

__all__ = ["Block", "WORKLOADS", "Workload", "make_workload"]

_clock = time.perf_counter

#: How often a long block samples the host's speed.
_SPIN_EVERY_S = 0.1

POI_COUNT = 20_000
EXTENT = 10.0
KNN_K = 8
#: The service's default batching cell (``ServiceConfig.batch_cell_size``).
CELL = 0.25


@dataclass
class Block:
    """What one block of ops produced."""

    ops: int  # throughput units completed
    wall_s: float
    latencies_s: List[float]
    attempted: int  # operations whose outcome is checked
    failed: int = 0  # errors and refusals; ``verify`` adds wrong answers
    answers: Any = None
    #: Host-speed spins taken inside the block, where it is long enough
    #: for the host to change speed under it; their time is part of
    #: ``wall_s`` and the harness takes it off.
    spins: List[float] = field(default_factory=list)


class Workload:
    """Shared shape; see the module docstring for the life cycle."""

    name = ""
    min_blocks = 1
    fresh_world_per_block = False

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self._pages = 0.0
        self._page_queries = 0
        self._entries_scanned = 0
        self._traversals = 0

    def _tally(self, breakdowns: Sequence[Any], queries: int) -> None:
        """Add one count block's access breakdowns to the count metrics.

        ``queries`` is what the pages are divided by; it differs from
        ``len(breakdowns)`` where one op makes several server calls.
        """
        self._pages += sum(b.total for b in breakdowns)
        self._page_queries += queries
        self._entries_scanned += sum(b.entries_scanned for b in breakdowns)
        self._traversals += len(breakdowns)

    def _scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))

    def build(self) -> Any:
        """The timed set-up; returns the world."""
        raise NotImplementedError

    def release(self, world: Any) -> None:
        """Undo ``build`` (close sockets, reap processes)."""

    def warm_up(self, world: Any) -> None:
        """Untimed ops so caches and lazy imports are settled."""

    def run_block(self, world: Any, index: int) -> Block:
        """Run one block; only this is timed."""
        raise NotImplementedError

    def verify(self, world: Any, index: int, block: Block) -> int:
        """Check the block's answers; returns how many were wrong."""
        raise NotImplementedError

    def peak_rss_mb(self, world: Any) -> float:
        """Peak memory of the process that holds the data."""
        return self_peak_rss_mb()

    def busy_s(self, world: Any) -> float:
        """CPU seconds used so far by every process the workload runs in."""
        return time.process_time()

    def counts(self) -> Dict[str, float]:
        """The count metrics over the first ``min_blocks`` blocks."""
        return {
            "pages_per_query": self._pages / self._page_queries,
            "sqrr_server_share": 1.0,  # every op here is a server query
        }

    def extras(self) -> Dict[str, float]:
        """Printed-only numbers of this workload (not gated)."""
        return {
            "entries_scanned_per_query": self._entries_scanned
            / max(1, self._traversals)
        }


def _uniform_points(seed: int, count: int) -> List[Point]:
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0.0, EXTENT, (count, 2))]


# ----------------------------------------------------------------------
# knn_direct
# ----------------------------------------------------------------------
class KnnDirect(Workload):
    """In-process EINN; five blocks make one pass over the query points.

    Blocks are short (about 0.15 s) so that the host-speed spins on
    either side of a block describe the speed the block really ran at.
    """

    name = "knn_direct"
    blocks_per_pass = 5
    min_blocks = blocks_per_pass

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.block_ops = self._scaled(1000)
        self.points = _uniform_points(seed + 1, self.block_ops * self.blocks_per_pass)
        self._truth: Optional[Tuple[KnnTruth, np.ndarray]] = None
        self._pois: List[Tuple[Point, str]] = []

    def build(self) -> SpatialDatabaseServer:
        self._pois = build_pois(POI_COUNT, self.seed, EXTENT)
        return SpatialDatabaseServer.from_points(self._pois)

    def warm_up(self, world: SpatialDatabaseServer) -> None:
        for point in self.points[: self._scaled(1500)]:
            world.knn_query_detailed(point, KNN_K)

    def _rows(self, index: int) -> range:
        first = (index % self.blocks_per_pass) * self.block_ops
        return range(first, first + self.block_ops)

    def run_block(self, world: SpatialDatabaseServer, index: int) -> Block:
        query = world.knn_query_detailed
        points = [self.points[row] for row in self._rows(index)]
        latencies: List[float] = []
        answers = []
        begin = _clock()
        for point in points:
            start = _clock()
            answer = query(point, KNN_K)
            latencies.append(_clock() - start)
            answers.append(answer)
        wall = _clock() - begin
        return Block(len(answers), wall, latencies, len(answers), answers=answers)

    def verify(self, world: Any, index: int, block: Block) -> int:
        if self._truth is None:
            truth = KnnTruth(self._pois)
            self._truth = (truth, truth.table(self.points, KNN_K))
        if index < self.min_blocks:
            self._tally([a.pages for a in block.answers], len(block.answers))
        truth, table = self._truth
        rows = self._rows(index)
        return truth.wrong_answers(
            [self.points[row] for row in rows],
            table[rows.start : rows.stop],
            [a.neighbors for a in block.answers],
        )


# ----------------------------------------------------------------------
# tcp_solo / tcp_colocated
# ----------------------------------------------------------------------
@dataclass
class _Served:
    process: Optional[ServerProcess]
    address: Tuple[str, int]
    client: Optional[ServiceClient] = None
    sockets: List[socket.socket] = field(default_factory=list)
    in_process: Any = None  # a BackgroundServer in the traced pass


class _TcpWorkload(Workload):
    """Common to both TCP workloads: the served POI set and its truth."""

    #: The traced pass swaps this for an in-process server factory so
    #: server-side layer boundaries are visible to the tracer.
    serve_in_process: Any = None

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.points: List[Point] = []
        self._truth: Optional[Tuple[KnnTruth, np.ndarray]] = None
        self._batch_sizes = 0

    def _rows(self, index: int) -> List[int]:
        """Which of ``self.points`` block ``index`` queries, in order."""
        raise NotImplementedError

    @staticmethod
    def _breakdown(answer: Any) -> Any:
        """The reply's page-access breakdown."""
        raise NotImplementedError

    def verify(self, world: Any, index: int, block: Block) -> int:
        kept = [
            (row, answer)
            for row, answer in zip(self._rows(index), block.answers)
            if answer is not None
        ]
        if index < self.min_blocks:
            self._tally([self._breakdown(answer) for _, answer in kept], len(kept))
            self._batch_sizes += sum(answer.batch_size for _, answer in kept)
        return self._wrong(
            [row for row, _ in kept], [answer.neighbors for _, answer in kept]
        )

    def extras(self) -> Dict[str, float]:
        return {
            **super().extras(),
            "mean_batch": self._batch_sizes / max(1, self._traversals),
        }

    def _serve(self) -> _Served:
        if self.serve_in_process is not None:
            running = self.serve_in_process(build_pois(POI_COUNT, self.seed, EXTENT))
            return _Served(None, running.address, in_process=running)
        process = ServerProcess(POI_COUNT, self.seed, ServerProcess.second_cpu())
        return _Served(process, process.start())

    def release(self, world: _Served) -> None:
        try:
            if world.client is not None:
                world.client.close()
            for sock in world.sockets:
                sock.close()
        finally:
            if world.process is not None:
                world.process.stop()
            if world.in_process is not None:
                world.in_process.stop()

    def peak_rss_mb(self, world: _Served) -> float:
        if world.process is None:
            return self_peak_rss_mb()
        return world.process.peak_rss_mb()

    def busy_s(self, world: Optional[_Served]) -> float:
        busy = time.process_time()
        if world is not None and world.process is not None:
            busy += world.process.cpu_seconds()
        return busy

    def _wrong(self, rows: Sequence[int], answers: Sequence[Any]) -> int:
        """Check answers to ``self.points[row]`` for each row."""
        if self._truth is None:
            truth = KnnTruth(build_pois(POI_COUNT, self.seed, EXTENT))
            self._truth = (truth, truth.table(self.points, KNN_K))
        truth, table = self._truth
        return truth.wrong_answers(
            [self.points[row] for row in rows], table[list(rows)], answers
        )


class TcpSolo(_TcpWorkload):
    """One client, one request in flight, scattered points."""

    name = "tcp_solo"
    min_blocks = 4

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.block_ops = self._scaled(250)
        self.points = _uniform_points(seed + 2, self.block_ops * 10)

    def build(self) -> _Served:
        world = self._serve()
        try:
            world.client = ServiceClient(TcpTransport(*world.address))
            world.client.knn_query_detailed(Point(EXTENT / 2, EXTENT / 2), KNN_K)
        except BaseException:
            self.release(world)
            raise
        return world

    def warm_up(self, world: _Served) -> None:
        assert world.client is not None
        for point in self.points[-self._scaled(75) :]:
            world.client.knn_query_detailed(point, KNN_K)

    def _rows(self, index: int) -> List[int]:
        first = index * self.block_ops
        return [(first + i) % len(self.points) for i in range(self.block_ops)]

    def run_block(self, world: _Served, index: int) -> Block:
        assert world.client is not None
        query = world.client.knn_query_detailed
        rows = self._rows(index)
        latencies: List[float] = []
        answers: List[Any] = []
        failed = 0
        begin = _clock()
        for row in rows:
            start = _clock()
            try:
                answer = query(self.points[row], KNN_K)
            except (ServiceError, ProtocolError, OSError):
                failed += 1
                answers.append(None)
                continue
            latencies.append(_clock() - start)
            answers.append(answer)
        wall = _clock() - begin
        return Block(len(rows) - failed, wall, latencies, len(rows), failed, answers)

    _breakdown = staticmethod(operator.attrgetter("pages"))  # a QueryAnswer


class TcpColocated(_TcpWorkload):
    """Two connections, four pipelined requests each, one batching cell.

    Block ``b`` queries the 64 points of cell ``b mod 16``.  Sixteen
    cells rather than the one a smoke test would use: pages per query
    depend on where the cell sits in the R-tree, and the mean over
    sixteen seeded cells is what is steady from seed to seed.
    """

    name = "tcp_colocated"
    cells = 16
    min_blocks = cells
    connections = 2
    pipeline_depth = 4
    points_per_cell = 64

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        wave = self.connections * self.pipeline_depth
        self.block_ops = wave * self._scaled(64)  # whole waves only
        rng = np.random.default_rng(seed + 3)
        cells_per_side = int(EXTENT / CELL)
        self.points = []
        for _ in range(self.cells):
            corner = rng.integers(1, cells_per_side - 1, 2) * CELL
            offsets = rng.uniform(0.0, CELL / 4.0, (self.points_per_cell, 2))
            self.points.extend(
                Point(float(corner[0] + dx), float(corner[1] + dy))
                for dx, dy in offsets
            )
        self._next_id = 1

    def build(self) -> _Served:
        world = self._serve()
        try:
            for _ in range(self.connections):
                world.sockets.append(socket.create_connection(world.address, timeout=30.0))
            first = self._pipeline(world, [0])
            if first.failed:
                raise RuntimeError("no reply to the first request")
        except BaseException:
            self.release(world)
            raise
        return world

    def warm_up(self, world: _Served) -> None:
        self._pipeline(world, self._rows(0)[: 8 * self._scaled(60)])

    def _rows(self, index: int) -> List[int]:
        first = (index % self.cells) * self.points_per_cell
        return [first + i % self.points_per_cell for i in range(self.block_ops)]

    def run_block(self, world: _Served, index: int) -> Block:
        return self._pipeline(world, self._rows(index))

    def _pipeline(self, world: _Served, rows: Sequence[int]) -> Block:
        """Each connection sends a burst, awaits its replies, sends the next.

        With both connections in step every server wave holds
        ``connections * pipeline_depth`` co-located requests, so batch
        sizes (and with them pages per query) repeat exactly.
        """
        selector = selectors.DefaultSelector()
        buffers = {sock: bytearray() for sock in world.sockets}
        awaited = {sock: 0 for sock in world.sockets}
        for sock in world.sockets:
            selector.register(sock, selectors.EVENT_READ)
        sent_at: Dict[int, Tuple[float, int]] = {}  # request id -> (sent, op)
        # Replies wait here, stamped, until the sockets are quiet:
        # decoding a burst takes a good part of the server's 2 ms
        # window, and the other connection's burst must not miss it.
        undecoded: List[Tuple[float, bytes]] = []
        latencies: List[float] = []
        answers: List[Any] = [None] * len(rows)
        next_op = 0
        settled = 0

        def send_burst(sock: socket.socket) -> None:
            nonlocal next_op
            ops = range(next_op, min(next_op + self.pipeline_depth, len(rows)))
            if not ops:
                return
            next_op = ops.stop
            first_id = self._next_id
            self._next_id += len(ops)
            frames = [
                encode_message(
                    KnnRequest(first_id + i, self.points[rows[op]], KNN_K)
                )
                for i, op in enumerate(ops)
            ]
            sent = _clock()
            for i, op in enumerate(ops):
                sent_at[first_id + i] = (sent, op)
            # One write per burst: frame-by-frame writes let Nagle hold
            # the tail of the burst back past the server's window.
            sock.sendall(b"".join(frames))
            awaited[sock] = len(ops)

        begin = _clock()
        try:
            for sock in world.sockets:
                send_burst(sock)
            while settled < len(rows):
                events = selector.select(timeout=0.0 if undecoded else 30.0)
                if not events and not undecoded:
                    break  # the server went quiet; the rest count as failed
                if not events:
                    arrived, frame = undecoded.pop()
                    settled += 1
                    reply = decode_message(frame)
                    sent, op = sent_at.pop(getattr(reply, "request_id", 0), (0.0, -1))
                    if isinstance(reply, Answer) and op >= 0:
                        latencies.append(arrived - sent)
                        answers[op] = reply
                    continue
                for key, _ in events:
                    sock = key.fileobj
                    chunk = sock.recv(65536)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                    arrived = _clock()
                    buffer = buffers[sock]
                    buffer.extend(chunk)
                    while len(buffer) >= HEADER_SIZE:
                        _, length = parse_header(bytes(buffer[:HEADER_SIZE]))
                        if len(buffer) < HEADER_SIZE + length:
                            break
                        undecoded.append(
                            (arrived, bytes(buffer[: HEADER_SIZE + length]))
                        )
                        del buffer[: HEADER_SIZE + length]
                        awaited[sock] -= 1
                    if awaited[sock] == 0:
                        send_burst(sock)
        except (ProtocolError, OSError):
            pass  # whatever has no answer yet is counted as failed below
        finally:
            selector.close()
        wall = _clock() - begin
        done = len(latencies)
        return Block(done, wall, latencies, len(rows), len(rows) - done, answers)

    _breakdown = staticmethod(operator.attrgetter("breakdown"))  # a wire Answer


# ----------------------------------------------------------------------
# sim_cruise / sim_rush
# ----------------------------------------------------------------------
class _SimWorkload(Workload):
    """A fresh ``Simulation`` per block, seeded ``seed * 1000 + build``.

    The simulator is its own load generator, so the only place a host's
    query can be clocked is around ``MobileHost.query_knn``: the block
    wraps that one public method with a stopwatch that also keeps the
    answer for the checker (about 0.3 us on a call of 100 us or more),
    and that spins every 100 ms to sample the host's speed.
    """

    min_blocks = 2
    fresh_world_per_block = True
    rate_factor = 1.0
    simulated_s = 0.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self._builds = 0
        self._tiers = {tier: 0 for tier in ResolutionTier}

    def _config(self, area_factor: float, duration_s: float, seed: int) -> SimulationConfig:
        parameters = los_angeles_30x30().scaled_area(area_factor)
        parameters = dataclasses.replace(
            parameters, lambda_query=parameters.lambda_query * self.rate_factor
        )
        return SimulationConfig(
            parameters, seed=seed, t_execution_s=duration_s, use_service=True
        )

    def build(self) -> Simulation:
        # ``scale`` is split between the window's area (hosts, POIs and
        # query rate go with it) and the simulated time.
        side = math.sqrt(self.scale)
        config = self._config(
            0.2 * side, self.simulated_s * side, self.seed * 1000 + self._builds
        )
        self._builds += 1
        return Simulation(config)

    def warm_up(self, world: Simulation) -> None:
        Simulation(
            self._config(0.05, 0.15 * self.simulated_s * self.scale, self.seed)
        ).run()

    def run_block(self, world: Simulation, index: int) -> Block:
        log: List[Tuple[float, Point, Any]] = []
        spins: List[float] = []
        original = MobileHost.query_knn
        next_spin = _clock() + _SPIN_EVERY_S

        def clocked(host: MobileHost, *args: Any, **kwargs: Any) -> Any:
            nonlocal next_spin
            start = _clock()
            result = original(host, *args, **kwargs)
            end = _clock()
            log.append((end - start, host.position, result))
            if end >= next_spin:
                # A block lasts seconds; the host's speed is sampled as
                # it goes (the harness takes the spins' time off the wall).
                spins.append(spin())
                next_spin = _clock() + _SPIN_EVERY_S
            return result

        MobileHost.query_knn = clocked  # type: ignore[method-assign]
        try:
            begin = _clock()
            world.run()
            wall = _clock() - begin
        finally:
            MobileHost.query_knn = original  # type: ignore[method-assign]
        return Block(
            self._ops(world, len(log)),
            wall,
            [entry[0] for entry in log],
            attempted=len(log),
            answers=log,
            spins=spins,
        )

    def _ops(self, world: Simulation, queries: int) -> int:
        raise NotImplementedError

    def verify(self, world: Simulation, index: int, block: Block) -> int:
        metrics = world.metrics
        tiers = metrics.tier_counts
        wrong = 0
        if sum(tiers.values()) != metrics.total_queries:
            wrong += 1
        if metrics.total_queries + metrics.warmup_queries != len(block.answers):
            wrong += 1
        truth = KnnTruth(world.pois)
        k = world.config.parameters.lambda_knn
        positions = [position for _, position, _ in block.answers]
        wrong += truth.wrong_answers(
            positions,
            truth.table(positions, k),
            [result.neighbors for _, _, result in block.answers],
        )
        wrong += _wrong_caches(world, truth)
        if index < self.min_blocks:
            for tier, count in tiers.items():
                self._tiers[tier] += count
            # The server's history restarts at the simulator's own
            # end-of-warm-up reset, so it holds exactly the queries
            # ``mean_server_pages`` is taken over.
            self._tally(world.server.counter.history, metrics.server_query_count)
        return wrong

    def counts(self) -> Dict[str, float]:
        total = sum(self._tiers.values())
        return {
            "pages_per_query": self._pages / self._page_queries,
            "sqrr_server_share": self._tiers[ResolutionTier.SERVER] / total,
        }

    def extras(self) -> Dict[str, float]:
        total = max(1, sum(self._tiers.values()))
        return {
            **super().extras(),
            **{
                f"tier_share.{tier.value}": count / total
                for tier, count in self._tiers.items()
            },
        }


def _wrong_caches(world: Simulation, truth: KnnTruth) -> int:
    """Every host's final cached result against brute force, by size."""
    by_size: Dict[int, List[Any]] = {}
    for host in world.hosts:
        entry = host.cache_snapshot()
        if entry is not None and entry.neighbors:
            by_size.setdefault(len(entry.neighbors), []).append(entry)
    wrong = 0
    for size, entries in by_size.items():
        locations = [entry.query_location for entry in entries]
        wrong += truth.wrong_answers(
            locations,
            truth.table(locations, size),
            [entry.neighbors for entry in entries],
        )
    return wrong


class SimCruise(_SimWorkload):
    """The paper's query rate: mobility and grid upkeep dominate.

    One op is one simulated host-second.
    """

    name = "sim_cruise"
    simulated_s = 200.0

    def _ops(self, world: Simulation, queries: int) -> int:
        return round(len(world.hosts) * world.config.duration_s)


class SimRush(_SimWorkload):
    """Forty times the paper's query rate: the SENN pipeline dominates.

    One op is one SENN query.
    """

    name = "sim_rush"
    #: One long block (about 17 000 queries, 7 s): every fresh simulation
    #: plans 3 900 routes in its first tick, about 1.4 s that a shorter
    #: block would not let the queries outweigh.
    min_blocks = 1
    rate_factor = 40.0
    simulated_s = 80.0

    def _ops(self, world: Simulation, queries: int) -> int:
        return queries


# ----------------------------------------------------------------------
# snnn_network
# ----------------------------------------------------------------------
@dataclass
class _Roads:
    network: Any
    pois: List[Tuple[Any, str]]  # (NetworkLocation, payload)
    origins: List[Any]
    server: SpatialDatabaseServer
    truth: Optional[NetworkTruth] = None


class SnnnNetwork(Workload):
    """``snnn_query`` on the bundled 5 000-node extract, default path."""

    name = "snnn_network"
    k = 5

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # Short blocks (about 0.4 s): see ``KnnDirect``.
        self.block_ops = self._scaled(5)
        self.origin_count = self._scaled(100)
        # Every origin, however long that takes: at about ten queries a
        # second a time-bounded run would cover a different two thirds
        # of them each time, and p90 needs its ten samples beyond.
        self.min_blocks = self.origin_count // self.block_ops
        self._history_start = 0

    def build(self) -> _Roads:
        network = load_bundled_extract()
        edges = list(network.edges())
        rng = np.random.default_rng(self.seed)

        def on_edge() -> Any:
            edge = edges[int(rng.integers(len(edges)))]
            return network.location_at(edge, float(rng.uniform(0.0, edge.length)))

        pois = [(on_edge(), f"poi-{index}") for index in range(200)]
        origins = [on_edge() for _ in range(self.origin_count)]
        server = SpatialDatabaseServer.from_points(
            [(location.point, payload) for location, payload in pois]
        )
        return _Roads(network, pois, origins, server)

    def _query(self, world: _Roads, origin: Any) -> Any:
        return snnn_query(
            origin.point,
            self.k,
            world.network,
            None,
            [],
            SennConfig(k=self.k),
            server=world.server,
        )

    def warm_up(self, world: _Roads) -> None:
        for origin in world.origins[-3:]:
            self._query(world, origin)

    def _origins(self, world: _Roads, index: int) -> List[Any]:
        first = index * self.block_ops
        return [
            world.origins[(first + i) % len(world.origins)]
            for i in range(self.block_ops)
        ]

    def run_block(self, world: _Roads, index: int) -> Block:
        self._history_start = len(world.server.counter.history)
        latencies: List[float] = []
        answers = []
        begin = _clock()
        for origin in self._origins(world, index):
            start = _clock()
            answer = self._query(world, origin)
            latencies.append(_clock() - start)
            answers.append(answer)
        wall = _clock() - begin
        return Block(len(answers), wall, latencies, len(answers), answers=answers)

    def verify(self, world: _Roads, index: int, block: Block) -> int:
        if world.truth is None:
            world.truth = NetworkTruth(world.network, world.pois)
        if index < self.min_blocks:
            history = world.server.counter.history[self._history_start :]
            self._tally(history, len(block.answers))
        return sum(
            world.truth.is_wrong(origin, self.k, answer.neighbors)
            for origin, answer in zip(self._origins(world, index), block.answers)
        )


WORKLOADS = {
    cls.name: cls
    for cls in (KnnDirect, TcpSolo, TcpColocated, SimCruise, SimRush, SnnnNetwork)
}


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Instantiate workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed, scale)
