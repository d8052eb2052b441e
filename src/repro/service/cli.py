"""The ``repro-serve`` console script.

Two modes::

    repro-serve --pois 5000 --port 9042          # serve until Ctrl-C
    repro-serve --selftest --clients 8           # CI smoke mode

The self-test starts the asyncio server on an ephemeral port, drives N
concurrent TCP clients issuing co-located kNN queries, and verifies
every answer against a reference in-process server built from the same
POIs -- the answers must match bit for bit.  It exits non-zero on any
mismatch, which is what the CI job ``repro-serve (self-test)`` checks.
With ``--clients 1`` nothing can batch, so it also exits non-zero if an
answer reports a batch larger than one or the dispatcher held a wave.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.core.server import SpatialDatabaseServer
from repro.obs import OBS
from repro.service.asyncserver import (
    AsyncQueryServer,
    BackgroundServer,
    ServiceConfig,
)
from repro.service.client import ServiceClient
from repro.service.transport import TcpTransport

__all__ = ["build_pois", "main", "selftest"]


def build_pois(
    count: int, seed: int, extent: float
) -> List[Tuple[Point, str]]:
    """A seeded uniform POI set (the CLI's synthetic workload)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, extent, count)
    ys = rng.uniform(0.0, extent, count)
    return [
        (Point(float(x), float(y)), f"poi-{index}")
        for index, (x, y) in enumerate(zip(xs, ys))
    ]


def _build_server(args: argparse.Namespace) -> SpatialDatabaseServer:
    return SpatialDatabaseServer.from_points(
        build_pois(args.pois, args.seed, args.extent),
        buffer_capacity=args.buffer_capacity,
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        batch_cell_size=args.cell_size,
        batch_window_s=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        request_timeout_s=args.timeout_s,
    )


def _client_worker(
    host: str,
    port: int,
    queries: int,
    k: int,
    points: Sequence[Point],
) -> List[Tuple[int, Tuple[Tuple[float, float, object, float], ...], int]]:
    """Issue ``queries`` kNN requests; return comparable answer keys."""
    client = ServiceClient(TcpTransport(host, port))
    out = []
    try:
        for index in range(queries):
            point = points[index % len(points)]
            answer = client.knn_query_detailed(point, k)
            key = tuple(
                (n.point.x, n.point.y, n.payload, n.distance)
                for n in answer.neighbors
            )
            out.append((index % len(points), key, answer.batch_size))
    finally:
        client.close()
    return out


def _dispatch_counts() -> Tuple[int, int]:
    """Waves the dispatcher has sent ``(immediate, held)`` so far."""
    return (
        int(OBS.registry.value("service.dispatch", decision="immediate")),
        int(OBS.registry.value("service.dispatch", decision="held")),
    )


def selftest(args: argparse.Namespace) -> int:
    """Start a server, hammer it with concurrent clients, verify."""
    pois = build_pois(args.pois, args.seed, args.extent)
    served = SpatialDatabaseServer.from_points(
        pois, buffer_capacity=args.buffer_capacity
    )
    reference = SpatialDatabaseServer.from_points(
        pois, buffer_capacity=args.buffer_capacity
    )
    # Co-located query points: a tight cluster inside one batching cell,
    # so concurrent clients actually exercise the shared traversals.
    rng = np.random.default_rng(args.seed + 1)
    anchor = Point(args.extent / 2.0, args.extent / 2.0)
    points = [
        anchor.translated(
            float(rng.uniform(0.0, args.cell_size / 4.0)),
            float(rng.uniform(0.0, args.cell_size / 4.0)),
        )
        for _ in range(8)
    ]
    expected = {
        index: tuple(
            (n.point.x, n.point.y, n.payload, n.distance)
            for n in reference.knn_query(point, args.knn_k)
        )
        for index, point in enumerate(points)
    }

    mismatches = 0
    total = 0
    batch_sizes: List[int] = []
    immediate_before, held_before = _dispatch_counts()
    with BackgroundServer(served, _service_config(args)) as running:
        host, port = running.address
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            futures = [
                pool.submit(
                    _client_worker, host, port, args.queries, args.knn_k, points
                )
                for _ in range(args.clients)
            ]
            for future in futures:
                for point_index, key, batch_size in future.result():
                    total += 1
                    batch_sizes.append(batch_size)
                    # Bit-exactness is the whole point of the self-test:
                    # a served answer must equal the in-process answer
                    # down to the last float, not within tolerance.
                    if key != expected[point_index]:  # repro: noqa(RPR001)
                        mismatches += 1
    immediate, held = _dispatch_counts()
    immediate -= immediate_before
    held -= held_before
    mean_batch = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
    max_batch = max(batch_sizes, default=0)
    if not args.quiet:
        print(
            f"selftest: {total} queries over {args.clients} clients, "
            f"{mismatches} mismatches, mean batch size {mean_batch:.2f}, "
            f"max batch size {max_batch}, "
            f"waves {immediate} immediate / {held} held"
        )
    if mismatches:
        print(f"FAILED: {mismatches} answers differed from the reference")
        return 1
    # One client has one request in flight: nothing can share a
    # traversal, so nothing may wait for the batch window.
    if args.clients == 1 and (max_batch > 1 or held):
        print(
            f"FAILED: a lone client saw max batch size {max_batch} "
            f"and {held} held waves; expected 1 and 0"
        )
        return 1
    return 0


def _serve(args: argparse.Namespace) -> int:
    server = _build_server(args)

    async def run() -> None:
        running = AsyncQueryServer(server, _service_config(args))
        await running.start()
        host, port = running.address
        if not args.quiet:
            print(
                f"repro-serve: {server.poi_count} POIs on {host}:{port}"
            )
        await running.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        if not args.quiet:
            print("repro-serve: interrupted, shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve a spatial database over the query protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--pois", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--extent", type=float, default=10.0)
    parser.add_argument("--buffer-capacity", type=int, default=0)
    parser.add_argument("--cell-size", type=float, default=0.25)
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="the longest a wave with co-located requests waits for a "
        "connection that is not yet in it; a wave without cell-mates is "
        "not held",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-inflight", type=int, default=32)
    parser.add_argument("--timeout-s", type=float, default=30.0)
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="start a server, drive concurrent clients, verify answers",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--queries", type=int, default=25)
    parser.add_argument("--knn-k", type=int, default=5)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-serve``."""
    args = build_parser().parse_args(argv)
    if args.selftest:
        return selftest(args)
    return _serve(args)


if __name__ == "__main__":
    sys.exit(main())
