"""One run of one workload: set-up, warm-up, timed blocks, checks."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Tuple

from bench_e2e.hostspeed import HostSpeed
from bench_e2e.stats import percentile
from bench_e2e.workloads import Workload

__all__ = ["Measurement", "measure", "SETUP_SAMPLES"]

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

_clock = time.perf_counter


@dataclass
class Measurement:
    """Everything one run measured, before it is shaped into metrics."""

    ops: int = 0
    timed_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: (ops, wall seconds, latency samples) of each block, in order.
    block_log: List[Tuple[int, float, int]] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    setups_s: List[float] = field(default_factory=list)
    #: The same three as the host saw them, before the speed correction.
    raw_wall_s: float = 0.0
    raw_latencies_s: List[float] = field(default_factory=list)
    raw_setups_s: List[float] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        """Timed-phase ops over timed-phase wall."""
        return self.ops / self.timed_wall_s

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        """The gated metrics, in ``BENCHMARK.json`` order."""
        latencies_ms = [value * 1e3 for value in self.latencies_s]
        return {
            "setup_s": {"value": statistics.median(self.setups_s), "unit": "s"},
            "ops_per_s": {"value": self.ops_per_s, "unit": "op/s"},
            "p50_ms": {"value": percentile(latencies_ms, 50), "unit": "ms"},
            "p90_ms": {"value": percentile(latencies_ms, 90), "unit": "ms"},
            "pages_per_query": {
                "value": self.counts["pages_per_query"],
                "unit": "pages",
            },
            "sqrr_server_share": {
                "value": self.counts["sqrr_server_share"],
                "unit": "fraction",
            },
            "peak_rss_mb": {"value": self.peak_rss_mb, "unit": "MB"},
        }

    def detail(self) -> Dict[str, Any]:
        """Printed-only numbers: sample counts, p99, raw set-ups, extras."""
        latencies_ms = [value * 1e3 for value in self.latencies_s]
        raw_ms = [value * 1e3 for value in self.raw_latencies_s]
        return {
            "raw_ops_per_s": self.ops / self.raw_wall_s,
            "raw_p50_ms": percentile(raw_ms, 50),
            "raw_p90_ms": percentile(raw_ms, 90),
            "raw_setup_s": statistics.median(self.raw_setups_s),
            "host_slowdown": statistics.median(self.slowdowns),
            "ops": self.ops,
            "blocks": len(self.block_log),
            "timed_wall_s": self.timed_wall_s,
            "latency_samples": len(latencies_ms),
            "p99_ms": percentile(latencies_ms, 99),
            "setups_s": self.setups_s,
            **self.extras,
        }


def measure(
    workload: Workload,
    seconds: float,
    around_block: Callable[[int], ContextManager[Any]] = lambda index: nullcontext(),
    setup_samples: int = SETUP_SAMPLES,
) -> Measurement:
    """Run ``workload`` for ``seconds`` of timed wall (at least ``min_blocks``).

    ``around_block`` lets the traced pass wrap each block in a context
    manager (its patches and root span).
    Set-up is repeated after the timed phase until ``setup_samples``
    set-ups have been timed.
    """
    out = Measurement()
    host = HostSpeed()

    def build() -> Any:
        host.mark()
        busy = workload.busy_s(None)
        start = _clock()
        world = workload.build()
        elapsed = _clock() - start
        busy = workload.busy_s(world) - busy
        out.raw_setups_s.append(elapsed)
        out.setups_s.append(elapsed * host.factor(elapsed, busy, []))
        return world

    world = build()
    try:
        workload.warm_up(world)
        index = 0
        # Stop at the block count whose wall is nearest to ``seconds``.
        while (
            index < workload.min_blocks
            or out.raw_wall_s * (1.0 + 0.5 / index) < seconds
        ):
            if index and workload.fresh_world_per_block:
                workload.release(world)
                world = None
                gc.collect()  # a simulation is 4 860 hosts of cyclic garbage
                world = build()
            host.mark()
            busy = workload.busy_s(world)
            with around_block(index):
                block = workload.run_block(world, index)
            spun = sum(block.spins)
            busy = workload.busy_s(world) - busy - spun
            wall = block.wall_s - spun
            factor = host.factor(wall, busy, block.spins)
            out.ops += block.ops
            out.raw_wall_s += wall
            out.raw_latencies_s.extend(block.latencies_s)
            out.timed_wall_s += wall * factor
            out.latencies_s.extend(value * factor for value in block.latencies_s)
            out.block_log.append((block.ops, wall * factor, len(block.latencies_s)))
            out.attempted += block.attempted
            if index == 0:
                # After a fixed amount of work, so a faster program is
                # not charged for the extra history it accumulates, and
                # before anything is checked, so the checker's tables
                # do not count towards the product's memory.
                out.peak_rss_mb = workload.peak_rss_mb(world)
            out.failed += block.failed + workload.verify(world, index, block)
            index += 1
        out.counts = workload.counts()
        out.extras = workload.extras()
    finally:
        if world is not None:
            workload.release(world)
            world = None
            gc.collect()
    while len(out.setups_s) < setup_samples:
        workload.release(build())
        gc.collect()
    out.slowdowns = host.samples
    return out
