"""Golden regression: whole simulation runs are pinned by digest.

A change to the mobility model, the peer grid or route planning that
claims "the same trajectories" has to produce the same queries from the
same hosts at the same places, and leave the generator where it was.
This suite runs three short simulations and compares a SHA-256 over

- every :class:`~repro.sim.trace.QueryEvent` of the run (warm-up
  included), floats by ``float.hex``;
- every host's final position;
- the final state of the simulation's one generator

against ``tests/golden/sim_digests.json``.  The snapshot was generated
from the per-host scalar loop (one ``advance`` + ``UniformGrid.update``
call per host per tick, one point-to-point Dijkstra per trip), before
the array pass and the route trees existed.  Regenerate (only when a
run's *inputs* change, never to paper over a drift) with::

    PYTHONPATH=src python tests/test_golden_sim_digests.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.sim.config import (
    MovementMode,
    SimulationConfig,
    los_angeles_2x2,
    los_angeles_30x30,
)
from repro.sim.simulation import Simulation

SNAPSHOT_PATH = Path(__file__).parent / "golden" / "sim_digests.json"

CONFIGS: Dict[str, SimulationConfig] = {
    "la_2x2_road": SimulationConfig(
        los_angeles_2x2(), seed=7, t_execution_s=900.0, record_trace=True
    ),
    # 1 215 hosts on a ~170-node network: many hosts per start node, a
    # grid of several hundred cells, and the service loopback the
    # benchmark's ``sim_*`` workloads use.
    "la_30x30_x0.1_road": SimulationConfig(
        los_angeles_30x30().scaled_area(0.1),
        seed=11,
        t_execution_s=240.0,
        record_trace=True,
        use_service=True,
    ),
    "la_2x2_free": SimulationConfig(
        los_angeles_2x2(),
        seed=7,
        t_execution_s=900.0,
        movement_mode=MovementMode.FREE,
        record_trace=True,
    ),
}


def sim_digest(config: SimulationConfig) -> Dict[str, object]:
    """Run ``config`` and digest its trace, final positions and generator."""
    simulation = Simulation(config)
    simulation.run()
    assert simulation.trace is not None
    digest = hashlib.sha256()
    for event in simulation.trace.events:
        digest.update(
            "|".join(
                (
                    event.timestamp.hex(),
                    str(event.host_id),
                    event.kind,
                    event.parameter.hex(),
                    event.tier.value,
                    str(event.server_pages),
                    str(event.peer_probes),
                    str(event.tuples_received),
                    event.latency_ms.hex(),
                )
            ).encode()
        )
        digest.update(b"\n")
    for host in simulation.hosts:
        digest.update(f"{host.position.x.hex()},{host.position.y.hex()}\n".encode())
    digest.update(
        json.dumps(simulation.rng.bit_generator.state, sort_keys=True).encode()
    )
    return {
        "queries": len(simulation.trace),
        "hosts": len(simulation.hosts),
        "sha256": digest.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulation_matches_pinned_digest(name):
    pinned = json.loads(SNAPSHOT_PATH.read_text())
    assert sim_digest(CONFIGS[name]) == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden_sim_digests.py --regen")
    SNAPSHOT_PATH.write_text(
        json.dumps({name: sim_digest(CONFIGS[name]) for name in sorted(CONFIGS)}, indent=2)
        + "\n"
    )
    print(f"wrote {SNAPSHOT_PATH}")
