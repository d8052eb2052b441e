"""The fleet's array pass against the per-host loop it replaced.

``Simulation._advance_hosts`` used to call ``trajectory.advance`` and
``UniformGrid.update`` once per host per tick.  It now hands the tick to
:class:`~repro.sim.mobility.Fleet` (one numpy pass for the hosts that
stay on their route, node crossings included, or in their pause; the
scalar ``advance`` for arrivals, pause ends and planning) and files the
result with ``UniformGrid.move_many``.  The claim is not "close": it is
the same floats, the same peers in the same order and the same draws
from the generator.  :class:`ScalarSimulation` below *is* the old loop,
kept as the reference; both are driven from one seed and compared after
every tick with ``==``, no tolerance.

Ticks of 0.5 s and 2 s leave most hosts inside their edge; 7.3 s takes
them across several nodes and ends pauses mid-tick; 300 s holds a whole
trip, its pause and the next plan inside one tick.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.sim.config import MovementMode, SimulationConfig, los_angeles_2x2
from repro.sim.grid import UniformGrid
from repro.sim.mobility import RoadTrajectory, RoutePlanner
from repro.sim.simulation import Simulation

PARAMETERS = los_angeles_2x2()

#: Ticks driven per tick length: half a minute at least, and few enough of
#: the long ones that the reference loop stays affordable.
STEPS = {0.5: 60, 2.0: 40, 7.3: 30, 300.0: 5}


class ScalarSimulation(Simulation):
    """A simulation that moves its hosts with the per-host loop."""

    def __init__(self, config: SimulationConfig) -> None:
        super().__init__(config)
        # The fleet never advances here, so its trajectories stay ours.
        self._trajectories = self.fleet._trajectories
        self.grid = UniformGrid(self.grid.cell_size)
        for host in self.hosts:
            self.grid.insert(host.host_id, host.position)

    def _advance_hosts(self, dt: float) -> None:
        if dt <= 0.0:
            return
        for host, trajectory in zip(self.hosts, self._trajectories):
            new_position = trajectory.advance(dt)
            if new_position != host.position:
                host.position = new_position
                self.grid.update(host.host_id, new_position)


def positions(simulation: Simulation):
    return [simulation.grid.position_of(host.host_id) for host in simulation.hosts]


@pytest.mark.parametrize("tick", sorted(STEPS))
@pytest.mark.parametrize("mode", list(MovementMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("seed", range(5))
def test_fleet_is_the_scalar_loop(seed, mode, tick):
    config = SimulationConfig(
        PARAMETERS, seed=seed, movement_mode=mode, movement_tick_s=tick,
        pause_max_s=20.0,
    )
    fleet, scalar = Simulation(config), ScalarSimulation(config)
    radius = PARAMETERS.tx_range_miles
    centres = [
        Point(float(x), float(y))
        for x, y in np.random.default_rng(seed).uniform(
            0.0, PARAMETERS.area_miles, size=(50, 2)
        )
    ]
    now = 0.0
    moved = 0
    for _ in range(STEPS[tick]):
        before = positions(fleet)
        fleet._advance_hosts(tick)
        scalar._advance_hosts(tick)
        now += tick
        after = positions(fleet)
        assert after == positions(scalar)
        moved += sum(a != b for a, b in zip(before, after))
        for centre in centres:
            # Lists, not sets: SENN polls peers in this order.
            assert fleet.grid.within_range(centre, radius) == scalar.grid.within_range(
                centre, radius
            )
        for _ in range(3):
            fleet._issue_query(record=True, timestamp=now)
            scalar._issue_query(record=True, timestamp=now)
    assert moved > len(fleet.hosts)  # something was compared
    assert fleet.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert [host.cache_snapshot() for host in fleet.hosts] == [
        host.cache_snapshot() for host in scalar.hosts
    ]
    assert fleet.metrics.tier_counts == scalar.metrics.tier_counts


@pytest.mark.parametrize("mode", list(MovementMode), ids=lambda mode: mode.value)
def test_run_matches_scalar_loop_with_a_partial_last_tick(mode):
    """``run()`` end to end: 100 s in ticks of 7.3 s leaves 5.1 s for the
    last one, and every ``MobileHost.position`` is current on return."""
    config = SimulationConfig(
        PARAMETERS, seed=3, movement_mode=mode, movement_tick_s=7.3,
        t_execution_s=100.0, warmup_fraction=0.0, record_trace=True,
    )
    fleet, scalar = Simulation(config), ScalarSimulation(config)
    assert fleet.run().tier_counts == scalar.run().tier_counts
    assert fleet.trace.events == scalar.trace.events
    assert [host.position for host in fleet.hosts] == positions(scalar)
    assert fleet.rng.bit_generator.state == scalar.rng.bit_generator.state


def test_route_store_drops_driven_prefixes(monkeypatch):
    """An hour of road mode with short pauses plans thousands of trips:
    the fleet's flat route store keeps at most twice the nodes of the
    paths its hosts hold, and the compactions that keep it there move no
    host off the per-host loop's track."""
    planned = []
    original = RoutePlanner.path

    def counting(planner, source, target):
        path = original(planner, source, target)
        planned.append(len(path or ()))
        return path

    monkeypatch.setattr(RoutePlanner, "path", counting)
    config = SimulationConfig(
        PARAMETERS, seed=4, movement_mode=MovementMode.ROAD_NETWORK, pause_max_s=5.0
    )
    fleet, scalar = Simulation(config), ScalarSimulation(config)
    roads = [t for t in fleet.fleet._trajectories if isinstance(t, RoadTrajectory)]
    tick = config.movement_tick_s
    most = 0
    for step in range(round(3_600.0 / tick)):
        fleet._advance_hosts(tick)
        scalar._advance_hosts(tick)
        live = sum(len(trajectory._path) for trajectory in roads)
        assert fleet.fleet._live == live
        assert fleet.fleet._used <= 2 * live
        most = max(most, live)
        if step % 100 == 0:
            assert positions(fleet) == positions(scalar)
    assert positions(fleet) == positions(scalar)
    # Its array never outgrew the paths held, though the hour planned
    # several times what fits in it.
    assert len(fleet.fleet._route_nodes) <= 4 * most
    assert sum(planned) > 4 * len(fleet.fleet._route_nodes)
