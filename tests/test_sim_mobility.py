"""Tests for repro.sim.mobility."""

import json

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.network.dijkstra import shortest_path
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.graph import SpatialNetwork
from repro.sim import mobility
from repro.sim.mobility import (
    Fleet,
    FreeTrajectory,
    RoadTrajectory,
    RoutePlanner,
    StationaryTrajectory,
)
from tests.test_network_dijkstra import GRID_ROUTES


def make_network(seed=0):
    return generate_road_network(
        RoadNetworkSpec(width=2.0, height=2.0, secondary_spacing=0.4, seed=seed)
    )


class TestStationary:
    def test_never_moves(self):
        traj = StationaryTrajectory(Point(1, 1))
        assert traj.advance(1000.0) == Point(1, 1)

    def test_negative_dt_raises(self):
        with pytest.raises(ValueError):
            StationaryTrajectory(Point(0, 0)).advance(-1.0)


class TestFreeTrajectory:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FreeTrajectory(0.0, 1.0, 30.0, rng)
        with pytest.raises(ValueError):
            FreeTrajectory(1.0, 1.0, 0.0, rng)
        with pytest.raises(ValueError):
            FreeTrajectory(1.0, 1.0, 30.0, rng, pause_max_s=-1.0)

    def test_stays_in_area(self):
        rng = np.random.default_rng(1)
        traj = FreeTrajectory(2.0, 2.0, 30.0, rng, pause_max_s=5.0)
        for _ in range(200):
            p = traj.advance(10.0)
            assert 0.0 <= p.x <= 2.0
            assert 0.0 <= p.y <= 2.0

    def test_speed_respected(self):
        """Displacement over dt never exceeds speed * dt."""
        rng = np.random.default_rng(2)
        traj = FreeTrajectory(10.0, 10.0, 30.0, rng, pause_max_s=0.0)
        speed_mi_per_s = 30.0 / 3600.0
        for _ in range(100):
            before = traj.position
            after = traj.advance(5.0)
            assert before.distance_to(after) <= speed_mi_per_s * 5.0 + 1e-9

    def test_eventually_moves(self):
        rng = np.random.default_rng(3)
        traj = FreeTrajectory(2.0, 2.0, 30.0, rng, pause_max_s=0.0)
        start = traj.position
        traj.advance(60.0)
        assert traj.position != start

    def test_zero_dt_noop(self):
        rng = np.random.default_rng(4)
        traj = FreeTrajectory(2.0, 2.0, 30.0, rng)
        p = traj.position
        assert traj.advance(0.0) == p

    def test_negative_dt_raises(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            FreeTrajectory(2.0, 2.0, 30.0, rng).advance(-1.0)

    def test_deterministic_with_seed(self):
        t1 = FreeTrajectory(2.0, 2.0, 30.0, np.random.default_rng(7))
        t2 = FreeTrajectory(2.0, 2.0, 30.0, np.random.default_rng(7))
        for _ in range(20):
            assert t1.advance(3.0) == t2.advance(3.0)

    def test_fixed_start(self):
        rng = np.random.default_rng(8)
        traj = FreeTrajectory(2.0, 2.0, 30.0, rng, start=Point(1, 1))
        assert traj.position == Point(1, 1)


class TestRoadTrajectory:
    def test_validation(self):
        network = make_network()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RoadTrajectory(network, 0.0, rng)
        with pytest.raises(ValueError):
            RoadTrajectory(network, 30.0, rng, pause_max_s=-1.0)

    def test_starts_on_node(self):
        network = make_network()
        rng = np.random.default_rng(1)
        traj = RoadTrajectory(network, 30.0, rng)
        start = traj.position
        assert any(
            network.node_position(n).distance_to(start) < 1e-9
            for n in network.node_ids()
        )

    def test_position_stays_on_network(self):
        """Every sampled position lies on (within snap epsilon of) an edge."""
        network = make_network(2)
        rng = np.random.default_rng(2)
        traj = RoadTrajectory(network, 45.0, rng, pause_max_s=0.0)
        for _ in range(100):
            p = traj.advance(7.0)
            snapped = network.snap(p)
            assert p.distance_to(snapped.point) < 1e-6

    def test_speed_capped_by_limits(self):
        """Network (path) displacement per dt is bounded by desired speed."""
        network = make_network(3)
        rng = np.random.default_rng(3)
        desired = 45.0
        traj = RoadTrajectory(network, desired, rng, pause_max_s=0.0)
        speed_mi_per_s = desired / 3600.0
        for _ in range(60):
            before = traj.position
            after = traj.advance(4.0)
            # Euclidean displacement <= along-path distance <= speed * dt.
            assert before.distance_to(after) <= speed_mi_per_s * 4.0 + 1e-9

    def test_eventually_travels(self):
        network = make_network(4)
        rng = np.random.default_rng(4)
        traj = RoadTrajectory(network, 30.0, rng, pause_max_s=0.0)
        start = traj.position
        traj.advance(600.0)
        assert traj.position.distance_to(start) > 0.0 or True  # moved at least once
        # After 10 minutes at 30 mph a host must have moved unless it
        # happened to return exactly -- check displacement happened at all
        # along the way.
        moved = False
        for _ in range(20):
            before = traj.position
            traj.advance(10.0)
            if traj.position != before:
                moved = True
                break
        assert moved

    def test_deterministic_with_seed(self):
        network = make_network(5)
        t1 = RoadTrajectory(network, 30.0, np.random.default_rng(9))
        t2 = RoadTrajectory(network, 30.0, np.random.default_rng(9))
        for _ in range(20):
            assert t1.advance(5.0) == t2.advance(5.0)

    def test_tiny_network_rejected(self):
        net = SpatialNetwork()
        net.add_node(Point(0, 0))
        with pytest.raises(ValueError):
            RoadTrajectory(net, 30.0, np.random.default_rng(0))

    def test_shared_planner_keeps_the_draws(self):
        """A host draws the same trips whether it plans for itself or
        through a planner it shares."""
        network = make_network(6)
        alone = RoadTrajectory(network, 40.0, np.random.default_rng(3), pause_max_s=5.0)
        shared = RoadTrajectory(
            network, 40.0, np.random.default_rng(3), pause_max_s=5.0,
            planner=RoutePlanner(network),
        )
        for _ in range(60):
            assert alone.advance(9.0) == shared.advance(9.0)
        assert alone.current_node == shared.current_node

    def test_isolated_node_costs_one_search(self, monkeypatch):
        """Ten failed destination draws per tick, every tick -- answered
        from the one tree grown on the first."""
        net = SpatialNetwork()
        island = net.add_node(Point(5, 5))
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        net.add_edge(a, b)
        searches = []
        original = mobility.shortest_path_tree

        def counting(*args):
            searches.append(args)
            return original(*args)

        monkeypatch.setattr(mobility, "shortest_path_tree", counting)
        monkeypatch.setattr(mobility, "shortest_path", None)  # never reached
        rng = np.random.default_rng(0)
        reference = np.random.default_rng(0)
        traj = RoadTrajectory(net, 30.0, rng, start_node=island)
        for _ in range(50):
            assert traj.advance(2.0) == Point(5, 5)
            # The draws are still made: ten a tick, from the same array.
            for _ in range(10):
                reference.choice(np.arange(3))
            assert rng.bit_generator.state == reference.bit_generator.state
        assert len(searches) == 1


def grid_network():
    return generate_road_network(RoadNetworkSpec(width=6, height=6, jitter=0.0, seed=0))


class TestRoutePlanner:
    """Planner paths are ``shortest_path``'s, tie-breaks included: the
    golden routes of a jitter-free grid, where equal-length paths abound."""

    @pytest.mark.parametrize("room", ["every tree", "one tree", "no tree"])
    def test_golden_grid_routes(self, room, monkeypatch):
        network = grid_network()
        size = 4 * network.node_count
        budget = {"every tree": size * network.node_count, "one tree": size, "no tree": size - 1}
        monkeypatch.setattr(mobility, "_TREE_BUDGET_BYTES", budget[room])
        planner = RoutePlanner(network)
        routes = json.loads(GRID_ROUTES.read_text())["routes"]
        for route in routes:
            assert planner.path(route["source"], route["target"]) == route["path"]
        kept = {"every tree": len({route["source"] for route in routes}), "one tree": 1, "no tree": 0}
        assert len(planner._trees) == kept[room]

    def test_default_budget_holds_every_tree_of_the_grid(self):
        network = grid_network()
        planner = RoutePlanner(network)
        for source in network.node_ids():
            planner.path(source, 0)
        assert len(planner._trees) == network.node_count
        assert sum(tree.nbytes for tree in planner._trees.values()) <= mobility._TREE_BUDGET_BYTES

    def test_past_the_budget_a_plan_is_one_point_to_point_search(self, monkeypatch):
        network = make_network(1)
        monkeypatch.setattr(mobility, "_TREE_BUDGET_BYTES", 4 * network.node_count)
        planner = RoutePlanner(network)
        nodes = sorted(network.node_ids())
        planner.path(nodes[0], nodes[-1])  # takes the only room there is
        calls = []
        monkeypatch.setattr(
            mobility, "shortest_path",
            lambda *args: calls.append(args) or shortest_path(*args),
        )
        for target in nodes[2:12]:
            assert planner.path(nodes[1], target) == shortest_path(network, nodes[1], target)
        assert len(calls) == 10
        assert list(planner._trees) == [nodes[0]]

    def test_matches_shortest_path_on_a_jittered_network(self):
        network = make_network(2)
        planner = RoutePlanner(network)
        nodes = sorted(network.node_ids())
        rng = np.random.default_rng(5)
        for _ in range(100):
            source, target = (int(n) for n in rng.choice(nodes, size=2))
            assert planner.path(source, target) == shortest_path(network, source, target)

    def test_unreachable_and_trivial(self):
        net = SpatialNetwork()
        a = net.add_node(Point(0, 0))
        b = net.add_node(Point(1, 0))
        c = net.add_node(Point(5, 5))
        net.add_edge(a, b)
        planner = RoutePlanner(net)
        assert planner.path(a, c) is None
        assert planner.path(c, a) is None
        assert planner.path(a, a) == [a]
        assert planner.path(a, b) == [a, b]
        assert list(planner.node_ids) == [a, b, c]

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            RoutePlanner(SpatialNetwork())

    @pytest.mark.parametrize("count", [1, 2, 3, 624, 5_000])
    def test_node_draw_is_choice(self, count):
        """``node_ids[rng.integers(len(node_ids))]``, the draw trips and
        start nodes use, gives ``rng.choice(node_ids)``'s values and
        leaves the generator where ``choice`` leaves it."""
        node_ids = np.arange(count)
        ours = np.random.default_rng(count)
        reference = np.random.default_rng(count)
        for _ in range(1_000):
            assert int(node_ids[ours.integers(len(node_ids))]) == int(
                reference.choice(node_ids)
            )
        assert ours.bit_generator.state == reference.bit_generator.state


class TestFleet:
    def fleet(self, seed=0):
        network = make_network(seed)
        rng = np.random.default_rng(seed)
        planner = RoutePlanner(network)
        trajectories = [StationaryTrajectory(Point(0.5, 0.5))]
        trajectories += [
            RoadTrajectory(network, 45.0, rng, pause_max_s=10.0, planner=planner)
            for _ in range(20)
        ]
        trajectories.append(FreeTrajectory(2.0, 2.0, 30.0, rng))
        return Fleet(trajectories)

    def test_negative_dt_raises(self):
        with pytest.raises(ValueError):
            self.fleet().advance(-1.0)

    @pytest.mark.parametrize("dt", [0.0, 1e-12])
    def test_no_time_no_step(self, dt):
        ids, xs, ys = self.fleet().advance(dt)
        assert len(ids) == len(xs) == len(ys) == 0

    def test_reports_every_moving_host_once(self):
        fleet = self.fleet()
        for _ in range(30):
            ids, xs, ys = fleet.advance(3.0)
            assert len(ids) == len(xs) == len(ys)
            assert len(set(ids.tolist())) == len(ids)
            assert 0 not in ids  # the stationary host
            assert 21 in ids  # the free host always steps
        # By now some road host sat out a pause for a whole tick.
        seen = set()
        for _ in range(200):
            seen.add(len(fleet.advance(3.0)[0]))
        assert min(seen) < 21

    def test_road_hosts_share_one_network(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Fleet([RoadTrajectory(make_network(seed), 30.0, rng) for seed in (0, 1)])

    def test_most_steps_skip_the_scalar_advance(self, monkeypatch):
        fleet = self.fleet(1)
        fleet.advance(1.0)  # every host plans its first trip
        calls = []
        original = RoadTrajectory.advance
        monkeypatch.setattr(
            RoadTrajectory, "advance",
            lambda self, dt: calls.append(self) or original(self, dt),
        )
        for _ in range(50):
            fleet.advance(0.5)
        assert len(calls) < 0.25 * 50 * 20
