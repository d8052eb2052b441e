"""Mobility models: random waypoint and road-network driving.

The paper's movement generator has two modes (Section 4.1):

- *free movement*: the random waypoint model [Broch et al. 1998] -- each
  host picks a uniform random destination inside the area, travels to it
  in a straight line at a fixed velocity, pauses for a random interval,
  and repeats;
- *road network*: hosts drive along the road graph towards random
  destination junctions; the travel speed on each segment is the host's
  desired velocity capped by the segment's speed limit.

Both models expose the same interface: :meth:`Trajectory.advance`
progresses simulated time and :attr:`Trajectory.position` reports the
current position.  Advancing is exact (it walks leg by leg), so the
simulator can use arbitrarily large time steps without drift.

A simulation does not call ``advance`` once per host per tick: a
:class:`Fleet` keeps every road host's current leg in arrays and moves,
in one numpy pass, the hosts for which the tick changes nothing but
their progress along an edge or the pause they sit out.  Only a host
that reaches a node, finishes a pause or has no route takes the scalar
``advance``, which stays the one place that chooses routes, draws
pauses and crosses nodes.  Trips are read from one shortest-path tree
per start node (:class:`RoutePlanner`) instead of one search per trip.

Units: distances in miles, speeds in miles per hour, time in seconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.network.dijkstra import shortest_path, shortest_path_tree
from repro.network.graph import SpatialNetwork

__all__ = [
    "Trajectory",
    "FreeTrajectory",
    "RoadTrajectory",
    "RoutePlanner",
    "Fleet",
]

_SECONDS_PER_HOUR = 3600.0

#: ``advance`` stops once no more simulated time than this is left.
_TIME_EPSILON_S = 1e-12

#: The bytes of shortest-path trees one :class:`RoutePlanner` keeps.
_TREE_BUDGET_BYTES = 32 * 1024 * 1024


class Trajectory(Protocol):
    """Common interface of all mobility models."""

    @property
    def position(self) -> Point:
        """Current position in plane coordinates (miles)."""
        ...

    def advance(self, dt_seconds: float) -> Point:
        """Progress ``dt_seconds`` of simulated time; returns the new position."""
        ...


class StationaryTrajectory:
    """A host that never moves (the non-moving share, ``M_Percentage``)."""

    def __init__(self, position: Point) -> None:
        self._position = position

    @property
    def position(self) -> Point:
        return self._position

    def advance(self, dt_seconds: float) -> Point:
        if dt_seconds < 0.0:
            raise ValueError("dt must be non-negative")
        return self._position


class FreeTrajectory:
    """Random waypoint movement in a rectangular area."""

    def __init__(
        self,
        width: float,
        height: float,
        speed_mph: float,
        rng: np.random.Generator,
        pause_max_s: float = 60.0,
        start: Optional[Point] = None,
    ) -> None:
        if width <= 0.0 or height <= 0.0:
            raise ValueError("area dimensions must be positive")
        if speed_mph <= 0.0:
            raise ValueError("speed must be positive")
        if pause_max_s < 0.0:
            raise ValueError("pause_max_s must be non-negative")
        self._width = width
        self._height = height
        self._speed_mi_per_s = speed_mph / _SECONDS_PER_HOUR
        self._pause_max_s = pause_max_s
        self._rng = rng
        self._position = start if start is not None else self._random_point()
        self._destination = self._random_point()
        self._pause_remaining = 0.0

    @property
    def position(self) -> Point:
        return self._position

    def _random_point(self) -> Point:
        return Point(
            float(self._rng.uniform(0.0, self._width)),
            float(self._rng.uniform(0.0, self._height)),
        )

    def advance(self, dt_seconds: float) -> Point:
        if dt_seconds < 0.0:
            raise ValueError("dt must be non-negative")
        remaining = dt_seconds
        while remaining > _TIME_EPSILON_S:
            if self._pause_remaining > 0.0:
                consumed = min(self._pause_remaining, remaining)
                self._pause_remaining -= consumed
                remaining -= consumed
                continue
            to_destination = self._position.distance_to(self._destination)
            travel_budget = self._speed_mi_per_s * remaining
            if travel_budget < to_destination:
                self._position = self._position.towards(
                    self._destination, travel_budget
                )
                remaining = 0.0
            else:
                self._position = self._destination
                if to_destination > 0.0:
                    remaining -= to_destination / self._speed_mi_per_s
                self._pause_remaining = float(
                    self._rng.uniform(0.0, self._pause_max_s)
                )
                self._destination = self._random_point()
        return self._position




class RoutePlanner:
    """Shortest paths for road hosts: one search per start node, not per trip.

    Trips start on nodes and a simulation has several hosts per node, so
    the planner runs :func:`~repro.network.dijkstra.shortest_path_tree`
    from a start node the first time a trip leaves it, keeps every
    node's predecessor as one ``int32`` array, and reads that trip and
    every later one from the same node back from the array.  The tree is
    the search :func:`~repro.network.dijkstra.shortest_path` runs, only
    to exhaustion, so the paths are the same
    (``tests/test_golden_route_trees.py`` pins every tree).

    Memory is bounded by :data:`_TREE_BUDGET_BYTES`, 32 MB: trees are
    kept while ``sources * node_count * 4`` bytes fit, which is every
    source of a network of up to ~2 900 nodes.  The largest window the
    repository simulates, 9 miles of the 30x30 county, has ~1 400 nodes
    (8 MB); the whole county, ~15 600 nodes, would take ~1 GB and gets
    its first ~540 sources.  Past the budget a trip from a source
    without a tree costs one point-to-point search, as every trip did
    before there were trees.

    One planner serves all the hosts of a simulation; it also owns the
    array destinations are drawn from.
    """

    def __init__(self, network: SpatialNetwork) -> None:
        if network.node_count == 0:
            raise ValueError("cannot plan routes on an empty network")
        self.network = network
        #: Every node id, ascending.  A node is drawn as
        #: ``node_ids[rng.integers(len(node_ids))]``: the value and the
        #: generator state ``rng.choice(node_ids)`` leaves, without the
        #: checks ``choice`` runs on every call.
        self.node_ids = np.array(sorted(network.node_ids()))
        self._tree_size = int(self.node_ids[-1]) + 1
        self._trees: Dict[int, np.ndarray] = {}
        self._max_trees = _TREE_BUDGET_BYTES // (4 * self._tree_size)

    def path(self, source: int, target: int) -> Optional[List[int]]:
        """Node sequence of a shortest path, or ``None`` when unreachable:
        what ``shortest_path(network, source, target)`` returns."""
        tree = self._trees.get(source)
        if tree is None:
            if len(self._trees) >= self._max_trees:
                return shortest_path(self.network, source, target)
            tree = self._trees[source] = self._grow(source)
        path = [target]
        while (previous := tree.item(path[-1])) >= 0:
            path.append(previous)
        if path[-1] != source:
            return None
        path.reverse()
        return path

    def _grow(self, source: int) -> np.ndarray:
        """Predecessor by node id; -1 for ``source`` and what it cannot reach."""
        return np.array(shortest_path_tree(self.network, source), dtype=np.int32)


class RoadTrajectory:
    """Driving along the road network between random destinations.

    The host starts at a random network node, plans a shortest path to a
    random destination node, and drives it edge by edge.  Its speed on
    each edge is ``min(desired_speed, edge speed limit)`` -- the paper's
    "each mobile host monitors the speed limit on the road that it is
    currently traveling on and adjusts its velocity accordingly".

    Hosts of one simulation share its ``planner``; a trajectory built
    without one plans for itself.
    """

    def __init__(
        self,
        network: SpatialNetwork,
        desired_speed_mph: float,
        rng: np.random.Generator,
        pause_max_s: float = 60.0,
        start_node: Optional[int] = None,
        planner: Optional[RoutePlanner] = None,
    ) -> None:
        if desired_speed_mph <= 0.0:
            raise ValueError("desired speed must be positive")
        if pause_max_s < 0.0:
            raise ValueError("pause_max_s must be non-negative")
        if network.node_count < 2:
            raise ValueError("road mobility needs a network with >= 2 nodes")
        self._network = network
        self._desired_mph = desired_speed_mph
        self._pause_max_s = pause_max_s
        self._rng = rng
        self._planner = planner if planner is not None else RoutePlanner(network)
        node_ids = self._planner.node_ids
        self._current_node = (
            start_node
            if start_node is not None
            else int(node_ids[rng.integers(len(node_ids))])
        )
        self._position = network.node_position(self._current_node)
        # Remaining node sequence to drive (excluding the current node).
        self._route: List[int] = []
        self._pause_remaining = 0.0
        # The edge to ``_route[0]``, the leg being driven: miles along
        # it, its length, the speed on it (miles per second), where it
        # starts and the vector to its end.  No route, no length.
        self._edge_progress = 0.0
        self._edge_length = 0.0
        self._edge_speed = 0.0
        self._edge_start = self._position
        self._edge_span = (0.0, 0.0)

    @property
    def position(self) -> Point:
        return self._position

    @property
    def current_node(self) -> int:
        """The node the host last departed from (or stands on)."""
        return self._current_node

    def _plan_route(self) -> None:
        """Pick a random reachable destination and plan the path to it."""
        node_ids = self._planner.node_ids
        for _ in range(10):
            destination = int(node_ids[self._rng.integers(len(node_ids))])
            if destination == self._current_node:
                continue
            path = self._planner.path(self._current_node, destination)
            if path is not None and len(path) > 1:
                self._route = path[1:]
                self._enter_leg()
                return
        # Isolated pocket (should not happen on generated networks): stay.
        self._route = []

    def _enter_leg(self) -> None:
        """Start on the edge from the current node to the route's next one."""
        next_node = self._route[0]
        edge = self._network.edge_between(self._current_node, next_node)
        assert edge is not None
        start = self._network.node_position(self._current_node)
        end = self._network.node_position(next_node)
        self._edge_progress = 0.0
        self._edge_length = edge.length
        self._edge_speed = (
            min(self._desired_mph, edge.speed_limit_mph) / _SECONDS_PER_HOUR
        )
        self._edge_start = start
        self._edge_span = (end.x - start.x, end.y - start.y)

    def advance(self, dt_seconds: float) -> Point:
        if dt_seconds < 0.0:
            raise ValueError("dt must be non-negative")
        remaining = dt_seconds
        while remaining > _TIME_EPSILON_S:
            if self._pause_remaining > 0.0:
                consumed = min(self._pause_remaining, remaining)
                self._pause_remaining -= consumed
                remaining -= consumed
                continue
            if not self._route:
                self._plan_route()
                if not self._route:
                    break
            edge_left = self._edge_length - self._edge_progress
            travel_budget = self._edge_speed * remaining
            if travel_budget < edge_left:
                self._edge_progress += travel_budget
                remaining = 0.0
            else:
                remaining -= edge_left / self._edge_speed
                self._current_node = self._route.pop(0)
                if self._route:
                    self._enter_leg()
                else:
                    # Arrived at the destination: pause, then re-plan lazily.
                    self._edge_length = self._edge_progress = 0.0
                    self._pause_remaining = float(
                        self._rng.uniform(0.0, self._pause_max_s)
                    )
        self._position = self._locate()
        return self._position

    def _locate(self) -> Point:
        """Where the current node, route and progress put the host."""
        if not self._route:
            return self._network.node_position(self._current_node)
        fraction = self._edge_progress / self._edge_length
        start = self._edge_start
        span_x, span_y = self._edge_span
        return Point(start.x + span_x * fraction, start.y + span_y * fraction)

    # -- what a Fleet keeps in arrays between two scalar steps ----------
    def _leg(self) -> Tuple[float, ...]:
        """One column of :attr:`Fleet._legs`, rows in :data:`_LEG_ROWS` order."""
        return (
            self._edge_progress,
            self._edge_length,
            self._edge_speed,
            self._edge_start.x,
            self._edge_start.y,
            *self._edge_span,
            self._pause_remaining,
        )

    def _resume(self, edge_progress: float, pause_remaining: float) -> None:
        """Take back the two values a fleet's array pass moves."""
        self._edge_progress = edge_progress
        self._pause_remaining = pause_remaining


#: Rows of :attr:`Fleet._legs`; :meth:`RoadTrajectory._leg` fills a column.
_LEG_ROWS = (
    "progress", "length", "speed", "start_x", "start_y", "span_x", "span_y", "pause",
)


class Fleet:
    """Every trajectory of a simulation, advanced together.

    Most ticks change nothing about most road hosts but how far along
    their edge they are, or how much of their pause is left.  The fleet
    keeps those hosts' legs as arrays -- a column per host, the rows of
    :data:`_LEG_ROWS` -- and moves them in one numpy pass with the
    operations :meth:`RoadTrajectory.advance` performs, in its order
    (``progress += speed * dt``, ``start + span * (progress / length)``:
    element-wise float64, so the same floats).  A host that would reach
    a node or finish its pause inside the tick, or that has no route,
    takes the scalar ``advance`` instead, and so does every host that is
    not a :class:`RoadTrajectory` -- ``Point.towards`` goes through
    ``math.hypot``, which ``numpy.hypot`` does not reproduce to the last
    bit.  Scalar steps run in ascending host order, because hosts may
    share one generator.  A :class:`StationaryTrajectory` is never
    advanced at all.

    The fleet owns its trajectories from then on: between its scalar
    steps their own ``position`` is not kept current, :meth:`advance`
    reports where hosts are.
    """

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        self._trajectories = list(trajectories)
        self._legs = np.zeros((len(_LEG_ROWS), len(self._trajectories)))
        self._stationary = np.array(
            [isinstance(t, StationaryTrajectory) for t in self._trajectories],
            dtype=bool,
        )
        for host_id, trajectory in enumerate(self._trajectories):
            if isinstance(trajectory, RoadTrajectory):
                self._legs[:, host_id] = trajectory._leg()

    def advance(
        self, dt_seconds: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Progress ``dt_seconds`` of simulated time.

        Returns ``(ids, xs, ys)``: the hosts that took a step, in no
        particular order, and where each of them is now.
        """
        if dt_seconds < 0.0:
            raise ValueError("dt must be non-negative")
        if dt_seconds <= _TIME_EPSILON_S:
            return np.empty(0, dtype=np.intp), np.empty(0), np.empty(0)
        progress, length, speed, start_x, start_y, span_x, span_y, pause = self._legs
        # A host on a leg of length 0 -- no route, or no road host -- is
        # never ``driving``: its budget is not below 0.
        pausing = pause >= dt_seconds
        budget = speed * dt_seconds
        driving = (pause <= 0.0) & (budget < length - progress)
        np.subtract(pause, dt_seconds, out=pause, where=pausing)
        np.add(progress, budget, out=progress, where=driving)
        drivers = np.flatnonzero(driving)
        fraction = progress[drivers] / length[drivers]
        xs = start_x[drivers] + span_x[drivers] * fraction
        ys = start_y[drivers] + span_y[drivers] * fraction

        steppers = np.flatnonzero(~(pausing | driving | self._stationary))
        stepped_xs = np.empty(len(steppers))
        stepped_ys = np.empty(len(steppers))
        for slot, host_id in enumerate(steppers.tolist()):
            trajectory = self._trajectories[host_id]
            if isinstance(trajectory, RoadTrajectory):
                trajectory._resume(progress.item(host_id), pause.item(host_id))
                position = trajectory.advance(dt_seconds)
                self._legs[:, host_id] = trajectory._leg()
            else:
                position = trajectory.advance(dt_seconds)
            stepped_xs[slot] = position.x
            stepped_ys[slot] = position.y
        return (
            np.concatenate((drivers, steppers)),
            np.concatenate((xs, stepped_xs)),
            np.concatenate((ys, stepped_ys)),
        )
