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
:class:`Fleet` keeps every road host's current leg and planned path in
arrays and moves, in one numpy pass, the hosts that stay on their route
or sit out their pause -- crossing the route's nodes too.  Only a host
that arrives at its destination, finishes a pause or has no route takes
the scalar ``advance``, which stays the one place that chooses routes
and draws pauses, and the reference the pass is tested against.  Trips
are read from one shortest-path tree per start node
(:class:`RoutePlanner`) instead of one search per trip.

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
        what ``shortest_path(network, source, target)`` returns.

        The list is new on every call: a trajectory keeps it whole as its
        trip, and a :class:`Fleet` copies it once into its route store.
        """
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
        start = (
            start_node
            if start_node is not None
            else int(node_ids[rng.integers(len(node_ids))])
        )
        self._position = network.node_position(start)
        # The trip's node sequence as planned, and the index in it of the
        # node the current leg drives to: the host stands on or last left
        # ``_path[_next - 1]`` and has no route once ``_next`` is past the
        # end.  A fleet copies the path once and moves ``_next`` itself.
        self._path: List[int] = [start]
        self._next = 1
        self._pause_remaining = 0.0
        # The edge to ``_path[_next]``, the leg being driven: miles along
        # it, its length, the speed on it (miles per second), where it
        # starts and the vector to its end.  No route, no length.
        self._edge_progress = 0.0
        self._edge_length = 0.0
        self._edge_speed = 0.0
        self._edge_start = (self._position.x, self._position.y)
        self._edge_span = (0.0, 0.0)

    @property
    def position(self) -> Point:
        return self._position

    @property
    def current_node(self) -> int:
        """The node the host last departed from (or stands on)."""
        return self._path[self._next - 1]

    def _plan_route(self) -> None:
        """Pick a random reachable destination and plan the path to it."""
        node_ids = self._planner.node_ids
        here = self.current_node
        for _ in range(10):
            destination = int(node_ids[self._rng.integers(len(node_ids))])
            if destination == here:
                continue
            path = self._planner.path(here, destination)
            if path is not None and len(path) > 1:
                self._path = path
                self._next = 1
                self._enter_leg()
                return
        # Isolated pocket (should not happen on generated networks): stay.

    def _enter_leg(self) -> None:
        """Start on the edge from the current node to the route's next one."""
        here, there = self._path[self._next - 1], self._path[self._next]
        edge = self._network.edge_between(here, there)
        assert edge is not None
        start = self._network.node_position(here)
        end = self._network.node_position(there)
        self._edge_progress = 0.0
        self._edge_length = edge.length
        self._edge_speed = (
            min(self._desired_mph, edge.speed_limit_mph) / _SECONDS_PER_HOUR
        )
        self._edge_start = (start.x, start.y)
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
            if self._next == len(self._path):
                self._plan_route()
                if self._next == len(self._path):
                    break
            edge_left = self._edge_length - self._edge_progress
            travel_budget = self._edge_speed * remaining
            if travel_budget < edge_left:
                self._edge_progress += travel_budget
                remaining = 0.0
            else:
                remaining -= edge_left / self._edge_speed
                self._next += 1
                if self._next < len(self._path):
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
        if self._next == len(self._path):
            return self._network.node_position(self.current_node)
        fraction = self._edge_progress / self._edge_length
        start_x, start_y = self._edge_start
        span_x, span_y = self._edge_span
        return Point(start_x + span_x * fraction, start_y + span_y * fraction)

    # -- what a Fleet keeps in arrays between two scalar steps ----------
    def _leg(self) -> Tuple[float, ...]:
        """One column of :attr:`Fleet._legs`, rows in :data:`_LEG_ROWS` order."""
        return (
            self._edge_progress,
            self._edge_length,
            self._edge_speed,
            *self._edge_start,
            *self._edge_span,
            self._pause_remaining,
        )

    def _resume(self, leg: Sequence[float], next_index: int) -> None:
        """Take back what a fleet's array pass moved: a column of
        :attr:`Fleet._legs` and the index of the leg's end node."""
        (
            self._edge_progress,
            self._edge_length,
            self._edge_speed,
            start_x,
            start_y,
            span_x,
            span_y,
            self._pause_remaining,
        ) = leg
        self._edge_start = (start_x, start_y)
        self._edge_span = (span_x, span_y)
        self._next = next_index


#: Rows of :attr:`Fleet._legs`; :meth:`RoadTrajectory._leg` fills a column.
_LEG_ROWS = (
    "progress", "length", "speed", "start_x", "start_y", "span_x", "span_y", "pause",
)


class _DirectedEdges:
    """Every edge of a network in both directions, as arrays.

    Edge ``u -> v`` sits at ``np.searchsorted(keys, u * stride + v)``
    and carries what :meth:`RoadTrajectory._enter_leg` reads for it: the
    length, the speed limit, ``u``'s position and the vector to ``v``.
    """

    __slots__ = (
        "stride", "keys", "length", "limit", "start_x", "start_y", "span_x", "span_y",
    )

    def __init__(self, network: SpatialNetwork) -> None:
        self.stride = max(network.node_ids()) + 1
        xs, ys = np.zeros(self.stride), np.zeros(self.stride)
        for node in network.node_ids():
            position = network.node_position(node)
            xs[node], ys[node] = position.x, position.y
        edges = list(network.edges())
        u = np.array([edge.u for edge in edges], dtype=np.intp)
        v = np.array([edge.v for edge in edges], dtype=np.intp)
        here, there = np.concatenate((u, v)), np.concatenate((v, u))
        keys = here * self.stride + there
        order = np.argsort(keys)
        here, there = here[order], there[order]
        self.keys = keys[order]
        self.length = np.tile([edge.length for edge in edges], 2)[order]
        self.limit = np.tile([edge.speed_limit_mph for edge in edges], 2)[order]
        self.start_x, self.start_y = xs[here], ys[here]
        self.span_x, self.span_y = xs[there] - xs[here], ys[there] - ys[here]

    def find(self, here: np.ndarray, there: np.ndarray) -> np.ndarray:
        """The slots of the edges ``here[i] -> there[i]``."""
        return np.searchsorted(self.keys, here * self.stride + there)


class Fleet:
    """Every trajectory of a simulation, advanced together.

    Most ticks change nothing about most road hosts but how far along
    their route they are, or how much of their pause is left.  The fleet
    keeps those hosts' legs as arrays -- a column per host, the rows of
    :data:`_LEG_ROWS` -- and their planned paths as node ids in one flat
    store with a cursor per host, and moves them in one numpy pass with
    the operations :meth:`RoadTrajectory.advance` performs, in its order
    (``progress += speed * dt``, ``remaining -= edge_left / speed``,
    ``min(desired_mph, limit) / 3600.0``, ``start + span * (progress /
    length)``: element-wise float64, so the same floats).  That pass
    crosses nodes: it loops over the shrinking set of hosts with time
    left, loading each one's next leg from per-directed-edge arrays, until
    every host stops inside a leg.  A host that would arrive at its
    destination or finish its pause inside the tick, or that has no
    route, takes the scalar ``advance`` for the time it has left instead,
    and so does every host that is not a :class:`RoadTrajectory` --
    ``Point.towards`` goes through ``math.hypot``, which ``numpy.hypot``
    does not reproduce to the last bit.  Scalar steps run in ascending
    host order, because hosts may share one generator; the pass draws
    nothing.  A :class:`StationaryTrajectory` is never advanced at all.

    The store only grows by the paths the scalar steps plan; once it
    would hold more than twice the nodes of all live paths, the driven
    prefixes are dropped.

    The fleet owns its trajectories from then on: between its scalar
    steps their own ``position`` (and how far along their path they are)
    is not kept current, :meth:`advance` reports where hosts are.
    """

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        self._trajectories = list(trajectories)
        count = len(self._trajectories)
        self._stationary = np.zeros(count, dtype=bool)
        self._desired_mph = np.zeros(count)
        # The path objects in the store, by host.
        self._paths: List[Optional[List[int]]] = [None] * count
        road_ids, desired, legs, nexts, sizes, nodes = [], [], [], [], [], []
        networks = set()
        for host_id, trajectory in enumerate(self._trajectories):
            if isinstance(trajectory, RoadTrajectory):
                road_ids.append(host_id)
                desired.append(trajectory._desired_mph)
                legs.append(trajectory._leg())
                path = self._paths[host_id] = trajectory._path
                nexts.append(trajectory._next)
                sizes.append(len(path))
                nodes.extend(path)
                networks.add(trajectory._network)
            elif isinstance(trajectory, StationaryTrajectory):
                self._stationary[host_id] = True
        if len(networks) > 1:
            raise ValueError("the road hosts of a fleet must share one network")
        self._edges = _DirectedEdges(*networks) if networks else None
        self._road_ids = np.array(road_ids, dtype=np.intp)
        self._desired_mph[self._road_ids] = desired
        self._legs = np.zeros((len(_LEG_ROWS), count))
        self._legs[:, self._road_ids] = np.array(legs).reshape(-1, len(_LEG_ROWS)).T
        # Host ``h``'s path is ``_route_nodes[_base[h]:_end[h]]`` and its
        # leg drives to ``_route_nodes[_cursor[h]]``: ``_cursor - _base``
        # is the trajectory's ``_next``.  ``_used`` entries of the store
        # are taken; the paths add up to ``_live`` nodes.
        sizes = np.array(sizes, dtype=np.intp)
        self._end = np.zeros(count, dtype=np.intp)
        self._end[self._road_ids] = sizes
        np.cumsum(self._end, out=self._end)
        self._base = self._end.copy()
        self._base[self._road_ids] -= sizes
        self._cursor = self._base.copy()
        self._cursor[self._road_ids] += np.array(nexts, dtype=np.intp)
        self._used = self._live = len(nodes)
        self._route_nodes = np.array(nodes, dtype=np.intp)

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
        # neither ``driving`` (its budget is not below 0) nor ``crossing``.
        pausing = pause >= dt_seconds
        free = pause <= 0.0
        budget = speed * dt_seconds
        edge_left = length - progress
        driving = free & (budget < edge_left)
        crossing = free & ~driving & (length > 0.0)
        np.subtract(pause, dt_seconds, out=pause, where=pausing)
        np.add(progress, budget, out=progress, where=driving)
        on_leg = [np.flatnonzero(driving)]
        stepping = [np.flatnonzero(~(pausing | driving | crossing | self._stationary))]
        time_left = [np.full(len(stepping[0]), dt_seconds)]

        # Hosts at the end of a leg they will not stop on, and the time
        # they have left when they start to cross it.
        hosts = np.flatnonzero(crossing)
        remaining = np.full(len(hosts), dt_seconds)
        while len(hosts):
            arriving = self._cursor[hosts] + 1 >= self._end[hosts]
            stepping.append(hosts[arriving])
            time_left.append(remaining[arriving])
            hosts, remaining = hosts[~arriving], remaining[~arriving]
            remaining = remaining - (length[hosts] - progress[hosts]) / speed[hosts]
            cursor = self._cursor[hosts] + 1
            self._cursor[hosts] = cursor
            edges = self._edges.find(
                self._route_nodes[cursor - 1], self._route_nodes[cursor]
            )
            leg_length = self._edges.length[edges]
            leg_speed = (
                np.minimum(self._desired_mph[hosts], self._edges.limit[edges])
                / _SECONDS_PER_HOUR
            )
            length[hosts] = leg_length
            speed[hosts] = leg_speed
            start_x[hosts] = self._edges.start_x[edges]
            start_y[hosts] = self._edges.start_y[edges]
            span_x[hosts] = self._edges.span_x[edges]
            span_y[hosts] = self._edges.span_y[edges]
            # ``advance``'s loop on the new leg: out of time, it stops at
            # its start; else it drives ``0.0 + budget`` into it, or on.
            going = remaining > _TIME_EPSILON_S
            leg_budget = leg_speed * remaining
            stays = going & (leg_budget < leg_length)
            progress[hosts] = np.where(stays, leg_budget, 0.0)
            on_leg.append(hosts[~going | stays])
            again = going & ~stays
            hosts, remaining = hosts[again], remaining[again]

        drivers = np.concatenate(on_leg)
        fraction = progress[drivers] / length[drivers]
        xs = start_x[drivers] + span_x[drivers] * fraction
        ys = start_y[drivers] + span_y[drivers] * fraction

        steppers = np.concatenate(stepping)
        order = np.argsort(steppers)
        steppers = steppers[order]
        stepped_xs = np.empty(len(steppers))
        stepped_ys = np.empty(len(steppers))
        for slot, (host_id, left) in enumerate(
            zip(steppers.tolist(), np.concatenate(time_left)[order].tolist())
        ):
            trajectory = self._trajectories[host_id]
            if isinstance(trajectory, RoadTrajectory):
                trajectory._resume(
                    self._legs[:, host_id].tolist(),
                    int(self._cursor[host_id] - self._base[host_id]),
                )
                position = trajectory.advance(left)
                self._take_back(host_id, trajectory)
            else:
                position = trajectory.advance(left)
            stepped_xs[slot] = position.x
            stepped_ys[slot] = position.y
        return (
            np.concatenate((drivers, steppers)),
            np.concatenate((xs, stepped_xs)),
            np.concatenate((ys, stepped_ys)),
        )

    def _take_back(self, host_id: int, trajectory: RoadTrajectory) -> None:
        """Copy a road host's leg, and its path if it planned a new one,
        into the arrays."""
        self._legs[:, host_id] = trajectory._leg()
        path = trajectory._path
        if path is not self._paths[host_id]:
            self._store(host_id, path)
        self._cursor[host_id] = self._base[host_id] + trajectory._next

    def _store(self, host_id: int, path: List[int]) -> None:
        """Append ``path`` to the store as ``host_id``'s route."""
        size = len(path)
        self._live += size - int(self._end[host_id] - self._base[host_id])
        if self._used + size > 2 * self._live:
            self._compact()
        if self._used + size > len(self._route_nodes):
            grown = np.zeros(
                max(2 * len(self._route_nodes), self._used + size), dtype=np.intp
            )
            grown[: self._used] = self._route_nodes[: self._used]
            self._route_nodes = grown
        self._route_nodes[self._used : self._used + size] = path
        self._base[host_id] = self._used
        self._end[host_id] = self._used + size
        self._used += size
        self._paths[host_id] = path

    def _compact(self) -> None:
        """Drop every node a host has driven past: keep ``cursor:end``."""
        road = self._road_ids
        first = self._cursor[road]
        sizes = self._end[road] - first
        offsets = np.cumsum(sizes) - sizes
        self._used = int(sizes.sum())
        gather = np.repeat(first - offsets, sizes) + np.arange(self._used)
        self._route_nodes[: self._used] = self._route_nodes[gather]
        shift = offsets - first
        self._base[road] += shift
        self._cursor[road] += shift
        self._end[road] += shift
