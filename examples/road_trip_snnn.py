"""Network-distance queries along a drive (SNNN, Algorithm 2).

A vehicle drives across a generated road network and periodically asks
for its k nearest restaurants *by road distance* -- the realistic metric
when you cannot drive through buildings.  The example contrasts:

- the Euclidean kNN (what SENN alone returns);
- the network-distance kNN from SNNN (Algorithm 2), which keeps pulling
  Euclidean candidates until none can beat the k-th road distance;
- the INE oracle, verifying SNNN exactly.

Run with::

    python examples/road_trip_snnn.py
"""

import numpy as np

from repro.core import SennConfig, SpatialDatabaseServer, snnn_query
from repro.geometry.point import Point
from repro.network.generator import RoadNetworkSpec, generate_road_network
from repro.network.ier import incremental_network_expansion
from repro.sim.mobility import RoadTrajectory


def main() -> None:
    rng = np.random.default_rng(7)
    network = generate_road_network(
        RoadNetworkSpec(width=4.0, height=4.0, secondary_spacing=0.4, seed=7)
    )
    print(f"road network: {network}")

    # Thirty restaurants, all sitting on road segments.
    restaurants = []
    for i in range(30):
        raw = Point(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
        restaurants.append((network.snap(raw).point, f"restaurant-{i}"))
    server = SpatialDatabaseServer.from_points(restaurants)
    poi_locations = [(network.snap(p), payload) for p, payload in restaurants]

    config = SennConfig(k=3, cache_capacity=10)
    car = RoadTrajectory(network, desired_speed_mph=45.0, rng=rng, pause_max_s=0.0)

    for leg in range(4):
        car.advance(240.0)  # drive four minutes between queries
        here = car.position
        print(f"\n-- query {leg + 1} at ({here.x:.2f}, {here.y:.2f}) --")

        result = snnn_query(here, 3, network, None, [], config, server=server)
        euclidean = sorted(
            (here.distance_to(p), payload) for p, payload in restaurants
        )[:3]
        print("   nearest by Euclidean distance:")
        for dist, payload in euclidean:
            print(f"     {payload:>14}  {dist:.3f} mi (straight line)")
        print("   nearest by road distance (SNNN):")
        for neighbor in result.neighbors:
            print(
                f"     {neighbor.payload:>14}  {neighbor.network_distance:.3f} mi "
                f"(vs {neighbor.euclidean_distance:.3f} straight)"
            )

        oracle = incremental_network_expansion(
            network, network.snap(here), poi_locations, 3
        )
        got = [round(n.network_distance, 6) for n in result.neighbors]
        want = [round(n.network_distance, 6) for n in oracle]
        assert got == want, "SNNN must match the INE oracle"
    print("\nall SNNN answers verified against the INE oracle")


if __name__ == "__main__":
    main()
