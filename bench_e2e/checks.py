"""Correctness checks, independent of the code under test.

Euclidean kNN answers are checked against a numpy brute-force scan of
the POI set; network kNN answers against the Dijkstra oracle in
``repro.testing.oracles`` (which by rule RPR007 shares no code with
``repro.network``).  All checks run outside the timed regions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.testing.oracles import oracle_network_knn

__all__ = ["KnnTruth", "NetworkTruth", "REL_TOL"]

#: ``np.hypot`` is 1 ulp off ``math.hypot`` on some inputs, so distances
#: are compared to 1e-12 relative rather than bit for bit.
REL_TOL = 1e-12

#: Rows of the distance matrix computed at once; small enough to stay in
#: cache (50 x 20 000 float64 = 8 MB), which is also what keeps the scan
#: fast.
_CHUNK = 50


def poi_index(payload: Any) -> int:
    """The POI's position in the generated set (payloads are ``poi-<i>``)."""
    return int(str(payload)[4:])


def _xy(points: Sequence[Any]) -> np.ndarray:
    """An (n, 2) coordinate array, also for n = 0."""
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


class KnnTruth:
    """Brute-force kNN distances over a fixed POI set.

    An answer for query ``q`` is right when (a) its reported distances
    are the ``k`` smallest true distances in ascending order and (b)
    each returned POI really lies at its reported distance.  With
    distinct distances that pins the ids in order; with ties it accepts
    any tie order, which is all an exact kNN promises.
    """

    def __init__(self, pois: Sequence[Tuple[Any, Any]]) -> None:
        self._xy = _xy([point for point, _ in pois])

    def table(self, queries: Sequence[Any], k: int) -> np.ndarray:
        """Ascending ``k`` smallest distances for every query point."""
        qxy = _xy(queries)
        k = min(k, len(self._xy))
        out = np.empty((len(qxy), k), dtype=np.float64)
        px, py = self._xy[:, 0], self._xy[:, 1]
        for start in range(0, len(qxy), _CHUNK):
            rows = slice(start, start + _CHUNK)
            dx = qxy[rows, 0, None] - px
            dy = qxy[rows, 1, None] - py
            squared = dx * dx + dy * dy
            if k < squared.shape[1]:
                nearest = np.argpartition(squared, k - 1, axis=1)[:, :k]
            else:
                nearest = np.broadcast_to(
                    np.arange(squared.shape[1]), squared.shape
                )
            exact = np.hypot(
                np.take_along_axis(dx, nearest, axis=1),
                np.take_along_axis(dy, nearest, axis=1),
            )
            out[rows] = np.sort(exact, axis=1)
        return out

    def wrong_answers(
        self,
        queries: Sequence[Any],
        truth: np.ndarray,
        answers: Sequence[Sequence[Any]],
    ) -> int:
        """How many of ``answers`` differ from ``truth`` (row-aligned)."""
        k = truth.shape[1]
        count = len(answers)
        ids = np.zeros((count, k), dtype=np.int64)
        reported = np.full((count, k), np.nan)
        for row, neighbors in enumerate(answers):
            if len(neighbors) != k:
                continue  # stays NaN, fails the comparison below
            ids[row] = [poi_index(n.payload) for n in neighbors]
            reported[row] = [n.distance for n in neighbors]
        qxy = _xy(queries)
        actual = np.hypot(
            self._xy[ids, 0] - qxy[:, 0, None],
            self._xy[ids, 1] - qxy[:, 1, None],
        )
        tolerance = REL_TOL * np.maximum(truth, 1.0)
        with np.errstate(invalid="ignore"):
            right = (np.abs(reported - truth) <= tolerance) & (
                np.abs(reported - actual) <= tolerance
            )
        return int(count - np.count_nonzero(right.all(axis=1)))


class NetworkTruth:
    """Network kNN by the independent oracle (one Dijkstra per origin)."""

    def __init__(
        self, network: Any, pois: Sequence[Tuple[Any, Any]]
    ) -> None:
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {
            node: [(other, edge.length) for other, edge in network.neighbors(node)]
            for node in network.node_ids()
        }
        self._pois = [(_flatten(location), payload) for location, payload in pois]

    def is_wrong(self, origin: Any, k: int, neighbors: Sequence[Any]) -> bool:
        """True when a ``snnn_query`` answer disagrees with the oracle."""
        expected = oracle_network_knn(
            self._adjacency, _flatten(origin), self._pois, k
        )
        if len(neighbors) != len(expected):
            return True
        for got, (payload, distance) in zip(neighbors, expected):
            if got.payload != payload:
                return True
            if abs(got.network_distance - distance) > REL_TOL * max(distance, 1.0):
                return True
        return False


def _flatten(location: Any) -> Tuple[Any, ...]:
    edge = location.edge
    return ("edge", edge.u, edge.v, location.offset, edge.length)
