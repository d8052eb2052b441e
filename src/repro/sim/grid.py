"""Uniform-grid spatial hash for peer discovery.

The simulator must repeatedly answer "which hosts are within the wireless
transmission range of ``Q``?"  A uniform grid with cell size equal to the
search radius answers that in O(1) expected time: only the 3x3 block of
cells around the query point needs scanning.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Container, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.point import Point

__all__ = ["UniformGrid"]


def _as_cells(columns: np.ndarray, rows: np.ndarray) -> List[Tuple[int, int]]:
    """Cell keys from whole-numbered float columns and rows."""
    return [(int(column), int(row)) for column, row in zip(columns.tolist(), rows.tolist())]


class UniformGrid:
    """A spatial hash of id -> position with fixed cell size.

    Built from a cell size alone, the grid takes any hashable ids, one
    ``insert`` / ``update`` / ``remove`` at a time.  Built over two
    coordinate sequences it holds a fixed population instead -- item
    ``i`` is at ``(xs[i], ys[i])``, none can be added or removed -- keeps
    the coordinates in arrays, and can move many items in one call
    (:meth:`move_many`), which is how the simulator keeps thousands of
    hosts filed tick after tick.
    """

    def __init__(
        self,
        cell_size: float,
        xs: Optional[Sequence[float]] = None,
        ys: Optional[Sequence[float]] = None,
    ) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        if (xs is None) != (ys is None):
            raise ValueError("xs and ys come together")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], Set[Hashable]] = {}
        # Coordinates by item id: two dicts, or the two arrays of a
        # fixed population.
        self._fixed = xs is not None
        self._xs: Any = {}
        self._ys: Any = {}
        self._ids: Container[Hashable] = self._xs
        if xs is not None and ys is not None:
            self._xs = np.array(xs, dtype=float)
            self._ys = np.array(ys, dtype=float)
            if self._xs.shape != self._ys.shape or self._xs.ndim != 1:
                raise ValueError("xs and ys must be two sequences of one length")
            self._ids = range(len(self._xs))
            # Filed in ascending id order, as a loop of ``insert`` would.
            cells = _as_cells(self._lines(self._xs), self._lines(self._ys))
            for item_id, cell in enumerate(cells):
                self._cells.setdefault(cell, set()).add(item_id)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def _lines(self, coordinates: np.ndarray) -> np.ndarray:
        """One half of :meth:`_cell_of` for an array of x (or y) values:
        the same division and the same floor, the numbers still floats."""
        return np.floor(coordinates / self.cell_size)

    def _unfile(self, item_id: Hashable, cell: Tuple[int, int]) -> None:
        members = self._cells.get(cell)
        if members is not None:
            members.discard(item_id)
            if not members:
                del self._cells[cell]

    def _file(self, item_id: Hashable, cell: Tuple[int, int]) -> None:
        self._cells.setdefault(cell, set()).add(item_id)

    def __len__(self) -> int:
        return len(self._xs)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self._ids

    def insert(self, item_id: Hashable, position: Point) -> None:
        """Insert or move an item."""
        if item_id in self._ids:
            self._unfile(item_id, self._cell_of(self._xs[item_id], self._ys[item_id]))
        self._xs[item_id] = position.x
        self._ys[item_id] = position.y
        self._file(item_id, self._cell_of(position.x, position.y))

    def remove(self, item_id: Hashable) -> None:
        if self._fixed:
            raise TypeError("a grid over coordinate arrays keeps every item")
        if item_id in self._ids:
            self._unfile(
                item_id, self._cell_of(self._xs.pop(item_id), self._ys.pop(item_id))
            )

    def update(self, item_id: Hashable, position: Point) -> None:
        """Move an item; cheaper than remove+insert when the cell is the same."""
        if item_id not in self._ids:
            self.insert(item_id, position)
            return
        old_cell = self._cell_of(self._xs[item_id], self._ys[item_id])
        new_cell = self._cell_of(position.x, position.y)
        self._xs[item_id] = position.x
        self._ys[item_id] = position.y
        if old_cell != new_cell:
            self._unfile(item_id, old_cell)
            self._file(item_id, new_cell)

    def move_many(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        """Move the items ``ids`` of a fixed population to ``(xs, ys)``.

        One array pass finds the items whose cell changed; only those
        touch a cell set, in ascending id order whatever the order of
        ``ids``.  A set's iteration order -- the order ``within_range``
        reports items in -- depends on its history of adds and discards,
        and this is the history a loop of :meth:`update` over ascending
        ids leaves behind.
        """
        old_columns = self._lines(self._xs[ids])
        old_rows = self._lines(self._ys[ids])
        new_columns = self._lines(xs)
        new_rows = self._lines(ys)
        self._xs[ids] = xs
        self._ys[ids] = ys
        moved = np.flatnonzero((old_columns != new_columns) | (old_rows != new_rows))
        moved = moved[np.argsort(ids[moved])]
        for item_id, old_cell, new_cell in zip(
            ids[moved].tolist(),
            _as_cells(old_columns[moved], old_rows[moved]),
            _as_cells(new_columns[moved], new_rows[moved]),
        ):
            self._unfile(item_id, old_cell)
            self._file(item_id, new_cell)

    def position_of(self, item_id: Hashable) -> Point:
        return Point(float(self._xs[item_id]), float(self._ys[item_id]))

    def within_range(
        self, center: Point, radius: float, exclude: Optional[Hashable] = None
    ) -> List[Hashable]:
        """All items within the closed disk of ``radius`` around ``center``."""
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        results: List[Hashable] = []
        center_x, center_y = center.x, center.y
        xs, ys = self._xs, self._ys
        # The distance test below is rounded: a point can pass it while
        # lying a few ulps outside ``center +- radius`` as rounded here
        # (and so in the next cell), hence the slightly wider box.
        reach = radius + 8.0 * sys.float_info.epsilon * (
            abs(center_x) + abs(center_y) + radius
        )
        min_cx = math.floor((center_x - reach) / self.cell_size)
        max_cx = math.floor((center_x + reach) / self.cell_size)
        min_cy = math.floor((center_y - reach) / self.cell_size)
        max_cy = math.floor((center_y + reach) / self.cell_size)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for item_id in self._cells.get((cx, cy), ()):
                    if item_id == exclude:
                        continue
                    # ``center.distance_to`` without building a Point.
                    if math.hypot(center_x - xs[item_id], center_y - ys[item_id]) <= radius:
                        results.append(item_id)
        return results

    def clear(self) -> None:
        if self._fixed:
            raise TypeError("a grid over coordinate arrays keeps every item")
        self._cells.clear()
        self._xs.clear()
        self._ys.clear()
