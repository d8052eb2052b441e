"""Uniform-grid spatial hash for peer discovery.

The simulator must repeatedly answer "which hosts are within the wireless
transmission range of ``Q``?"  A uniform grid with cell size equal to the
search radius answers that in O(1) expected time: only the 3x3 block of
cells around the query point needs scanning.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.geometry.point import Point

__all__ = ["UniformGrid"]


class UniformGrid:
    """A spatial hash of id -> position with fixed cell size."""

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], Set[Hashable]] = {}
        self._positions: Dict[Hashable, Point] = {}

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (
            math.floor(point.x / self.cell_size),
            math.floor(point.y / self.cell_size),
        )

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self._positions

    def insert(self, item_id: Hashable, position: Point) -> None:
        """Insert or move an item."""
        if item_id in self._positions:
            self.remove(item_id)
        self._positions[item_id] = position
        self._cells.setdefault(self._cell_of(position), set()).add(item_id)

    def remove(self, item_id: Hashable) -> None:
        position = self._positions.pop(item_id, None)
        if position is None:
            return
        cell = self._cell_of(position)
        members = self._cells.get(cell)
        if members is not None:
            members.discard(item_id)
            if not members:
                del self._cells[cell]

    def update(self, item_id: Hashable, position: Point) -> None:
        """Move an item; cheaper than remove+insert when the cell is the same."""
        old = self._positions.get(item_id)
        if old is None:
            self.insert(item_id, position)
            return
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(position)
        self._positions[item_id] = position
        if old_cell != new_cell:
            members = self._cells.get(old_cell)
            if members is not None:
                members.discard(item_id)
                if not members:
                    del self._cells[old_cell]
            self._cells.setdefault(new_cell, set()).add(item_id)

    def position_of(self, item_id: Hashable) -> Point:
        return self._positions[item_id]

    def within_range(
        self, center: Point, radius: float, exclude: Optional[Hashable] = None
    ) -> List[Hashable]:
        """All items within the closed disk of ``radius`` around ``center``."""
        if radius < 0.0:
            raise ValueError("radius must be non-negative")
        results: List[Hashable] = []
        # The distance test below is rounded: a point can pass it while
        # lying a few ulps outside ``center +- radius`` as rounded here
        # (and so in the next cell), hence the slightly wider box.
        reach = radius + 8.0 * sys.float_info.epsilon * (
            abs(center.x) + abs(center.y) + radius
        )
        min_cx = math.floor((center.x - reach) / self.cell_size)
        max_cx = math.floor((center.x + reach) / self.cell_size)
        min_cy = math.floor((center.y - reach) / self.cell_size)
        max_cy = math.floor((center.y + reach) / self.cell_size)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for item_id in self._cells.get((cx, cy), ()):
                    if item_id == exclude:
                        continue
                    if center.distance_to(self._positions[item_id]) <= radius:
                        results.append(item_id)
        return results

    def clear(self) -> None:
        self._cells.clear()
        self._positions.clear()
