"""Tests for repro.sim.grid."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.sim.grid import UniformGrid

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestUniformGrid:
    def test_cell_size_validation(self):
        with pytest.raises(ValueError):
            UniformGrid(0.0)

    def test_insert_and_len(self):
        grid = UniformGrid(1.0)
        grid.insert("a", Point(0, 0))
        grid.insert("b", Point(5, 5))
        assert len(grid) == 2
        assert "a" in grid

    def test_reinsert_moves(self):
        grid = UniformGrid(1.0)
        grid.insert("a", Point(0, 0))
        grid.insert("a", Point(10, 10))
        assert len(grid) == 1
        assert grid.position_of("a") == Point(10, 10)
        assert grid.within_range(Point(0, 0), 1.0) == []

    def test_remove(self):
        grid = UniformGrid(1.0)
        grid.insert("a", Point(0, 0))
        grid.remove("a")
        assert len(grid) == 0
        grid.remove("missing")  # no error

    def test_update_same_cell(self):
        grid = UniformGrid(10.0)
        grid.insert("a", Point(1, 1))
        grid.update("a", Point(2, 2))
        assert grid.position_of("a") == Point(2, 2)
        assert grid.within_range(Point(2, 2), 0.5) == ["a"]

    def test_update_cross_cell(self):
        grid = UniformGrid(1.0)
        grid.insert("a", Point(0.5, 0.5))
        grid.update("a", Point(5.5, 5.5))
        assert grid.within_range(Point(5.5, 5.5), 0.1) == ["a"]
        assert grid.within_range(Point(0.5, 0.5), 0.1) == []

    def test_update_unknown_inserts(self):
        grid = UniformGrid(1.0)
        grid.update("new", Point(1, 1))
        assert "new" in grid

    def test_within_range_excludes(self):
        grid = UniformGrid(1.0)
        grid.insert("me", Point(0, 0))
        grid.insert("you", Point(0.1, 0))
        found = grid.within_range(Point(0, 0), 1.0, exclude="me")
        assert found == ["you"]

    def test_within_range_negative_radius(self):
        grid = UniformGrid(1.0)
        with pytest.raises(ValueError):
            grid.within_range(Point(0, 0), -1.0)

    def test_boundary_inclusion(self):
        grid = UniformGrid(1.0)
        grid.insert("edge", Point(2.0, 0.0))
        assert grid.within_range(Point(0, 0), 2.0) == ["edge"]

    def test_clear(self):
        grid = UniformGrid(1.0)
        grid.insert("a", Point(0, 0))
        grid.clear()
        assert len(grid) == 0

    @given(
        st.lists(st.tuples(coord, coord), max_size=60),
        st.tuples(coord, coord),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    # One ulp-scale step below a cell edge, at a distance that rounds to
    # the radius: in range, but outside the unwidened cell block.
    @example([(1.0, -2.0980942082711528e-296)], (1.0, 1.0), 1.0, 1.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, items, center, radius, cell_size):
        grid = UniformGrid(cell_size)
        for i, (x, y) in enumerate(items):
            grid.insert(i, Point(x, y))
        center_point = Point(*center)
        expected = sorted(
            i
            for i, (x, y) in enumerate(items)
            if center_point.distance_to(Point(x, y)) <= radius
        )
        found = sorted(grid.within_range(center_point, radius))
        assert found == expected
