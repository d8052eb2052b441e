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
        inserted = UniformGrid(cell_size)
        for i, (x, y) in enumerate(items):
            inserted.insert(i, Point(x, y))
        xs = [x for x, _ in items]
        ys = [y for _, y in items]
        over_arrays = UniformGrid(cell_size, xs, ys)
        # Everything starts in one place and gets where it belongs in one call.
        moved = UniformGrid(cell_size, [0.0] * len(items), [0.0] * len(items))
        moved.move_many(np.arange(len(items)), np.array(xs), np.array(ys))
        center_point = Point(*center)
        expected = sorted(
            i
            for i, (x, y) in enumerate(items)
            if center_point.distance_to(Point(x, y)) <= radius
        )
        for grid in (inserted, over_arrays, moved):
            assert sorted(grid.within_range(center_point, radius)) == expected


def filing(grid):
    """Cell -> (the set object, its members in iteration order)."""
    return {cell: (members, list(members)) for cell, members in grid._cells.items()}


class TestFixedPopulation:
    """A grid over coordinate arrays, and its bulk move."""

    def test_holds_every_index(self):
        grid = UniformGrid(1.0, [0.5, 3.5], [0.5, 3.5])
        assert len(grid) == 2
        assert 0 in grid and 1 in grid
        assert 2 not in grid and "a" not in grid
        assert grid.position_of(1) == Point(3.5, 3.5)
        assert type(grid.position_of(1).x) is float
        assert grid.within_range(Point(0, 0), 1.0) == [0]

    def test_single_item_calls_still_move(self):
        grid = UniformGrid(1.0, [0.5, 3.5], [0.5, 3.5])
        grid.update(0, Point(3.4, 3.4))
        grid.insert(1, Point(0.1, 0.1))
        assert grid.within_range(Point(3.5, 3.5), 0.5) == [0]
        assert grid.within_range(Point(0, 0), 0.5) == [1]

    def test_population_cannot_change(self):
        grid = UniformGrid(1.0, [0.5], [0.5])
        with pytest.raises(TypeError):
            grid.remove(0)
        with pytest.raises(TypeError):
            grid.clear()
        with pytest.raises(IndexError):
            grid.insert(1, Point(0, 0))
        assert len(grid) == 1 and grid.within_range(Point(0.5, 0.5), 0.1) == [0]

    def test_coordinates_come_in_pairs(self):
        with pytest.raises(ValueError):
            UniformGrid(1.0, [0.0])
        with pytest.raises(ValueError):
            UniformGrid(1.0, [0.0], [0.0, 1.0])

    def test_move_many_needs_arrays(self):
        grid = UniformGrid(1.0)
        grid.insert(0, Point(0, 0))
        with pytest.raises(TypeError):
            grid.move_many(np.array([0]), np.array([1.0]), np.array([1.0]))

    def test_cell_changes_are_filed_in_ascending_id_order(self):
        """Whatever order the ids come in, the sets see the history a
        loop of ``update`` over ascending ids leaves."""
        count = 40
        start = [0.5] * count
        ids = np.random.default_rng(0).permutation(count)
        bulk = UniformGrid(1.0, start, start)
        bulk.move_many(ids, np.full(count, 1.5), np.full(count, 0.5))
        looped = UniformGrid(1.0, start, start)
        for item in range(count):
            looped.update(item, Point(1.5, 0.5))
        assert list(bulk._cells[(1, 0)]) == list(looped._cells[(1, 0)])
        assert bulk.within_range(Point(1.5, 0.5), 0.1) == looped.within_range(
            Point(1.5, 0.5), 0.1
        )

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.lists(
            st.lists(st.tuples(st.integers(0, 39), coord, coord), max_size=40),
            max_size=6,
        ),
        st.tuples(coord, coord),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_sequence_of_bulk_moves(self, items, batches, center, radius, cell_size):
        where = dict(enumerate(items))
        grid = UniformGrid(cell_size, [x for x, _ in items], [y for _, y in items])

        def cell_of(x, y):
            return (np.floor(x / cell_size), np.floor(y / cell_size))

        for batch in batches:
            # One destination per item that exists; the last one wins.
            moves = {item: (x, y) for item, x, y in batch if item in where}
            before = filing(grid)
            touched = set()
            for item, (x, y) in moves.items():
                if cell_of(*where[item]) != cell_of(x, y):
                    touched.update((cell_of(*where[item]), cell_of(x, y)))
            where.update(moves)
            grid.move_many(
                np.array(list(moves), dtype=int),
                np.array([x for x, _ in moves.values()], dtype=float),
                np.array([y for _, y in moves.values()], dtype=float),
            )
            # A cell nobody entered or left kept its set, untouched.
            for cell, (members, order) in before.items():
                if cell not in touched:
                    assert grid._cells[cell] is members
                    assert list(members) == order
            rebuilt = UniformGrid(cell_size)
            for item, (x, y) in where.items():
                rebuilt.insert(item, Point(x, y))
            assert grid._cells == rebuilt._cells
            assert all(grid.position_of(item) == Point(*where[item]) for item in where)
        center_point = Point(*center)
        assert sorted(grid.within_range(center_point, radius)) == sorted(
            item
            for item, (x, y) in where.items()
            if center_point.distance_to(Point(x, y)) <= radius
        )
