import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmform import FormationParams, build_graph, exchange, unit_grid

from .helpers import neighbor_tuples


def neighbors(pts, r_c):
    """`build_graph` as one neighbour tuple per robot."""
    return neighbor_tuples(build_graph(pts, r_c=r_c))


class TestBuildGraph:
    def test_boundary_distance_is_inclusive(self):
        assert neighbors([(0.0, 0.0), (1.5, 0.0)], r_c=1.5) == ((1,), (0,))

    def test_single_robot_has_no_edges(self):
        assert neighbors([(2.0, 3.0)], r_c=5.0) == ((),)

    def test_unit_grid_degrees(self):
        grid = unit_grid(3)
        pts = grid.as_array()
        nbrs = neighbors(pts, r_c=1.5)
        # Independent check: brute-force pairwise distances.
        expected = tuple(
            tuple(j for j in range(9) if j != i and np.linalg.norm(pts[i] - pts[j]) <= 1.5)
            for i in range(9)
        )
        assert nbrs == expected
        degrees = sorted(len(n) for n in nbrs)
        # 4 corners with 3 neighbours, 4 edge-midpoints with 5, centre with 8
        assert degrees == [3, 3, 3, 3, 5, 5, 5, 5, 8]
        centre = grid.slots.index((0.0, 0.0))
        assert len(nbrs[centre]) == 8

    def test_table_is_two_integer_arrays(self):
        # CSR: row i of the table is indices[indptr[i]:indptr[i + 1]].
        indptr, indices = build_graph(unit_grid(3).as_array(), r_c=1.5)
        assert indptr.dtype.kind == indices.dtype.kind == "i"
        assert indptr.tolist() == [0, 3, 8, 11, 16, 24, 29, 32, 37, 40]
        assert indices[indptr[4]:indptr[5]].tolist() == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_invalid_ranges_rejected(self):
        for r_c in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                build_graph([(0.0, 0.0)], r_c=r_c)

    @given(
        pts=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
            min_size=1,
            max_size=12,
        ),
        r_c=st.floats(0.5, 15.0),
    )
    @example(pts=[(0.0, 0.0), (1.0, 0.0), (0.0, 9.0)], r_c=math.inf)
    @example(pts=[(0.0, 0.0), (1.0, 0.0), (0.0, 9.0)], r_c=1e200)  # r_c * r_c is +inf
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_reconstruction(self, pts, r_c):
        nbrs = neighbors(pts, r_c=r_c)
        assert len(nbrs) == len(pts)
        arr = np.asarray(pts)
        for i in range(len(pts)):
            assert i not in nbrs[i]
            assert list(nbrs[i]) == sorted(nbrs[i])
            for j in range(len(pts)):
                if j != i:
                    expected = np.linalg.norm(arr[i] - arr[j]) <= r_c
                    assert (j in nbrs[i]) == expected


class TestExchange:
    def _etas(self, n):
        return [FormationParams(0.0, 1.0, 1.0, float(i), 0.0) for i in range(n)]

    def test_empty_graph_delivers_nothing(self):
        nbrs = build_graph([(0.0, 0.0), (100.0, 0.0)], r_c=1.0)
        assert exchange(nbrs, self._etas(2)) == [[], []]

    def test_complete_triangle_delivers_both_others(self):
        nbrs = build_graph([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], r_c=5.0)
        etas = self._etas(3)
        received = exchange(nbrs, etas)
        assert received[0] == [etas[1], etas[2]]
        assert received[1] == [etas[0], etas[2]]
        assert received[2] == [etas[0], etas[1]]

    def test_neighbor_counts_match_degrees(self):
        pts = unit_grid(3).as_array()
        graph = build_graph(pts, r_c=1.5)
        received = exchange(graph, self._etas(9))
        assert [len(r) for r in received] == [len(n) for n in neighbor_tuples(graph)]

    def test_order_is_stable_by_robot_id(self):
        nbrs = build_graph([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], r_c=2.5)
        etas = self._etas(3)
        received = exchange(nbrs, etas)
        assert received[2] == [etas[0], etas[1]]

    def test_wrong_count_rejected(self):
        nbrs = build_graph([(0.0, 0.0), (1.0, 0.0)], r_c=2.0)
        with pytest.raises(ValueError):
            exchange(nbrs, self._etas(3))

    @given(
        pts=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
            min_size=1,
            max_size=12,
        ),
        r_c=st.floats(0.5, 15.0),
    )
    @example(pts=[(0.0, 0.0)], r_c=5.0)  # N = 1
    @example(pts=[(0.0, 0.0), (9.0, 0.0), (0.0, 9.0)], r_c=1.0)  # no edges
    @settings(max_examples=200, deadline=None)
    def test_delivers_each_neighbors_own_object_in_id_order(self, pts, r_c):
        graph = build_graph(pts, r_c=r_c)
        etas = [object() for _ in pts]
        received = exchange(graph, etas)
        assert len(received) == len(pts)
        for got, nbrs in zip(received, neighbor_tuples(graph)):
            want = [etas[j] for j in nbrs]
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
