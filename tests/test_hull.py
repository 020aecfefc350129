from itertools import product

import pytest

from cfnmc import hull as H

from helpers import DegenerateInputError, hull_facets


class TestRref:
    def test_identity(self):
        rows, pivots = H.rref([[1, 0], [0, 1]])
        assert pivots == [0, 1]

    def test_rank_deficient(self):
        rows, pivots = H.rref([[1, 2], [2, 4]])
        assert pivots == [0]


class TestAffine:
    def test_full_dim(self):
        _, _, eqs = H.affine_decomposition([(0, 0), (1, 0), (0, 1)])
        assert eqs == []

    def test_plane_in_3d(self):
        pts = [(0, 0, 0), (1, 0, 1), (0, 1, 1)]
        pivots, relations, eqs = H.affine_decomposition(pts)
        assert len(eqs) == 1
        coeffs, rhs = eqs[0]
        for p in pts:
            assert sum(c * x for c, x in zip(coeffs, p)) == rhs


class TestFacets:
    def test_cube(self):
        pts = list(product((0, 1), repeat=3))
        assert len(hull_facets(pts)) == 6

    def test_octahedron(self):
        pts = [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
        facets = hull_facets(pts)
        assert len(facets) == 8
        assert all(abs(c) == 1 for coeffs, _ in facets for c in coeffs)

    def test_simplex_4d(self):
        pts = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [
            (0, 0, 0, 0)
        ]
        assert len(hull_facets(pts)) == 5

    def test_interior_points_ignored(self):
        pts = list(product((0, 2), repeat=2)) + [(1, 1)]
        assert len(hull_facets(pts)) == 4

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            hull_facets([(0, 0), (1, 1), (2, 2)])

    def test_facets_valid_and_tight(self):
        pts = [(0, 0), (3, 0), (0, 3), (1, 2), (2, 2)]
        for coeffs, rhs in hull_facets(pts):
            vals = [sum(c * x for c, x in zip(coeffs, p)) for p in pts]
            assert max(vals) == rhs
            assert sum(1 for v in vals if v == rhs) >= 2


class TestChartReduction:
    def test_reduce_modulo_equality(self):
        pts = [(0, 0), (1, 1), (1, 1), (2, 2)]
        eqs, facets, pivots, relations = H.hull_h_description([(0, 0), (1, 1), (2, 2)])
        # x0 - x1 = 0; the inequality x1 <= 2 becomes x0 <= 2 on the chart
        got = H.reduce_to_chart((0, 1), 2, pivots, relations)
        assert got == ((1, 0), 2)
