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
        assert H.affine_chart([(0, 0), (1, 0), (0, 1)]) == [0, 1]

    def test_plane_in_3d(self):
        pts = [(0, 0, 0), (1, 0, 1), (0, 1, 1)]
        assert len(H.affine_chart(pts)) == 2


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


class TestFacetVertexSets:
    def test_square_in_3d(self):
        # a square in the plane x2 = 1 with the corner (1, 1, 1) listed
        # twice: both copies are on its two edges
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 1)]
        dim, facets = H.facet_vertex_sets(pts)
        assert dim == 2
        assert facets == {
            frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 3, 4}), frozenset({2, 3, 4}),
        }

    def test_interior_point_on_no_facet(self):
        pts = list(product((0, 2), repeat=2)) + [(1, 1)]
        dim, facets = H.facet_vertex_sets(pts)
        assert dim == 2
        assert len(facets) == 4
        assert all(4 not in f for f in facets)

    def test_single_point(self):
        assert H.facet_vertex_sets([(3, 1)]) == (0, set())
