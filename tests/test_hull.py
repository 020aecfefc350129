from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc import hull as H
from cfnmc.polytope import build_RTI
from cfnmc.tree import enumerate_topologies

from helpers import DegenerateInputError, facet_vertex_sets_by_chart, hull_facets, order_ideals


class TestRref:
    def test_identity(self):
        rows, pivots = H.rref([[1, 0], [0, 1]])
        assert pivots == [0, 1]

    def test_rank_deficient(self):
        rows, pivots = H.rref([[1, 2], [2, 4]])
        assert pivots == [0]


class TestAffine:
    # the affine dimension is the ambient one less the lineality space the
    # double description has left at the end
    def test_full_dim(self):
        assert H.facet_vertex_sets([(0, 0), (1, 0), (0, 1)])[0] == 2

    def test_plane_in_3d(self):
        pts = [(0, 0, 0), (1, 0, 1), (0, 1, 1)]
        assert H.facet_vertex_sets(pts)[0] == 2

    def test_segment_in_3d(self):
        # codimension 2: the segment's facets are its two end points
        pts = [(1, 2, 3), (2, 3, 5), (3, 4, 7), (2, 3, 5)]
        assert H.facet_vertex_sets(pts) == (1, {frozenset({0}), frozenset({2})})

    def test_lineality_is_codimension(self):
        pts = [(1, 2, 3), (2, 3, 5), (3, 4, 7)]
        _, lineality = H.dd_cone_rays(H.polar_constraints(pts), 4)
        assert lineality == 2
        with pytest.raises(DegenerateInputError) as err:
            hull_facets(pts)
        assert err.value.codimension == 2


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
        with pytest.raises(DegenerateInputError) as err:
            hull_facets([(0, 0), (1, 1), (2, 2)])
        assert err.value.codimension == 1

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


@st.composite
def affine_point_sets(draw):
    """Integer points in a random affine subspace, some of them repeated:
    a base point plus small integer combinations of up to d directions."""
    d = draw(st.integers(1, 4))
    coord = st.integers(-3, 3)
    base = draw(st.tuples(*[coord] * d))
    dirs = draw(st.lists(st.tuples(*[coord] * d), max_size=d))
    combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)), min_size=1, max_size=8))
    points = [
        tuple(b + sum(c * v[i] for c, v in zip(cs, dirs)) for i, b in enumerate(base))
        for cs in combos
    ]
    repeats = draw(st.lists(st.sampled_from(points), max_size=2))
    return draw(st.permutations(points + repeats))


class TestAgainstChart:
    """facet_vertex_sets reads the codimension and every facet off the
    double description; the oracle projects onto a pivot chart of the
    affine hull and reads the points off the facet rows there."""

    @pytest.mark.parametrize("n", [*range(2, 7), pytest.param(7, marks=pytest.mark.slow)])
    def test_every_order_ideal(self, n):
        # R_T(I) is lower-dimensional for most ideals I
        for t in enumerate_topologies(n):
            for I in order_ideals(t):
                verts = build_RTI(t, I).vertices
                assert H.facet_vertex_sets(verts) == facet_vertex_sets_by_chart(verts), (
                    t.to_newick(),
                    I,
                )

    @settings(max_examples=200, deadline=None)
    @given(affine_point_sets())
    def test_random_affine_points(self, points):
        assert H.facet_vertex_sets(points) == facet_vertex_sets_by_chart(points)
