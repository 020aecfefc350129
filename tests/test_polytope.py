from dataclasses import replace
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc import hull as H
from cfnmc.polytope import (
    Inequality,
    build_RT,
    build_RTI,
    count_monotone_zigzag_maps,
    facets_RTI,
    h_reps_match,
    rti_coordinates,
)
from cfnmc.paths import enumerate_topsets, topset_bits
from cfnmc.tree import TreeError, enumerate_clusters, enumerate_topologies, parse_newick

from helpers import (
    FACET_TREE,
    FIG_TREE,
    DegenerateInputError,
    caterpillar,
    caterpillar_zigzag_map,
    contract_vertex_map,
    hull_facets,
    named_interior,
    order_ideals,
    polytope_contains,
    random_newick,
    satisfied_by,
    spine_tree,
    tight_at,
    zigzag_order_polytope_vertices,
)


class TestCorollary:
    def test_three_leaf_simplex(self):
        t = parse_newick("((1,2),3);")
        P = build_RT(t)
        assert sorted(P.vertices) == [(0, 0), (0, 1), (1, 0)]
        kinds = sorted(f.kind for f in P.facets)
        assert kinds == ["adjacency", "nonneg", "nonneg"]

    def test_facet_tree_list(self):
        t = parse_newick(FACET_TREE)
        names = named_interior(t, "abcdef")
        facets = build_RT(t).facets
        assert sum(1 for f in facets if f.kind == "nonneg") == 6
        adj = {
            tuple(i for i, c in enumerate(f.coeffs) if c)
            for f in facets
            if f.kind == "adjacency"
        }
        idx = t.interior_index
        assert adj == {
            (idx(names["a"]), idx(names["b"])),
            (idx(names["a"]), idx(names["f"])),
            (idx(names["b"]), idx(names["c"])),
            (idx(names["c"]), idx(names["d"])),
            (idx(names["c"]), idx(names["e"])),
        }
        clusters = [f for f in facets if f.kind == "cluster"]
        assert len(clusters) == 1
        want = [0] * 6
        want[idx(names["c"])] = 2
        for x in "bde":
            want[idx(names[x])] = 1
        assert clusters[0] == Inequality(tuple(want), 2, "cluster")

    def test_caterpillar_count(self):
        # no clusters: n-1 nonnegativity facets plus n-2 adjacency facets
        for n in range(3, 9):
            assert len(build_RT(caterpillar(n)).facets) == 2 * n - 3

    def test_spine_tree_exponential(self):
        t = spine_tree(2)
        clusters = [f for f in build_RT(t).facets if f.kind == "cluster"]
        assert len(clusters) >= 2 ** 3

    def test_vertices_satisfy(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                P = build_RT(t)
                assert all(polytope_contains(P, v) for v in P.vertices)

    def test_hull_agreement(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                assert h_reps_match(build_RT(t)), (n, t.to_newick())

    def test_facets_tight_on_enough_vertices(self):
        # every facet is tight at >= dim affinely independent vertices
        for t in enumerate_topologies(5):
            P = build_RT(t)
            for f in P.facets:
                tight = [v for v in P.vertices if tight_at(f, v)]
                dirs = [
                    [a - b for a, b in zip(v, tight[0])] for v in tight[1:]
                ]
                _, pivots = H.rref(dirs)
                assert len(pivots) >= P.dim - 1


class TestHullOracle:
    def test_unit_square(self):
        facets = hull_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(facets) == 4

    def test_three_leaf_rt(self):
        t = parse_newick("((1,2),3);")
        got = set(hull_facets(build_RT(t).vertices))
        assert got == {((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)}

    def test_facet_tree_matches_corollary(self):
        t = parse_newick(FACET_TREE)
        P = build_RT(t)
        oracle = set(hull_facets(P.vertices))
        claimed = {(f.coeffs, f.rhs) for f in P.facets}
        assert oracle == claimed

    def test_degenerate_reported(self):
        with pytest.raises(DegenerateInputError) as err:
            hull_facets([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        assert err.value.codimension == 2

    def test_cross_polytope(self):
        pts = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        assert len(hull_facets(pts)) == 8


class TestRti:
    def test_four_leaf_example(self):
        t = parse_newick("((1,2),(3,4));")
        I = frozenset([t.node_at_index(2)])
        P = build_RTI(t, I)
        # the six reference columns in (e2, e3, e4, e5, x3) order
        order = ["y1", "y2", "yL1", "yL2", "x2"]
        perm = [P.coord_labels.index(c) for c in order]
        got = {tuple(v[i] for i in perm) for v in P.vertices}
        assert got == {
            (0, 0, 0, 0, 0),
            (1, 1, 1, 0, 0),
            (1, 1, 0, 1, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 0, 1),
            (0, 0, 1, 1, 1),
        }

    def test_full_ideal_is_rt(self):
        # labeling-derived vertices are the enumerated top-vectors, in
        # x-coordinates by canonical index, under the R_T facet families
        for text in ["(1,2);", "((1,2),3);", FIG_TREE, FACET_TREE]:
            t = parse_newick(text)
            P = build_RTI(t, frozenset(t.interior_nodes))
            want = sorted(topset_bits(t, s) for s in enumerate_topsets(t))
            assert P.vertices == tuple(want)
            assert P.coord_labels == tuple(f"x{i}" for i in range(t.n_leaves - 1))
            assert {f.kind for f in P.facets} <= {"nonneg", "adjacency", "cluster"}
            assert h_reps_match(P)

    def test_empty_ideal_families(self):
        t = parse_newick(FIG_TREE)
        P = build_RTI(t, frozenset())
        kinds = {f.kind for f in P.facets}
        assert kinds == {"root_equality", "cfn_local"}
        assert h_reps_match(P)

    def test_facet_tree_worked_example(self):
        # I = {b, c, d, e}: the persistent finding is the cluster facet has
        # no up-edge term (m(C) = c is not maximal) and x_b + y_b <= 1 joins.
        t = parse_newick(FACET_TREE)
        I = frozenset(t.node_at_index(i) for i in (1, 2, 3, 4))
        P = build_RTI(t, I)
        assert h_reps_match(P)
        labels = P.coord_labels
        cluster = [f for f in P.facets if f.kind == "cluster"]
        assert len(cluster) == 1
        terms = {
            labels[i]: c for i, c in enumerate(cluster[0].coeffs) if c != 0
        }
        assert terms == {"x1": 1, "x2": 2, "x3": 1, "x4": 1}
        assert cluster[0].rhs == 2
        xy = [
            f
            for f in P.facets
            if f.kind == "adjacency"
            and any(labels[i].startswith("y") for i, c in enumerate(f.coeffs) if c)
        ]
        assert len(xy) == 1  # x_b + y_b <= 1

    def test_invalid_ideal(self):
        t = parse_newick(FIG_TREE)
        with pytest.raises(TreeError):
            build_RTI(t, frozenset({t.root}))

    def test_all_ideals_match_hull(self):
        # most R_T(I) are lower-dimensional: the hull oracle's lineality path
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                for I in order_ideals(t):
                    assert h_reps_match(build_RTI(t, I)), (n, t.to_newick(), I)

    @settings(max_examples=20, deadline=None)
    @given(random_newick(8).map(parse_newick), st.data())
    def test_random_ideals_match_hull(self, t, data):
        # the exhaustive test above stops at n = 6
        I = data.draw(st.sampled_from(order_ideals(t)))
        assert h_reps_match(build_RTI(t, I)), (t.to_newick(), I)

    def test_cluster_ideals_match_hull(self):
        # Few random draws hold a cluster inside a partial ideal, where the
        # cluster inequality meets a y-coordinate; check every such ideal.
        checked = 0
        for n in (6, 7):
            for t in enumerate_topologies(n):
                clusters = enumerate_clusters(t)
                for I in order_ideals(t)[:-1]:
                    if any(c.members <= I for c in clusters):
                        assert h_reps_match(build_RTI(t, I)), (t.to_newick(), I)
                        checked += 1
        assert checked == 5 + 19

    def test_rows_primitive(self):
        # facets_RTI builds no normal form; every row must already be one
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                for I in order_ideals(t):
                    for f in facets_RTI(t, I):
                        assert gcd(*f.coeffs, f.rhs) == 1, (t.to_newick(), I, f)

    def test_coordinate_count(self):
        for t in enumerate_topologies(5):
            for I in order_ideals(t):
                coords = rti_coordinates(t, I)
                assert len(coords) == 2 * t.n_leaves - 2 - len(I)


class TestOracleSensitivity:
    """Negative controls: the hull comparison must notice a wrong H-rep."""

    def test_dropped_facet_detected(self):
        t = parse_newick(FIG_TREE)
        P = build_RT(t)
        broken = replace(P, facets=P.facets[1:])
        assert not h_reps_match(broken)

    def test_extra_valid_inequality_detected(self):
        t = parse_newick(FIG_TREE)
        P = build_RT(t)
        # valid but redundant: sum of all coordinates <= dim
        extra = Inequality((1,) * P.dim, P.dim, "cluster")
        assert all(satisfied_by(extra, v) for v in P.vertices)
        broken = replace(P, facets=P.facets + (extra,))
        assert not h_reps_match(broken)

    def test_dropped_rti_family_detected(self):
        t = parse_newick(FIG_TREE)
        I = frozenset([t.node_at_index(2)])
        P = build_RTI(t, I)
        keep = tuple(
            f for f in P.facets if not (f.kind == "adjacency" and any(
                P.coord_labels[i].startswith("y") for i, c in enumerate(f.coeffs) if c
            ))
        )
        assert len(keep) < len(P.facets)
        assert not h_reps_match(replace(P, facets=keep))

    def test_flipped_facet_detected(self):
        # -a . x <= -b is tight on the same vertices as a . x <= b but
        # violated by every other vertex
        t = parse_newick(FIG_TREE)
        P = build_RT(t)
        f = P.facets[0]
        flipped = Inequality(tuple(-c for c in f.coeffs), -f.rhs, f.kind)
        assert not h_reps_match(replace(P, facets=(flipped,) + P.facets[1:]))

    def test_retagged_root_equality_detected(self):
        t = parse_newick(FIG_TREE)
        P = build_RTI(t, frozenset([t.node_at_index(2)]))
        (eq,) = P.equalities
        facets = tuple(replace(f, kind="cfn_local") if f is eq else f for f in P.facets)
        assert not h_reps_match(replace(P, facets=facets))

    def test_dropped_root_equality_detected(self):
        t = parse_newick(FIG_TREE)
        P = build_RTI(t, frozenset([t.node_at_index(2)]))
        assert not h_reps_match(replace(P, facets=P.inequalities))

    def test_doubled_facet_accepted(self):
        # (2a, 2b) defines the same facet as (a, b)
        t = parse_newick(FIG_TREE)
        P = build_RT(t)
        f = P.facets[0]
        doubled = Inequality(tuple(2 * c for c in f.coeffs), 2 * f.rhs, f.kind)
        assert h_reps_match(replace(P, facets=(doubled,) + P.facets[1:]))


class TestContraction:
    def test_onto_vertices(self):
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                for I in order_ideals(t):
                    for r in [v for v in I if t.parent(v) not in I]:
                        mapped = contract_vertex_map(t, I, r)
                        src = build_RTI(t, I - {r})
                        dst = build_RTI(t, I)
                        assert {mapped(p) for p in src.vertices} == set(
                            dst.vertices
                        )


class TestZigzag:
    def test_map_values(self):
        _, _, phi = caterpillar_zigzag_map(4)
        assert phi((0, 0, 0, 0)) == (0, 1, 0, 1)
        assert phi((1, 0, 0, 0)) == (1, 1, 0, 1)

    def test_determinant_one(self):
        diag, _, _ = caterpillar_zigzag_map(5)
        prod = 1
        for d in diag:
            prod *= d
        assert abs(prod) == 1

    def test_vertex_bijection(self):
        for n in range(1, 7):
            C = caterpillar(n + 1)
            _, _, phi = caterpillar_zigzag_map(n)
            image = {phi(topset_bits(C, s)) for s in enumerate_topsets(C)}
            assert image == set(zigzag_order_polytope_vertices(n))

    def test_order_polytope_vertex_count(self):
        assert len(zigzag_order_polytope_vertices(4)) == 8

    def test_monotone_map_counts_small(self):
        # against a brute-force count
        for n in range(1, 6):
            for m in range(4):
                brute = 0
                for vals in product(range(m + 1), repeat=n):
                    ok = all(
                        vals[i] <= vals[i + 1] if i % 2 == 0 else vals[i] >= vals[i + 1]
                        for i in range(n - 1)
                    )
                    brute += ok
                assert count_monotone_zigzag_maps(n, m) == brute

    def test_dimension_mismatch(self):
        _, _, phi = caterpillar_zigzag_map(3)
        with pytest.raises(TreeError):
            phi((0, 0))
