from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc.ehrhart import (
    EhrhartPolynomial,
    count_lattice_points,
    df_compression_audit,
    ehrhart_polynomial,
    euler_zigzag,
    fibonacci,
    nni_count_check,
    normalized_volume,
)
from cfnmc.polytope import build_RT, build_RTI, count_monotone_zigzag_maps
from cfnmc.tree import (
    NniTriple,
    TreeError,
    enumerate_topologies,
    nni_triples,
    parse_newick,
)

from helpers import (
    FIG_TREE,
    caterpillar,
    count_by_box,
    count_by_vertex_sums,
    order_ideals,
    random_newick,
)


class TestSequences:
    def test_euler_zigzag(self):
        assert [euler_zigzag(n) for n in range(8)] == [1, 1, 1, 2, 5, 16, 61, 272]

    def test_fibonacci(self):
        assert [fibonacci(n) for n in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


class TestCounting:
    def test_m_zero(self):
        assert count_lattice_points(build_RT(parse_newick(FIG_TREE)), 0) == 1

    def test_simplex_m2(self):
        t = parse_newick("((1,2),3);")
        assert count_lattice_points(build_RT(t), 2) == 6

    def test_m_one_is_vertex_count(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                P = build_RT(t)
                assert count_lattice_points(P, 1) == len(P.vertices) == fibonacci(n)

    def test_scan_equals_vertex_sums(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                P = build_RT(t)
                for m in range(P.dim + 2):
                    assert count_lattice_points(P, m) == count_by_vertex_sums(P, m)

    def test_rti_equals_box(self):
        # mixed-sign local rows and the root equality of every R_T(I)
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                for ideal in order_ideals(t):
                    P = build_RTI(t, ideal)
                    for m in range(4):
                        assert count_lattice_points(P, m) == count_by_box(P, m), (
                            t.to_newick(), sorted(t.interior_index(v) for v in ideal), m,
                        )

    @settings(max_examples=60, deadline=None)
    @given(random_newick().map(parse_newick), st.integers(0, 4))
    def test_random_shapes_equal_vertex_sums(self, tree, m):
        P = build_RT(tree)
        assert count_lattice_points(P, m) == count_by_vertex_sums(P, m)

    def test_negative_dilate(self):
        with pytest.raises(TreeError):
            count_lattice_points(build_RT(parse_newick(FIG_TREE)), -1)


class TestEhrhartPolynomial:
    def test_simplex(self):
        t = parse_newick("((1,2),3);")
        poly = ehrhart_polynomial(build_RT(t))
        # (m+1)(m+2)/2
        assert poly.coefficients == (
            Fraction(1), Fraction(3, 2), Fraction(1, 2),
        )

    def test_caterpillar5_lead(self):
        poly = ehrhart_polynomial(build_RT(caterpillar(5)))
        assert poly.coefficients[-1] * 24 == 5

    def test_constant_term(self):
        for t in enumerate_topologies(5):
            assert ehrhart_polynomial(build_RT(t)).coefficients[0] == 1

    def test_shape_independence(self):
        for n in range(2, 8):
            polys = {
                ehrhart_polynomial(build_RT(t)).coefficients
                for t in enumerate_topologies(n)
            }
            assert len(polys) == 1, n

    def test_integer_values(self):
        poly = ehrhart_polynomial(build_RT(caterpillar(6)))
        for m in range(10):
            assert poly(m) >= 1

    def test_h_star_vector(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                poly = ehrhart_polynomial(build_RT(t))
                hstar = poly.h_star_vector()
                assert all(h >= 0 for h in hstar)
                assert hstar[0] == 1
                assert sum(hstar) == poly.normalized_volume


class TestVolume:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_zigzag_volume(self, n):
        want = euler_zigzag(n - 1)
        for t in enumerate_topologies(n):
            assert normalized_volume(build_RT(t)) == want

    def test_caterpillar_matches_order_polytope_counts(self):
        for n in range(1, 7):
            P = build_RT(caterpillar(n + 1))
            for m in range(6):
                assert count_lattice_points(P, m) == count_monotone_zigzag_maps(n, m)


class TestNniCounts:
    def test_five_leaf_pair(self):
        t = caterpillar(5)
        trip = nni_triples(t)[0]
        for m in (1, 2):
            assert nni_count_check(t, trip, m)["equal"]

    def test_m_one_is_fibonacci(self):
        t = caterpillar(6)
        trip = nni_triples(t)[0]
        res = nni_count_check(t, trip, 1)
        assert res["countT"] == res["countT2"] == fibonacci(6)

    def test_audit_all_pairs_small(self):
        for n in (5, 6):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    for m in (1, 2, 3):
                        audit = df_compression_audit(t, trip, m)
                        assert audit["all_compressed"], (n, trip, m)

    def test_audit_rejects_large_m(self):
        with pytest.raises(TreeError):
            df_compression_audit(caterpillar(5), nni_triples(caterpillar(5))[0], 4)

    def test_zero_nonmaintaining_rep_trivially_compressed(self):
        # a representation whose summands are all maintaining satisfies both
        # compression conditions vacuously
        from cfnmc.ehrhart import _blocked, _is_df_compressed
        from cfnmc.paths import classify_maintaining, enumerate_topsets

        t = caterpillar(5)
        for trip in nni_triples(t):
            classes = {
                s: classify_maintaining(t, trip, s)[0] for s in enumerate_topsets(t)
            }
            blocked = _blocked(t, trip, classes)
            maintaining = [s for s, keep in classes.items() if keep]
            for s1 in maintaining:
                for s2 in maintaining:
                    assert _is_df_compressed(trip, [s1, s2], classes, blocked)

    def test_shared_memo_builds_each_polytope_once(self, monkeypatch):
        # R_T is built only for a (facets, dilate) not counted yet
        import cfnmc.ehrhart as eh

        built = []
        build_rt = eh.build_RT
        monkeypatch.setattr(eh, "build_RT", lambda t: built.append(t) or build_rt(t))
        memo = {}
        for t in enumerate_topologies(6):
            for trip in nni_triples(t):
                for m in (1, 2, 3):
                    nni_count_check(t, trip, m, memo)
        assert len(built) == len(memo) == 27

    def test_audit_memo_classifies_each_topset_once(self, monkeypatch):
        # one memo per move: every dilate reuses the classification, and
        # the audits equal the ones made without a memo
        import cfnmc.ehrhart as eh
        from cfnmc.paths import enumerate_topsets

        classified = []
        classify = eh.classify_maintaining
        monkeypatch.setattr(
            eh,
            "classify_maintaining",
            lambda t, trip, s: classified.append(s) or classify(t, trip, s),
        )
        for t in enumerate_topologies(6):
            for trip in nni_triples(t):
                memo = {}
                classified.clear()
                audits = [df_compression_audit(t, trip, m, memo) for m in (1, 2, 3)]
                assert sorted(classified) == sorted(enumerate_topsets(t))
                assert audits == [df_compression_audit(t, trip, m) for m in (1, 2, 3)]

    def test_counts_magree_m_up_to_4(self):
        for n in (5, 6):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    for m in range(1, 5):
                        assert nni_count_check(t, trip, m)["equal"]
