import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc.ehrhart import (
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
    TreeError,
    apply_nni,
    enumerate_topologies,
    nni_triples,
    parse_newick,
)

from helpers import (
    FIG_TREE,
    _is_df_compressed,
    caterpillar,
    count_by_box,
    count_by_sweep,
    count_by_vertex_sums,
    df_compression_audit_by_reps,
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
        assert count_lattice_points(parse_newick(FIG_TREE), 0) == 1

    def test_simplex_m2(self):
        t = parse_newick("((1,2),3);")
        assert count_lattice_points(t, 2) == 6

    def test_m_one_is_vertex_count(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                P = build_RT(t)
                assert count_lattice_points(t, 1) == len(P.vertices) == fibonacci(n)

    def test_scan_equals_vertex_sums(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                P = build_RT(t)
                for m in range(P.dim + 2):
                    assert count_lattice_points(t, m) == count_by_vertex_sums(P, m)

    def test_rti_equals_box(self):
        # mixed-sign local rows and the root equality of every R_T(I), by
        # the sweep; the tree pass counts I = Int(T), which is R_T
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                for ideal in order_ideals(t):
                    P = build_RTI(t, ideal)
                    for m in range(4):
                        where = (t.to_newick(), sorted(t.interior_index(v) for v in ideal), m)
                        box = count_by_box(P, m)
                        assert count_by_sweep(P, m) == box, where
                        if len(ideal) == n - 1:
                            assert count_lattice_points(t, m) == box, where

    @pytest.mark.parametrize(
        "n", [*range(2, 10), pytest.param(10, marks=pytest.mark.slow)]
    )
    def test_tree_pass_equals_sweep(self, n):
        for t in enumerate_topologies(n):
            P = build_RT(t)
            for m in range(n + 1):
                assert count_lattice_points(t, m) == count_by_sweep(P, m), (
                    t.to_newick(), m,
                )

    @settings(max_examples=40, deadline=None)
    @given(random_newick(10).map(parse_newick), st.data())
    def test_random_relabeled_trees_equal_sweep(self, tree, data):
        m = data.draw(st.integers(0, tree.n_leaves))
        assert count_lattice_points(tree, m) == count_by_sweep(build_RT(tree), m)

    @settings(max_examples=60, deadline=None)
    @given(random_newick().map(parse_newick), st.integers(0, 4))
    def test_random_shapes_equal_vertex_sums(self, tree, m):
        assert count_lattice_points(tree, m) == count_by_vertex_sums(build_RT(tree), m)

    def test_negative_dilate(self):
        with pytest.raises(TreeError):
            count_lattice_points(parse_newick(FIG_TREE), -1)

    @pytest.mark.slow
    def test_eleven_leaf_counts_equal_zigzag_maps(self):
        # the caterpillar's counts, by its zig-zag order polytope, are the
        # reference each 11-leaf shape must meet on its own
        want = [count_monotone_zigzag_maps(10, m) for m in range(12)]
        for t in enumerate_topologies(11, 11):
            assert [count_lattice_points(t, m) for m in range(12)] == want, t.to_newick()


class TestEhrhartPolynomial:
    def test_simplex(self):
        t = parse_newick("((1,2),3);")
        poly = ehrhart_polynomial(t)
        # (m+1)(m+2)/2
        assert poly.coefficients == (
            Fraction(1), Fraction(3, 2), Fraction(1, 2),
        )

    def test_caterpillar5_lead(self):
        poly = ehrhart_polynomial(caterpillar(5))
        assert poly.coefficients[-1] * 24 == 5

    def test_constant_term(self):
        for t in enumerate_topologies(5):
            assert ehrhart_polynomial(t).coefficients[0] == 1

    def test_shape_independence(self):
        for n in range(2, 8):
            polys = {ehrhart_polynomial(t).coefficients for t in enumerate_topologies(n)}
            assert len(polys) == 1, n

    def test_integer_values(self):
        poly = ehrhart_polynomial(caterpillar(6))
        for m in range(10):
            assert poly(m) >= 1

    @pytest.mark.parametrize("shifted", ["m=1", "m=dim+1"])
    def test_miscount_fails_out_of_sample_check(self, monkeypatch, shifted):
        # one count off by one leaves a nonzero forward difference of order
        # dim + 1, whichever dilate it is
        import cfnmc.ehrhart as eh

        t = caterpillar(6)
        bad = 1 if shifted == "m=1" else t.n_leaves
        count = eh.count_lattice_points
        monkeypatch.setattr(
            eh, "count_lattice_points", lambda tree, m: count(tree, m) + (m == bad)
        )
        with pytest.raises(ValueError, match="out-of-sample check"):
            ehrhart_polynomial(t)

    def test_h_star_vector(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                poly = ehrhart_polynomial(t)
                hstar = poly.h_star_vector()
                assert all(h >= 0 for h in hstar)
                assert hstar[0] == 1
                assert sum(hstar) == poly.normalized_volume


class TestVolume:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_zigzag_volume(self, n):
        want = euler_zigzag(n - 1)
        for t in enumerate_topologies(n):
            assert normalized_volume(t) == want

    def test_caterpillar_matches_order_polytope_counts(self):
        for n in range(1, 7):
            t = caterpillar(n + 1)
            for m in range(6):
                assert count_lattice_points(t, m) == count_monotone_zigzag_maps(n, m)


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
        for n in (5, 6, 7):
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
        from cfnmc.ehrhart import _blocked
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

    def test_audit_equals_rep_list_oracle(self):
        # the single pass picks the same minimal representation per point as
        # listing every representation, on every move with n <= 7
        for n in range(3, 8):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    memo = {}
                    for m in (1, 2, 3):
                        assert df_compression_audit(t, trip, m, memo) == (
                            df_compression_audit_by_reps(t, trip, m)
                        ), (t.to_newick(), trip, m)

    @given(
        newick=random_newick(max_leaves=7),
        pick=st.integers(0, 10**6),
        m=st.integers(1, 3),
        flip_seed=st.integers(0, 2**32),
        flip_rate=st.sampled_from([0.05, 0.2, 0.5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_audit_equals_oracle_on_doctored_flags(
        self, newick, pick, m, flip_seed, flip_rate
    ):
        # flipped maintaining and blocked flags reach the counterexample
        # branch and the tie-break between minimal representations, which
        # no real tree does
        t = parse_newick(newick)
        triples = nni_triples(t)
        if not triples:
            return
        trip = triples[pick % len(triples)]
        memo = {}
        df_compression_audit(t, trip, 1, memo)
        ((key, (topsets, packed, maintaining, blocked)),) = memo.items()
        rng = random.Random(flip_seed)
        maintaining = {
            s: keep != (rng.random() < flip_rate) for s, keep in maintaining.items()
        }
        blocked = {
            s: tuple(x != (rng.random() < flip_rate) for x in pair)
            for s, pair in blocked.items()
        }
        doctored = {key: (topsets, packed, maintaining, blocked)}
        assert df_compression_audit(t, trip, m, doctored) == (
            df_compression_audit_by_reps(t, trip, m, doctored)
        )

    def test_doctored_flags_reach_counterexamples(self):
        # every summand nonmaintaining and nothing blocked: each point with
        # a summand marking b and one avoiding b and c is not compressed
        t = caterpillar(6)
        for trip in nni_triples(t):
            memo = {}
            df_compression_audit(t, trip, 1, memo)
            ((key, (topsets, packed, maintaining, blocked)),) = memo.items()
            doctored = {
                key: (
                    topsets,
                    packed,
                    dict.fromkeys(topsets, False),
                    dict.fromkeys(topsets, (False, False)),
                )
            }
            for m in (2, 3):
                audit = df_compression_audit(t, trip, m, doctored)
                assert not audit["all_compressed"]
                assert audit == df_compression_audit_by_reps(t, trip, m, doctored)

    def test_shared_memo_counts_each_tree_once(self, monkeypatch):
        # a tree is counted only at a (Newick string, dilate) not counted yet
        import cfnmc.ehrhart as eh

        counted = []
        count = eh.count_lattice_points
        monkeypatch.setattr(
            eh,
            "count_lattice_points",
            lambda t, m: counted.append((t.to_newick(), m)) or count(t, m),
        )
        memo = {}
        newicks = set()
        for t in enumerate_topologies(6):
            for trip in nni_triples(t):
                newicks |= {t.to_newick(), apply_nni(t, trip).to_newick()}
                for m in (1, 2, 3):
                    nni_count_check(t, trip, m, memo)
        want = sorted((newick, m) for newick in newicks for m in (1, 2, 3))
        assert sorted(counted) == sorted(memo) == want

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
