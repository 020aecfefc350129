from collections import Counter
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import cfnmc.ideal as ideal_mod
from cfnmc.ideal import (
    LiftableOrder,
    MarkedBinomial,
    ToricMatrix,
    _InitialIndex,
    build_matrix,
    construct_generators,
    fiber_connectivity,
    groebner_verify,
    kernel_member,
    marking_consistent_with_weights,
    reducedness_report,
)
from cfnmc.tree import TreeError, enumerate_topologies, is_cluster_tree, parse_newick

from helpers import (
    FIG_TREE,
    fiber_connectivity_by_scan,
    groebner_verify_by_scan,
    quadratic_kernel_oracle,
    reducedness_by_scan,
    reduces_to_zero,
    reduces_to_zero_by_scan,
)

# Reference generator list for the running five-leaf example, marked sides
# first.  The near-miss variant of the fifth binomial (second factor 1010
# instead of 0001) is not a kernel element; see the kernel tests below.
REFERENCE_GENS = [
    (("0000", "0011"), ("0010", "0001")),
    (("1000", "0011"), ("1010", "0001")),
    (("1000", "0011"), ("0010", "1001")),
    (("0000", "1010"), ("1000", "0010")),
    (("0000", "1001"), ("1000", "0001")),
    (("0010", "1001"), ("1010", "0001")),
]


def norm(pairs):
    """Unordered comparison: each binomial as a set of its two monomials."""
    return {frozenset((tuple(sorted(p)), tuple(sorted(m)))) for p, m in pairs}


class TestMatrix:
    def test_two_leaf(self):
        M = build_matrix(parse_newick("(1,2);"))
        assert M.keys == ("0", "1")
        assert M.rows == ((1, 1), (0, 1))

    def test_three_leaf_zero_kernel(self):
        M = build_matrix(parse_newick("((1,2),3);"))
        assert quadratic_kernel_oracle(M) == []

    def test_fig_tree_reference_matrix(self):
        M = build_matrix(parse_newick(FIG_TREE))
        # reference columns of the defining matrix
        reference_cols = {
            (1, 0, 0, 0, 0),
            (1, 1, 0, 0, 0),
            (1, 0, 1, 0, 0),
            (1, 0, 0, 1, 0),
            (1, 0, 0, 0, 1),
            (1, 1, 0, 1, 0),
            (1, 1, 0, 0, 1),
            (1, 0, 0, 1, 1),
        }
        mine = {M.column(k) for k in M.keys}
        assert mine == reference_cols
        assert list(M.keys) == sorted(M.keys)


class TestKernelMember:
    def test_membership_examples(self):
        M = build_matrix(parse_newick(FIG_TREE))
        good = MarkedBinomial(("0000", "0011"), ("0010", "0001"), "oracle")
        assert kernel_member(M, good)
        bad = MarkedBinomial(("0000", "1000"), ("0100", "0010"), "oracle")
        assert not kernel_member(M, bad)

    def test_near_miss_swap_binomial_rejected(self):
        # r_0000 r_1001 - r_1000 r_1010 is not in the kernel; the Swap
        # element r_0000 r_1001 - r_1000 r_0001 is.
        M = build_matrix(parse_newick(FIG_TREE))
        near_miss = MarkedBinomial(("0000", "1001"), ("1000", "1010"), "oracle")
        swap = MarkedBinomial(("0000", "1001"), ("1000", "0001"), "oracle")
        assert not kernel_member(M, near_miss)
        assert kernel_member(M, swap)

    def test_empty(self):
        M = build_matrix(parse_newick(FIG_TREE))
        assert kernel_member(M, MarkedBinomial((), (), "oracle"))

    def test_unknown_key(self):
        M = build_matrix(parse_newick(FIG_TREE))
        with pytest.raises(TreeError):
            kernel_member(M, MarkedBinomial(("1111",), ("0000",), "oracle"))


class TestOracle:
    def test_fig_tree_six(self):
        M = build_matrix(parse_newick(FIG_TREE))
        oracle = quadratic_kernel_oracle(M)
        assert len(oracle) == 6
        assert norm((b.plus, b.minus) for b in oracle) == norm(REFERENCE_GENS)

    def test_two_leaf_empty(self):
        assert quadratic_kernel_oracle(build_matrix(parse_newick("(1,2);"))) == []


class TestConstruction:
    def test_fig_tree_golden(self):
        t = parse_newick(FIG_TREE)
        gens, order = construct_generators(t)
        assert norm((g.plus, g.minus) for g in gens) == norm(REFERENCE_GENS)
        # marked sides agree with the reference left-hand terms
        marked = {(g.plus, g.minus) for g in gens}
        assert marked == {
            (tuple(sorted(p)), tuple(sorted(m))) for p, m in REFERENCE_GENS
        }
        provs = sorted(g.provenance for g in gens)
        assert provs == ["Root", "Root", "Root", "Swap", "Swap", "Swap"]
        assert order.block_kind == "augmentable"

    def test_all_degree_two_kernel_squarefree(self):
        for n in range(3, 7):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                for g in gens:
                    assert g.degree() == 2
                    assert kernel_member(M, g)
                    assert g.initial_squarefree()

    def test_four_leaf_matches_oracle(self):
        for t in enumerate_topologies(4):
            M = build_matrix(t)
            gens, _ = construct_generators(t)
            oracle = quadratic_kernel_oracle(M)
            assert norm((g.plus, g.minus) for g in gens) == norm(
                (b.plus, b.minus) for b in oracle
            )

    def test_small_trees_empty(self):
        for text in ["(1,2);", "((1,2),3);"]:
            gens, _ = construct_generators(parse_newick(text))
            assert gens == []

    def test_oracle_reduces_to_zero(self):
        for n in range(3, 7):
            for t in enumerate_topologies(n):
                gens, _ = construct_generators(t)
                for b in quadratic_kernel_oracle(build_matrix(t)):
                    assert reduces_to_zero(b, gens), (n, t.to_newick(), b)

    def test_block_property_on_cluster_trees(self):
        for n in range(4, 8):
            for t in enumerate_topologies(n):
                if not is_cluster_tree(t):
                    continue
                gens, order = construct_generators(t)
                for g in gens:
                    hi = sum(
                        1 for k in g.plus if order.block_tag[k].startswith("non")
                    )
                    lo = sum(
                        1 for k in g.minus if order.block_tag[k].startswith("non")
                    )
                    assert hi >= lo, (t.to_newick(), g)


class TestGroebner:
    def test_all_shapes_up_to_six(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                assert groebner_verify(M, gens), (n, t.to_newick())

    def test_adversarial_flip_fails(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, _ = construct_generators(t)
        flipped = []
        for i, g in enumerate(gens):
            if i == 0:
                flipped.append(
                    MarkedBinomial(g.minus, g.plus, g.provenance)
                )
            else:
                flipped.append(g)
        assert not groebner_verify(M, flipped)

    def test_empty_set_ok(self):
        t = parse_newick("((1,2),3);")
        assert groebner_verify(build_matrix(t), [])

    def test_non_kernel_rejected(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        bad = MarkedBinomial(("0000", "1000"), ("0100", "0010"), "oracle")
        assert not groebner_verify(M, [bad])


class TestFiberConnectivity:
    def test_fig_tree(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, _ = construct_generators(t)
        assert fiber_connectivity(M, gens, 3)

    def test_single_generator_fails(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, _ = construct_generators(t)
        assert not fiber_connectivity(M, gens[:1], 3)

    def test_three_leaf_trivial(self):
        t = parse_newick("((1,2),3);")
        assert fiber_connectivity(build_matrix(t), [], 4)


class TestReports:
    def test_reducedness_reported(self):
        for n in range(3, 7):
            for t in enumerate_topologies(n):
                gens, order = construct_generators(t)
                rep = reducedness_report(gens)
                assert set(rep) == {"reduced", "violations"}
                assert marking_consistent_with_weights(gens, order)

    def test_marking_consistency_rejects_flips(self):
        for n in range(4, 7):
            for t in enumerate_topologies(n):
                gens, order = construct_generators(t)
                for i, g in enumerate(gens):
                    flipped = list(gens)
                    flipped[i] = replace(g, initial="minus")
                    assert not marking_consistent_with_weights(flipped, order)


class TestOrder:
    def test_compare_is_total_on_distinct(self):
        t = parse_newick(FIG_TREE)
        _, order = construct_generators(t)
        keys = sorted(order.weight)
        for a in keys:
            for b in keys:
                c = order.compare((a,), (b,))
                assert (c == 0) == (a == b)

    def test_weights_exported(self):
        t = parse_newick(FIG_TREE)
        _, order = construct_generators(t)
        assert set(order.weight) == set(order.block_tag)
        assert order.block_kind in ("augmentable", "traversable")


class TestInitialIndex:
    def test_dividing_matches_scan(self):
        t = parse_newick(FIG_TREE)
        keys = build_matrix(t).keys
        gens, _ = construct_generators(t)
        initials = [g.plus for g in gens] + [("0000",), ()]
        index = _InitialIndex(initials)
        for degree in range(4):
            for mono in combinations_with_replacement(keys, degree):
                cm = Counter(mono)
                want = [
                    i
                    for i, ini in enumerate(initials)
                    if all(cm[k] >= c for k, c in Counter(ini).items())
                ]
                got = sorted(j for _, pos in index.dividing(mono) for j in pos)
                assert got == want, mono
                assert index.lowest(mono) == (want[0] if want else None)

    def test_repeated_initial_keeps_positions_ascending(self):
        index = _InitialIndex([("b", "a"), ("c",), ("a", "b")])
        assert index.positions == {("a", "b"): [0, 2], ("c",): [1]}
        assert index.lowest(("a", "b", "c")) == 0


class TestIndexedAgainstScan:
    """The indexed S-pair reduction, reducedness count and fiber walk give
    the verdicts of the linear scans they replace (tests/helpers.py)."""

    def test_groebner_verdicts_all_shapes(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                assert groebner_verify(M, gens) == groebner_verify_by_scan(M, gens)

    def test_groebner_verdicts_single_flips(self):
        rejected = 0
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                for i, g in enumerate(gens):
                    flipped = list(gens)
                    flipped[i] = replace(g, initial="minus")
                    got = groebner_verify(M, flipped)
                    assert got == groebner_verify_by_scan(M, flipped), (t.to_newick(), i)
                    rejected += not got
        assert rejected > 0

    def test_reduces_to_zero_under_flips(self):
        for t in enumerate_topologies(5):
            gens, _ = construct_generators(t)
            oracle = quadratic_kernel_oracle(build_matrix(t))
            for i, g in enumerate(gens):
                flipped = list(gens)
                flipped[i] = replace(g, initial="minus")
                for b in oracle:
                    assert reduces_to_zero(b, flipped) == reduces_to_zero_by_scan(
                        b, flipped
                    ), (t.to_newick(), i, b)

    def test_cyclic_marking_hits_the_cap(self):
        # g and g with the other side marked rewrite into each other forever.
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        g = construct_generators(t)[0][0]
        cyclic = [g, replace(g, initial="minus")]
        assert not groebner_verify(M, cyclic)
        assert not groebner_verify_by_scan(M, cyclic)
        assert not reduces_to_zero(g, cyclic)
        assert not reduces_to_zero_by_scan(g, cyclic)

    def test_reducedness_counts(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                gens, _ = construct_generators(t)
                assert reducedness_report(gens) == reducedness_by_scan(gens), t.to_newick()

    def test_fiber_verdicts_on_prefixes(self):
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                for k in sorted({0, 1, 2, len(gens) // 2, len(gens) - 1, len(gens)}):
                    sub = gens[:k]
                    assert fiber_connectivity(M, sub, 3) == fiber_connectivity_by_scan(
                        M, sub, 3
                    ), (t.to_newick(), k)


FAILING_EIGHT_LEAF = ["(1,((2,3),(4,((5,6),(7,8)))));", "(((1,2),(3,4)),((5,6),(7,8)));"]


def full_and_pruned(M, gens, order):
    """groebner_verify without and with the order; the second skips coprime
    pairs only when the markings pass marking_consistent_with_weights."""
    return groebner_verify(M, gens), groebner_verify(M, gens, order)


class TestPrunedAgainstFull:
    """Given the exported order, groebner_verify skips coprime S-pairs once
    every marking is a leading term under it; its verdicts equal the full
    loop's, and markings the order does not induce fall back to that loop."""

    def test_all_shapes_up_to_seven(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, order = construct_generators(t)
                assert full_and_pruned(M, gens, order) == (True, True), t.to_newick()

    def test_eight_leaf_failures_stay_rejected(self):
        for text in FAILING_EIGHT_LEAF:
            t = parse_newick(text)
            gens, order = construct_generators(t)
            assert full_and_pruned(build_matrix(t), gens, order) == (False, False), text

    def test_eight_leaf_caterpillar(self):
        t = parse_newick("(((((((1,2),3),4),5),6),7),8);")
        gens, order = construct_generators(t)
        assert full_and_pruned(build_matrix(t), gens, order) == (True, True)

    @pytest.mark.slow
    def test_all_shapes_at_eight(self):
        failing = []
        for t in enumerate_topologies(8):
            M = build_matrix(t)
            gens, order = construct_generators(t)
            full, pruned = full_and_pruned(M, gens, order)
            assert full == pruned, t.to_newick()
            if not full:
                failing.append(t.to_newick())
        assert sorted(failing) == sorted(FAILING_EIGHT_LEAF)

    def test_consistent_prefixes(self):
        # prefixes keep the order's markings, so they take the pruned path;
        # most are not Groebner bases of the ideal they generate
        rejected = 0
        for n in range(4, 7):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, order = construct_generators(t)
                for k in sorted({1, 2, 3, len(gens) // 3, len(gens) // 2, len(gens) - 1}):
                    sub = gens[:k]
                    assert marking_consistent_with_weights(sub, order)
                    full, pruned = full_and_pruned(M, sub, order)
                    assert full == pruned, (t.to_newick(), k)
                    rejected += not full
        assert rejected > 0

    def test_single_flips_fall_back(self):
        rejected = 0
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, order = construct_generators(t)
                for i, g in enumerate(gens):
                    flipped = list(gens)
                    flipped[i] = replace(g, initial="minus")
                    assert not marking_consistent_with_weights(flipped, order)
                    got = groebner_verify(M, flipped, order)
                    assert got == groebner_verify_by_scan(M, flipped), (t.to_newick(), i)
                    rejected += not got
        assert rejected > 0

    def test_cyclic_marking_hits_the_cap(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, order = construct_generators(t)
        cyclic = [gens[0], replace(gens[0], initial="minus")]
        assert not groebner_verify(M, cyclic, order)

    def test_zero_binomials_fall_back(self):
        # a - a marks no leading term, so neither takes the pruned path.  The
        # empty one shares no key even with itself, and only the full loop
        # sees its rewriting diverge; a copy of gens[0]'s initial never
        # rewrites, since gens[0] comes first with the same initial.
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, order = construct_generators(t)
        for zero, want in (
            (MarkedBinomial((), (), "oracle"), False),
            (replace(gens[0], minus=gens[0].plus), True),
        ):
            assert not marking_consistent_with_weights([*gens, zero], order)
            assert full_and_pruned(M, [*gens, zero], order) == (want, want)

    def test_coprime_pairs_skipped(self, monkeypatch):
        t = parse_newick("((((1,2),3),4),((5,6),7));")
        M = build_matrix(t)
        gens, order = construct_generators(t)
        calls = []
        normal_form = ideal_mod._normal_form
        monkeypatch.setattr(
            ideal_mod, "_normal_form", lambda *a: calls.append(a[0]) or normal_form(*a)
        )
        assert groebner_verify(M, gens)
        full = len(calls)
        calls.clear()
        assert groebner_verify(M, gens, order)
        g = len(gens)
        overlapping = sum(
            bool(set(a.plus) & set(b.plus))
            for a, b in combinations_with_replacement(gens, 2)
        )
        assert full == g * (g + 1) and len(calls) == 2 * overlapping < full // 2


class TestTopsetEnumeration:
    def test_each_tree_enumerated_once_per_construction(self, monkeypatch):
        calls = []
        original = ideal_mod.enumerate_topsets

        def counting(tree):
            calls.append((tree.to_newick(), tree.interior_nodes))
            return original(tree)

        monkeypatch.setattr(ideal_mod, "enumerate_topsets", counting)
        for n in range(4, 8):
            for t in enumerate_topologies(n):
                calls.clear()
                construct_generators(t)
                assert calls and len(calls) == len(set(calls)), t.to_newick()
