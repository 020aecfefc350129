import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import pytest

import cfnmc.ideal as ideal_mod
import helpers
from cfnmc.ehrhart import normalized_volume
from cfnmc.ideal import (
    LiftableOrder,
    MarkedBinomial,
    ToricMatrix,
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
    InitialIndex,
    construct_generators_by_compare,
    determinant_by_permutations,
    fiber_connectivity_by_scan,
    groebner_verify_by_scan,
    groebner_verify_by_spairs,
    maximal_cliques_by_subsets,
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
        mine = set(zip(*M.rows))
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
                    assert len(g.plus) == len(g.minus) == 2
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

    @pytest.mark.parametrize(
        "n", [*range(2, 9), pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_markings_and_no_repeats(self, n):
        # markings decided on mask weights and key pairs equal one
        # LiftableOrder.compare call per generator (plus, minus, provenance
        # and list order); and with no dedupe pass, every generator is
        # nontrivial, squarefree on both sides and unique up to sign
        for t in enumerate_topologies(n):
            gens, _ = construct_generators(t)
            assert gens == construct_generators_by_compare(t), t.to_newick()
            assert len(norm((g.plus, g.minus) for g in gens)) == len(gens)
            for g in gens:
                assert g.plus != g.minus, (t.to_newick(), g)
                assert len(set(g.plus)) == len(set(g.minus)) == 2, (t.to_newick(), g)

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


def certificate_inputs(t):
    """(matrix, generators, order, volume): the arguments groebner-check
    passes to groebner_verify for tree t."""
    gens, order = construct_generators(t)
    return build_matrix(t), gens, order, normalized_volume(t)


class TestGroebner:
    def test_all_shapes_up_to_six(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                assert groebner_verify(*certificate_inputs(t)), (n, t.to_newick())

    def test_adversarial_flip_fails(self):
        M, gens, order, volume = certificate_inputs(parse_newick(FIG_TREE))
        flipped = [MarkedBinomial(gens[0].minus, gens[0].plus, gens[0].provenance)]
        assert not groebner_verify(M, flipped + gens[1:], order, volume)

    def test_empty_set_ok(self):
        M, gens, order, volume = certificate_inputs(parse_newick("((1,2),3);"))
        assert gens == [] and volume == 1
        assert groebner_verify(M, [], order, volume)

    def test_non_kernel_rejected(self):
        M, gens, order, volume = certificate_inputs(parse_newick(FIG_TREE))
        bad = MarkedBinomial(("0000", "1000"), ("0100", "0010"), "oracle")
        assert not groebner_verify(M, [bad], order, volume)
        # an existing initial over a tail outside its fiber leaves the
        # initial ideal, and every other check, as it was
        g = gens[0]
        tail = next(
            t
            for t in combinations(M.keys, 2)
            if order.compare(g.plus, t) > 0 and M.monomial_sum(t) != M.monomial_sum(g.plus)
        )
        stray = MarkedBinomial(g.plus, tail, "x")
        assert marking_consistent_with_weights([stray], order)
        assert not groebner_verify(M, gens + [stray], order, volume)


class TestCertificate:
    """groebner_verify counts the facets of the initial complex; its verdicts
    equal those of the S-pair oracle (tests/helpers.py) on every shape
    small enough to run it, and it rejects every input whose initials are
    not in(I_A) or that breaks one of its premises."""

    def test_agrees_with_spairs_up_to_seven(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                M, gens, order, volume = certificate_inputs(t)
                got = groebner_verify(M, gens, order, volume)
                assert (got, groebner_verify_by_spairs(M, gens, order)) == (True, True), (
                    t.to_newick()
                )

    def test_eight_leaf_failures_rejected(self):
        for text in FAILING_EIGHT_LEAF:
            assert not groebner_verify(*certificate_inputs(parse_newick(text))), text

    @pytest.mark.slow
    def test_agrees_with_spairs_at_eight(self):
        failing = []
        for t in enumerate_topologies(8):
            M, gens, order, volume = certificate_inputs(t)
            got = groebner_verify(M, gens, order, volume)
            assert got == groebner_verify_by_spairs(M, gens, order), t.to_newick()
            if not got:
                failing.append(t.to_newick())
        assert sorted(failing) == sorted(FAILING_EIGHT_LEAF)

    def test_single_flips_rejected(self):
        for n in range(4, 7):
            for t in enumerate_topologies(n):
                M, gens, order, volume = certificate_inputs(t)
                for i, g in enumerate(gens):
                    flipped = list(gens)
                    flipped[i] = replace(g, plus=g.minus, minus=g.plus)
                    assert not groebner_verify(M, flipped, order, volume), (t.to_newick(), i)

    def test_prefixes_certified_exactly_with_every_initial(self):
        # some shapes repeat an initial, so a proper prefix can hold them all
        verdicts = Counter()
        for n in range(4, 7):
            for t in enumerate_topologies(n):
                M, gens, order, volume = certificate_inputs(t)
                initials = {g.plus for g in gens}
                for k in range(len(gens)):
                    want = {g.plus for g in gens[:k]} == initials
                    got = groebner_verify(M, gens[:k], order, volume)
                    assert got == want, (t.to_newick(), k)
                    verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    def test_wrong_volume_rejected(self):
        for n in range(3, 7):
            for t in enumerate_topologies(n):
                M, gens, order, volume = certificate_inputs(t)
                assert groebner_verify(M, gens, order, volume)
                for wrong in (volume - 1, volume + 1):
                    assert not groebner_verify(M, gens, order, wrong), (t.to_newick(), wrong)

    def test_facet_of_wrong_size_rejected(self):
        # with no generator the one facet is all 3 columns, while a facet of
        # the segment's triangulation has 2; the count 1 and the first two
        # columns' determinant would pass
        M = ToricMatrix(("a", "b", "c"), ((1, 1, 1), (0, 1, 2)))
        order = LiftableOrder({"a": 0, "b": 0, "c": 0}, {}, "traversable")
        assert not groebner_verify(M, [], order, 1)

    def test_facet_of_determinant_two_rejected(self):
        # one facet {0, 1} and volume 1, but the columns span a sublattice
        # of index 2
        order = LiftableOrder({"0": 0, "1": 0}, {}, "traversable")
        for rows, want in ((((1, 1), (0, 1)), True), (((1, 1), (0, 2)), False)):
            M = ToricMatrix(("0", "1"), rows)
            assert groebner_verify(M, [], order, 1) == want, rows

    def test_square_initial_rejected(self):
        # columns (1,0), (1,1), (1,2): b*b - a*c is in the kernel, and the
        # segment has volume 2.  Marking a*c certifies; marking b*b, the
        # leading term when b weighs most, is not squarefree.
        M = ToricMatrix(("a", "b", "c"), ((1, 1, 1), (0, 1, 2)))
        for weight, plus, minus, want in (
            ({"a": 1, "b": 0, "c": 1}, ("a", "c"), ("b", "b"), True),
            ({"a": 0, "b": 1, "c": 0}, ("b", "b"), ("a", "c"), False),
        ):
            order = LiftableOrder(weight, {}, "traversable")
            g = MarkedBinomial(plus, minus, "x")
            assert kernel_member(M, g) and marking_consistent_with_weights([g], order)
            assert groebner_verify(M, [g], order, 2) == want, plus

    def test_maximal_cliques_match_subsets(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 9)
            adj = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < rng.choice((0.2, 0.5, 0.8)):
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            got = list(ideal_mod._maximal_cliques(adj))
            assert len(got) == len(set(got)), adj
            assert set(got) == maximal_cliques_by_subsets(adj), adj

    def test_determinant_matches_leibniz(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 5)
            rows = [[rng.choice((0, 0, 1, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
            assert ideal_mod._determinant(rows) == determinant_by_permutations(rows), rows

    def test_cubic_generator_rejected(self):
        # a quadric times a key outside its initial: a squarefree kernel
        # cubic whose marking the order induces, and whose initial adds
        # nothing to the initial ideal
        M, gens, order, volume = certificate_inputs(parse_newick(FIG_TREE))
        g = gens[0]
        k = next(k for k in M.keys if k not in g.plus)
        cubic = MarkedBinomial(tuple(sorted((k, *g.plus))), tuple(sorted((k, *g.minus))), "x")
        assert kernel_member(M, cubic) and cubic.initial_squarefree()
        assert marking_consistent_with_weights([cubic], order)
        assert groebner_verify(M, gens, order, volume)
        assert not groebner_verify(M, gens + [cubic], order, volume)


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

    @pytest.mark.slow
    def test_all_shapes_at_eight_to_degree_four(self):
        # the two shapes whose markings fail the S-pair check still span I_A
        shapes = 0
        for t in enumerate_topologies(8):
            gens, _ = construct_generators(t)
            assert fiber_connectivity(build_matrix(t), gens, 4), t.to_newick()
            shapes += 1
        assert shapes == 23

    def test_non_kernel_move_fails(self):
        # the source 000*011 shares its fiber with 001*010, so the walk
        # reaches the move; its target 000*100 lies in another fiber
        t = parse_newick("((1,2),(3,4));")
        M = build_matrix(t)
        gens, _ = construct_generators(t)
        bad = MarkedBinomial(("000", "011"), ("000", "100"), "x")
        assert not kernel_member(M, bad)
        for cap in (1, 2, 3):
            assert not fiber_connectivity(M, gens + [bad], cap)
            assert not fiber_connectivity_by_scan(M, gens + [bad], cap)
        assert fiber_connectivity(M, gens, 3)
        assert fiber_connectivity_by_scan(M, gens, 3)

    def test_unknown_key_rejected(self):
        t = parse_newick("((1,2),(3,4));")
        M = build_matrix(t)
        gens, _ = construct_generators(t)
        bad = MarkedBinomial(("000", "zzz"), ("000", "011"), "x")
        with pytest.raises(TreeError, match="unknown column key 'zzz'"):
            fiber_connectivity(M, gens + [bad], 2)

    def test_empty_cap_rejected(self):
        # a cap below 1 would check nothing
        M = build_matrix(parse_newick(FIG_TREE))
        for cap in (0, -1):
            with pytest.raises(TreeError, match="degree cap"):
                fiber_connectivity(M, [], cap)

    def test_non_binary_matrix_rejected(self):
        M = ToricMatrix(("a", "b"), ((1, 1), (2, 0)))
        with pytest.raises(TreeError, match="0/1"):
            fiber_connectivity(M, [], 2)


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
                    flipped[i] = replace(g, plus=g.minus, minus=g.plus)
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
        index = InitialIndex(initials)
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
        index = InitialIndex([("b", "a"), ("c",), ("a", "b")])
        assert index.positions == {("a", "b"): [0, 2], ("c",): [1]}
        assert index.lowest(("a", "b", "c")) == 0


class TestIndexedAgainstScan:
    """The indexed S-pair oracle, reducedness count and fiber walk give the
    verdicts of the linear scans they replace (tests/helpers.py)."""

    def test_groebner_verdicts_all_shapes(self):
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                assert groebner_verify_by_spairs(M, gens) == groebner_verify_by_scan(M, gens)

    def test_groebner_verdicts_single_flips(self):
        rejected = 0
        for n in range(2, 6):
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                for i, g in enumerate(gens):
                    flipped = list(gens)
                    flipped[i] = replace(g, plus=g.minus, minus=g.plus)
                    got = groebner_verify_by_spairs(M, flipped)
                    assert got == groebner_verify_by_scan(M, flipped), (t.to_newick(), i)
                    rejected += not got
        assert rejected > 0

    def test_reduces_to_zero_under_flips(self):
        for t in enumerate_topologies(5):
            gens, _ = construct_generators(t)
            oracle = quadratic_kernel_oracle(build_matrix(t))
            for i, g in enumerate(gens):
                flipped = list(gens)
                flipped[i] = replace(g, plus=g.minus, minus=g.plus)
                for b in oracle:
                    assert reduces_to_zero(b, flipped) == reduces_to_zero_by_scan(
                        b, flipped
                    ), (t.to_newick(), i, b)

    def test_cyclic_marking_hits_the_cap(self):
        # g and g with the other side marked rewrite into each other forever.
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        g = construct_generators(t)[0][0]
        cyclic = [g, replace(g, plus=g.minus, minus=g.plus)]
        assert not groebner_verify_by_spairs(M, cyclic)
        assert not groebner_verify_by_scan(M, cyclic)
        assert not reduces_to_zero(g, cyclic)
        assert not reduces_to_zero_by_scan(g, cyclic)

    def test_reducedness_counts(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                gens, _ = construct_generators(t)
                assert reducedness_report(gens) == reducedness_by_scan(gens), t.to_newick()

    @pytest.mark.slow
    def test_reducedness_counts_at_eight_leaves(self):
        for t in enumerate_topologies(8):
            gens, _ = construct_generators(t)
            assert reducedness_report(gens) == reducedness_by_scan(gens), t.to_newick()

    def test_reducedness_counts_on_unconstructed_inputs(self):
        # quadric inputs the construction never makes: no generator, two
        # generators sharing an initial, a square initial, a tail equal to
        # its own initial, one generator listed twice.  Terms of other
        # degrees are refused: a cubic beside the quadrics, a cubic tail its
        # own initial divides, and both with the quadric cases
        t = parse_newick(FIG_TREE)
        gens, _ = construct_generators(t)
        g = gens[0]
        cubic = MarkedBinomial((g.plus[0], *g.plus), (g.plus[0], *g.minus), "x")
        shared = MarkedBinomial(g.plus, gens[1].minus, "x")
        square = MarkedBinomial((g.minus[0], g.minus[0]), g.plus, "x")
        zero = MarkedBinomial(g.plus, g.plus, "x")
        own = MarkedBinomial(g.plus, (*g.plus, g.minus[0]), "x")
        counts = []
        for case in ([], gens + [shared], gens + [square], gens + [zero], [g, g]):
            rep = reducedness_report(case)
            assert rep == reducedness_by_scan(case), case
            counts.append(rep["violations"])
        assert counts[0] == 0 and all(counts[1:]), counts
        for case in (gens + [cubic], gens + [own], gens + [cubic, shared, square, own]):
            with pytest.raises(TreeError, match="quadrics"):
                reducedness_report(case)

    def test_fiber_verdicts_on_prefixes(self):
        # prefixes and seeded random subsets of the generators, caps 1-4 up
        # to five leaves and cap 3 at six
        rng = random.Random(13)
        verdicts = Counter()
        for n in range(2, 7):
            caps = (3,) if n == 6 else (1, 2, 3, 4)
            for t in enumerate_topologies(n):
                M = build_matrix(t)
                gens, _ = construct_generators(t)
                ks = sorted({0, 1, 2, len(gens) // 2, len(gens) - 1, len(gens)})
                subsets = [gens[:k] for k in ks]
                subsets += [rng.sample(gens, rng.randint(0, len(gens))) for _ in range(4)]
                for sub in subsets:
                    for cap in caps:
                        got = fiber_connectivity(M, sub, cap)
                        assert got == fiber_connectivity_by_scan(M, sub, cap), (
                            t.to_newick(),
                            len(sub),
                            cap,
                        )
                        verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    def test_fiber_verdicts_past_degree_two(self):
        # On a CFN-MC matrix every disconnection shows by degree 2, as the
        # ideal is generated by quadrics.  The edge matrix of the bowtie
        # graph (triangles 123 and 345 sharing vertex 3) has a cubic
        # generator, so with no moves it is connected up to degree 2 and
        # disconnected at 3 and 4.
        keys = ("12", "23", "31", "34", "45", "53")
        rows = [(1,) * len(keys)]
        rows += [tuple(int(str(v) in k) for k in keys) for v in range(1, 6)]
        M = ToricMatrix(keys, tuple(rows))
        cubic = MarkedBinomial(("12", "34", "53"), ("23", "31", "45"), "x")
        assert kernel_member(M, cubic)
        for gens, expected in (([], [True, True, False, False]), ([cubic], [True] * 4)):
            for cap, want in enumerate(expected, start=1):
                assert fiber_connectivity(M, gens, cap) == want, (gens, cap)
                assert fiber_connectivity_by_scan(M, gens, cap) == want, (gens, cap)


FAILING_EIGHT_LEAF = ["(1,((2,3),(4,((5,6),(7,8)))));", "(((1,2),(3,4)),((5,6),(7,8)));"]


def full_and_pruned(M, gens, order):
    """groebner_verify_by_spairs without and with the order; the second skips
    coprime pairs only when the markings pass
    marking_consistent_with_weights."""
    return groebner_verify_by_spairs(M, gens), groebner_verify_by_spairs(M, gens, order)


class TestPrunedAgainstFull:
    """Given the exported order, groebner_verify_by_spairs skips coprime
    S-pairs once every marking is a leading term under it; its verdicts
    equal the full loop's, and markings the order does not induce fall back
    to that loop."""

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
                    flipped[i] = replace(g, plus=g.minus, minus=g.plus)
                    assert not marking_consistent_with_weights(flipped, order)
                    got = groebner_verify_by_spairs(M, flipped, order)
                    assert got == groebner_verify_by_scan(M, flipped), (t.to_newick(), i)
                    rejected += not got
        assert rejected > 0

    def test_cyclic_marking_hits_the_cap(self):
        t = parse_newick(FIG_TREE)
        M = build_matrix(t)
        gens, order = construct_generators(t)
        cyclic = [gens[0], replace(gens[0], plus=gens[0].minus, minus=gens[0].plus)]
        assert not groebner_verify_by_spairs(M, cyclic, order)

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
        normal_form = helpers._normal_form
        monkeypatch.setattr(
            helpers, "_normal_form", lambda *a: calls.append(a[0]) or normal_form(*a)
        )
        assert groebner_verify_by_spairs(M, gens)
        full = len(calls)
        calls.clear()
        assert groebner_verify_by_spairs(M, gens, order)
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
