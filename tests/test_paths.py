import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfnmc.paths import (
    classify_maintaining,
    enumerate_topsets,
    is_blocked,
    is_valid_top_vector,
    path_systems,
    topset_key,
    traversability,
    vertex_bijection,
)
from cfnmc.tree import (
    TreeError,
    apply_nni,
    enumerate_topologies,
    nni_triples,
    parse_newick,
)

from helpers import (
    BLOCKED_TREE,
    FIG_TREE,
    fib,
    labeling_edges_by_parity,
    mask_of,
    named_interior,
    random_newick,
    sorted_by_index_tuples,
    topset_key_by_scan,
    topset_of_edges,
    topsets_by_labelings,
)

PARAM_TREE = "(((1,2),(3,4)),(5,6));"  # six-leaf tree of the transform example


def labeling_of(tree, mask) -> tuple:
    """The labeling whose 1-labeled leaves have the leaf mask: the leaf with
    the i-th smallest label is bit n-1-i."""
    n = tree.n_leaves
    return tuple(mask >> (n - 1 - i) & 1 for i in range(n))


def systems_by_labeling(tree) -> dict:
    """path_systems keyed by labeling tuple, in mask order."""
    return {labeling_of(tree, m): (edges, tops) for m, edges, tops in path_systems(tree)}


def edges(tree, labeling) -> int:
    return systems_by_labeling(tree)[tuple(labeling)][0]


def tops(tree, labeling) -> int:
    return systems_by_labeling(tree)[tuple(labeling)][1]


# Every shape on 2..9 leaves in tier-1, and on 10 leaves with -m slow.
LEAVES_UP_TO_TEN = [*range(2, 10), pytest.param(10, marks=pytest.mark.slow)]


class TestEvenLabelings:
    def test_small(self):
        # the even labelings in lexicographic order, which is mask order
        assert list(systems_by_labeling(parse_newick("(1,2);"))) == [(0, 0), (1, 1)]
        assert list(systems_by_labeling(parse_newick("((1,2),3);"))) == [
            (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
        ]

    def test_count_and_membership(self):
        labs = list(systems_by_labeling(parse_newick(PARAM_TREE)))
        assert len(labs) == 32
        assert (1, 1, 1, 0, 1, 0) in labs


class TestPathSystems:
    def test_empty(self):
        t = parse_newick(FIG_TREE)
        assert edges(t, (0,) * 5) == 0

    def test_two_leaf(self):
        # one path through the root: both leaf edges used
        t = parse_newick("(1,2);")
        assert edges(t, (1, 1)) == sum(1 << v for v in t.leaves)

    def test_param_example_bold_edges(self):
        # the worked example: labeling (1,1,1,0,1,0) uses the edges above
        # leaves 1,2,3,5 and above v2 (not v1's other side) etc.
        t = parse_newick(PARAM_TREE)
        names = named_interior(t, "abcde")  # v1..v5 in canonical order
        used = edges(t, (1, 1, 1, 0, 1, 0))
        leaf = {t.leaf_label(v): v for v in t.leaves}
        want = {
            leaf[1], leaf[2],          # cherry path under v3
            leaf[3], names["d"],       # leaf 3 up through v4
            names["b"],                # v2 up to v1
            names["e"], leaf[5],       # right: v5 down to leaf 5
        }
        assert used == sum(1 << v for v in want)
        # two paths: four leaf endpoints
        assert sum(used >> v & 1 for v in t.leaves) == 4

    def test_endpoints_are_marked_leaves(self):
        # degree property: a leaf's edge is used iff the leaf is labeled 1,
        # and every interior node meets 0 or 2 used edges, so the used edges
        # are disjoint paths ending exactly at the 1-labeled leaves
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                for lab, (used, _) in systems_by_labeling(t).items():
                    assert [used >> v & 1 for v in t.leaves] == list(lab)
                    for v in t.interior_nodes:
                        incident = list(t.children(v))
                        if v != t.root:
                            incident.append(v)
                        assert sum(used >> k & 1 for k in incident) in (0, 2)

    @pytest.mark.parametrize("n", LEAVES_UP_TO_TEN)
    def test_leaf_masks_equal_parity_walk(self, n):
        # every even mask once, in order, with the parity walk's edges and
        # tops
        even = [m for m in range(1 << n) if not m.bit_count() % 2]
        for t in enumerate_topologies(n):
            systems = path_systems(t)
            assert [m for m, _, _ in systems] == even
            for m, used, top in systems:
                want = labeling_edges_by_parity(t, labeling_of(t, m))
                assert (used, top) == (want, topset_of_edges(t, want)), t.to_newick()

    @settings(max_examples=200, deadline=None)
    @given(random_newick(10).map(parse_newick), st.data())
    def test_random_labelings_against_parity_walk(self, t, data):
        # random labels and child orders: the leaf bits follow the labels
        m, used, top = data.draw(st.sampled_from(path_systems(t)))
        want = labeling_edges_by_parity(t, labeling_of(t, m))
        assert (used, top) == (want, topset_of_edges(t, want))


class TestTopVectors:
    def test_empty_system(self):
        t = parse_newick(FIG_TREE)
        assert tops(t, (0,) * 5) == 0

    def test_param_example(self):
        t = parse_newick(PARAM_TREE)
        assert topset_key(t, tops(t, (1, 1, 1, 0, 1, 0))) == "10100"

    def test_cherry(self):
        t = parse_newick(FIG_TREE)
        assert topset_key(t, tops(t, (1, 1, 0, 0, 0))) == "0010"

    def test_enumerate_small(self):
        t2 = parse_newick("(1,2);")
        assert {topset_key(t2, s) for s in enumerate_topsets(t2)} == {"0", "1"}
        t3 = parse_newick("((1,2),3);")
        assert {topset_key(t3, s) for s in enumerate_topsets(t3)} == {
            "00", "10", "01",
        }

    def test_fig_tree_eight(self):
        t = parse_newick(FIG_TREE)
        assert {topset_key(t, s) for s in enumerate_topsets(t)} == {
            "0000", "1000", "0100", "0010", "0001", "1010", "1001", "0011",
        }

    def test_fibonacci_counts(self):
        for n in range(2, 10):
            for t in enumerate_topologies(n):
                assert len(enumerate_topsets(t)) == fib(n)

    def test_direct_generation_equals_labeling_oracle(self):
        # the set from the labelings, the order from the index tuples
        for n in range(2, 10):
            for t in enumerate_topologies(n):
                want = sorted_by_index_tuples(t, topsets_by_labelings(t))
                assert enumerate_topsets(t) == want, t.to_newick()

    @pytest.mark.slow
    def test_direct_generation_equals_labeling_oracle_at_ten(self):
        for t in enumerate_topologies(10):
            want = sorted_by_index_tuples(t, topsets_by_labelings(t))
            assert enumerate_topsets(t) == want, t.to_newick()

    @pytest.mark.parametrize("n", LEAVES_UP_TO_TEN)
    def test_keys_equal_scan(self, n):
        for t in enumerate_topologies(n):
            for s in enumerate_topsets(t):
                assert topset_key(t, s) == topset_key_by_scan(t, s)

    @settings(max_examples=200, deadline=None)
    @given(random_newick(10).map(parse_newick), st.integers(-(1 << 24), 1 << 24))
    def test_keys_of_any_mask_equal_scan(self, t, mask):
        # bits of leaves and of ids past the tree are ignored, and negative
        # masks read in two's complement, as by the scan
        assert topset_key(t, mask) == topset_key_by_scan(t, mask)

    def test_fiber_sizes_sum(self):
        # the path systems' top-sets are exactly the enumerated ones
        for n in range(2, 10):
            for t in enumerate_topologies(n):
                sizes = {}
                for _, _, s in path_systems(t):
                    sizes[s] = sizes.get(s, 0) + 1
                assert sum(sizes.values()) == 2 ** (n - 1)
                assert sorted(sizes) == sorted(enumerate_topsets(t))


class TestValidity:
    def test_zero_valid(self):
        t = parse_newick(FIG_TREE)
        assert is_valid_top_vector(t, 0)

    def test_adjacent_invalid(self):
        for t in enumerate_topologies(4):
            valid = set(enumerate_topsets(t))
            for v in t.interior_nodes:
                for k in t.children(v):
                    if not t.is_interior(k):
                        continue
                    mask = 1 << v | 1 << k
                    assert mask not in valid
                    assert not is_valid_top_vector(t, mask)

    def test_fig_vector_valid(self):
        t = parse_newick(FIG_TREE)
        assert is_valid_top_vector(t, mask_of(t, (1, 0, 1, 0)))

    def test_param_tree_vector_valid(self):
        # the top-vector realized in the transform worked example
        t = parse_newick(PARAM_TREE)
        assert is_valid_top_vector(t, mask_of(t, (1, 0, 1, 0, 0)))

    def test_oracle_equivalence(self):
        for n in range(2, 9):
            for t in enumerate_topologies(n):
                valid = topsets_by_labelings(t)
                for sub in range(2 ** (n - 1)):
                    bits = [sub >> i & 1 for i in range(n - 1)]
                    mask = mask_of(t, bits)
                    assert is_valid_top_vector(t, mask) == (mask in valid)

    @settings(max_examples=60, deadline=None)
    @given(random_newick(9).map(parse_newick), st.data())
    def test_random_masks_against_labelings(self, t, data):
        d = t.n_leaves - 1
        bits = data.draw(st.lists(st.booleans(), min_size=d, max_size=d))
        mask = mask_of(t, bits)
        assert is_valid_top_vector(t, mask) == (mask in topsets_by_labelings(t))

    def test_length_checked(self):
        # bits outside the interior node ids are rejected
        t = parse_newick(FIG_TREE)
        for mask in (1 << t.leaves[0], 1 << max(t.nodes()) + 1, -1):
            with pytest.raises(TreeError):
                is_valid_top_vector(t, mask)


class TestBlocked:
    def test_worked_example(self):
        t = parse_newick(BLOCKED_TREE)
        names = named_interior(t, "abcdefgh")
        S = sum(1 << names[x] for x in "adeg")
        blocked = {x for x in "abcdefgh" if is_blocked(t, S, names[x])}
        assert blocked == set("acdeg")

    def test_self_blocked(self):
        t = parse_newick(FIG_TREE)
        v = t.node_at_index(1)
        assert is_blocked(t, 1 << v, v)

    def test_empty_not_blocked(self):
        t = parse_newick(FIG_TREE)
        cherry = t.node_at_index(2)
        assert not is_blocked(t, 0, cherry)


class TestTraversability:
    def test_empty(self):
        t = parse_newick(FIG_TREE)
        r = traversability(t, 0)
        assert r["root_leaf_traversable"] and r["root_augmentable"]

    def test_root_marked(self):
        t = parse_newick(FIG_TREE)
        r = traversability(t, 1 << t.root)
        assert not r["root_augmentable"]
        assert not r["root_leaf_traversable"]

    def test_both_children_marked(self):
        # 4-leaf inner tree of the 5-leaf cluster tree: marking both root
        # children leaves nothing to augment with
        t = parse_newick("((1,2),(3,4));")
        a, b = t.node_at_index(1), t.node_at_index(2)
        r = traversability(t, 1 << a | 1 << b)
        assert not r["root_augmentable"]
        # and augmentability must agree with the validity oracle
        valid = set(enumerate_topsets(t))
        for s in enumerate_topsets(t):
            expect = not s >> t.root & 1 and s | 1 << t.root in valid
            assert traversability(t, s)["root_augmentable"] == expect

    def test_cluster_tree_cherries_marked(self):
        # the 5-leaf cluster tree with both cherries marked: not augmentable
        t = parse_newick(FIG_TREE)
        cherries = 1 << t.node_at_index(2) | 1 << t.node_at_index(3)
        assert not traversability(t, cherries)["root_augmentable"]

    def test_agreement_with_oracle_all_trees(self):
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                valid = set(enumerate_topsets(t))
                for s in enumerate_topsets(t):
                    expect = not s >> t.root & 1 and s | 1 << t.root in valid
                    assert traversability(t, s)["root_augmentable"] == expect

    def test_accepts_top_vector(self):
        # marking the joint node leaves the pendant-leaf descent free but
        # kills augmentability (the root needs both sides free)
        t = parse_newick(FIG_TREE)
        r = traversability(t, mask_of(t, (0, 1, 0, 0)))
        assert r == {"root_leaf_traversable": True, "root_augmentable": False}


class TestMaintaining:
    def test_unmarked_bc_maintains(self):
        for t in enumerate_topologies(5):
            for trip in nni_triples(t):
                bc = 1 << trip.b | 1 << trip.c
                for s in enumerate_topsets(t):
                    if not s & bc:
                        keep, image = classify_maintaining(t, trip, s)
                        assert keep and image == s

    def test_bijection_and_involution(self):
        for n in (5, 6, 7):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    other = apply_nni(t, trip)
                    fwd = vertex_bijection(t, trip)
                    assert set(fwd.values()) == set(enumerate_topsets(other))
                    back = vertex_bijection(other, trip)
                    assert all(back[fwd[s]] == s for s in fwd)

    def test_nonmaintaining_counts_match(self):
        for n in (5, 6):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    other = apply_nni(t, trip)
                    bn = sum(
                        1
                        for s in enumerate_topsets(t)
                        if s >> trip.b & 1 and not classify_maintaining(t, trip, s)[0]
                    )
                    cn = sum(
                        1
                        for s in enumerate_topsets(other)
                        if s >> trip.c & 1
                        and not classify_maintaining(other, trip, s)[0]
                    )
                    assert bn == cn

    def test_image_valid_in_target(self):
        for t in enumerate_topologies(6):
            for trip in nni_triples(t):
                other = apply_nni(t, trip)
                targets = set(enumerate_topsets(other))
                for s in enumerate_topsets(t):
                    _, image = classify_maintaining(t, trip, s)
                    assert image in targets

    def test_unrealizable_rejected(self):
        t = parse_newick(FIG_TREE)
        trip = nni_triples(t)[0]
        with pytest.raises(TreeError):
            classify_maintaining(t, trip, 1 << trip.b | 1 << trip.c)
