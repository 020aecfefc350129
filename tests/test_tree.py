import hashlib

import pytest
from hypothesis import given, settings

from cfnmc.tree import (
    NewickError,
    NniTriple,
    RootedBinaryTree,
    TreeError,
    _split_at,
    _subtree,
    _tfp_node,
    apply_nni,
    enumerate_clusters,
    enumerate_topologies,
    is_cluster_tree,
    nni_triples,
    parse_newick,
)

from helpers import (
    CLUSTER_FIG_TREE,
    FIG_TREE,
    canonical_shape,
    caterpillar,
    children_by_min_label,
    named_interior,
    random_newick,
    spine_tree,
)


class TestParsing:
    def test_two_leaf(self):
        t = parse_newick("(1,2);")
        assert t.n_leaves == 2
        assert len(t.interior_nodes) == 1

    def test_three_leaf_indexing(self):
        t = parse_newick("((1,2),3);")
        assert t.n_leaves == 3
        root = t.node_at_index(0)
        cherry = t.node_at_index(1)
        assert t.parent(cherry) == root
        assert root == t.root

    def test_fig_tree_shape(self):
        t = parse_newick(FIG_TREE)
        assert t.n_leaves == 5
        # root, then the two-cherry joint, then the two cherries
        kids = t.children(t.root)
        assert sorted(t.is_leaf(k) for k in kids) == [False, True]

    def test_roundtrip(self):
        for text in [FIG_TREE, "(1,2);", "((1,2),3);", "((3,4),(1,2));"]:
            t = parse_newick(text)
            assert parse_newick(t.to_newick()).to_newick() == t.to_newick()

    @settings(max_examples=100, deadline=None)
    @given(random_newick(12))
    def test_random_roundtrip(self, text):
        # the canonical rendering parses back to the same clades and is a
        # fixed point of parse-then-render
        def clades(t):
            return {
                frozenset(t.leaf_label(u) for u in t.subtree_nodes(v) if t.is_leaf(u))
                for v in t.nodes()
            }

        t = parse_newick(text)
        back = parse_newick(t.to_newick())
        assert back.to_newick() == t.to_newick()
        assert clades(back) == clades(t)
        assert t.n_leaves == text.count(",") + 1

    @settings(max_examples=200, deadline=None)
    @given(random_newick(10).map(parse_newick))
    def test_child_order_is_min_label_order(self, t):
        # random labels and child orders: the left child is the one whose
        # subtree holds the smallest leaf label
        assert {v: t.children(v) for v in t.interior_nodes} == children_by_min_label(t)

    @settings(max_examples=100, deadline=None)
    @given(random_newick(10).map(parse_newick))
    def test_leaf_masks_hold_subtree_leaves(self, t):
        # the leaf with the smallest label at the highest bit
        bit = {leaf: 1 << (t.n_leaves - 1 - i) for i, leaf in enumerate(t.leaves)}
        below = t.leaf_masks().below
        for v in t.nodes():
            assert below[v] == sum(bit.get(u, 0) for u in t.subtree_nodes(v))

    def test_internal_labels_ignored(self):
        t = parse_newick("((1,2)anc,3)root;")
        assert t.to_newick() == "((1,2),3);"

    def test_whitespace(self):
        t = parse_newick(" ( ( 1 , 2 ) , 3 ) ; ")
        assert t.to_newick() == "((1,2),3);"

    @pytest.mark.parametrize(
        "bad",
        [
            "((1,2),3)",  # missing ;
            "((1,2,3),4);",  # non-binary
            "((1,2),(3);",  # unbalanced
            "((1,2),1);",  # duplicate label
            "((1,2),x);",  # non-integer label
            "((1:0.5,2),3);",  # branch lengths rejected
            "1;",  # bare leaf
            "((1,2),3);junk",
        ],
    )
    def test_errors(self, bad):
        with pytest.raises(NewickError):
            parse_newick(bad)

    def test_negative_node_id_rejected(self):
        # a leaf id of -1 would index the last LeafMasks slot and order the
        # children by a wrong mask
        with pytest.raises(TreeError, match="non-negative"):
            RootedBinaryTree(2, {2: (-1, 1), 1: (0, 3)}, {-1: 1, 0: 2, 3: 3})

    def test_error_position_reported(self):
        with pytest.raises(NewickError) as err:
            parse_newick("((1,2;")
        assert err.value.position is not None

    def test_counts_invariant(self):
        for n in range(2, 9):
            for t in enumerate_topologies(n):
                assert len(t.interior_nodes) == n - 1
                assert len(t.nodes()) == 2 * n - 1  # 2n-2 edges


class TestTopologies:
    def test_wedderburn_etherington(self):
        assert [len(enumerate_topologies(n)) for n in range(2, 9)] == [
            1, 1, 2, 3, 6, 11, 23,
        ]

    def test_shapes_distinct(self):
        shapes = [canonical_shape(t) for t in enumerate_topologies(7)]
        assert len(set(shapes)) == len(shapes)

    def test_bruteforce_oracle_n5(self):
        # generate all labeled binary trees on 5 leaves by recursive splits
        def all_shapes(n):
            if n == 1:
                return {()}
            out = set()
            for k in range(1, n):
                for s1 in all_shapes(k):
                    for s2 in all_shapes(n - k):
                        out.add((s1, s2) if s1 <= s2 else (s2, s1))
            return out

        assert {canonical_shape(t) for t in enumerate_topologies(5)} == all_shapes(5)

    def test_range(self):
        with pytest.raises(TreeError):
            enumerate_topologies(11)

    def test_raised_budget(self):
        # Wedderburn-Etherington: 207 shapes on 11 leaves, 451 on 12
        assert len(enumerate_topologies(11, 12)) == 207
        assert len(enumerate_topologies(12, 12)) == 451
        with pytest.raises(TreeError):
            enumerate_topologies(13, 12)

    def test_caterpillar_has_one_cherry(self):
        for n in range(2, 9):
            t = caterpillar(n)
            cherries = [
                v
                for v in t.interior_nodes
                if all(t.is_leaf(k) for k in t.children(v))
            ]
            assert len(cherries) == 1


class TestClusters:
    def test_cluster_fig(self):
        t = parse_newick(CLUSTER_FIG_TREE)
        names = named_interior(t, "abcdef")
        clusters = {c.members: c for c in enumerate_clusters(t)}
        bc = frozenset({names["b"], names["c"]})
        assert bc in clusters
        assert clusters[bc].neighbor_set == frozenset(
            {names["a"], names["d"], names["e"], names["f"]}
        )
        assert clusters[bc].max_vertex == names["b"]

    def test_caterpillar_has_none(self):
        assert enumerate_clusters(caterpillar(4)) == []
        assert enumerate_clusters(caterpillar(8)) == []

    def test_spine_tree_count(self):
        t = spine_tree(2)
        assert t.n_leaves == 13
        spine = [
            v
            for v in t.interior_nodes
            if v != t.root
            and all(not t.is_leaf(k) for k in t.children(v))
            and any(not all(t.is_leaf(g) for g in t.children(k)) for k in t.children(v) if t.is_interior(k))
        ]
        # spine nodes: cluster nodes with a non-(4-leaf-block) child
        clusters = enumerate_clusters(t)
        full_spine = [c for c in clusters if set(spine) <= c.members]
        assert len(full_spine) == 2 ** 3

    def test_members_are_cluster_nodes(self):
        for n in range(4, 9):
            for t in enumerate_topologies(n):
                for c in enumerate_clusters(t):
                    for v in c.members:
                        assert all(t.is_interior(k) for k in t.children(v))
                        assert t.parent(v) is not None

    def test_bruteforce_cluster_oracle(self):
        # every connected interior subset passing the predicate is returned,
        # with the member all others descend from as max_vertex and the
        # interior nodes adjacent to the set, outside it, as neighbor_set
        from itertools import combinations

        for n in range(4, 11):
            for t in enumerate_topologies(n):
                got = {
                    c.members: (c.max_vertex, c.neighbor_set)
                    for c in enumerate_clusters(t)
                }
                want = {}
                interior = t.interior_nodes
                for r in range(1, len(interior) + 1):
                    for sub in combinations(interior, r):
                        s = set(sub)
                        if not all(
                            v != t.root and all(t.is_interior(k) for k in t.children(v))
                            for v in s
                        ):
                            continue
                        # connectivity within the tree
                        seen = {next(iter(s))}
                        frontier = [next(iter(s))]
                        while frontier:
                            v = frontier.pop()
                            for u in (t.parent(v), *t.children(v)):
                                if u in s and u not in seen:
                                    seen.add(u)
                                    frontier.append(u)
                        if seen != s:
                            continue
                        (top,) = [v for v in s if s <= t.subtree_nodes(v)]
                        adjacent = {
                            u for v in s for u in (t.parent(v), *t.children(v))
                        }
                        neighbors = {u for u in adjacent - s if t.is_interior(u)}
                        want[frozenset(s)] = (top, frozenset(neighbors))
                assert got == want, (n, t.to_newick())

    def test_fulltree_neighbor_count(self):
        # |N(C)| = |C| + 2 for clusters of the whole tree
        for n in range(4, 11):
            for t in enumerate_topologies(n):
                for c in enumerate_clusters(t):
                    assert len(c.neighbor_set) == len(c.members) + 2


class TestNni:
    def test_figure_example(self):
        # T: b over (c over (d, e), f); move (b, c, e) puts c on the f edge.
        t = parse_newick(CLUSTER_FIG_TREE)
        names = named_interior(t, "abcdef")
        b, c = names["b"], names["c"]
        e = t.children(c)[0]
        out = apply_nni(t, NniTriple(b, c, e))
        assert set(out.children(b)) == {t.sibling(e), c}
        assert set(out.children(c)) == {e, t.sibling(c)}

    def test_involution(self):
        for n in (5, 6):
            for t in enumerate_topologies(n):
                for trip in nni_triples(t):
                    back = apply_nni(apply_nni(t, trip), trip)
                    assert back.to_newick() == t.to_newick()

    def test_leaves_preserved(self):
        t = parse_newick(FIG_TREE)
        for trip in nni_triples(t):
            assert apply_nni(t, trip).leaf_labels == t.leaf_labels

    def test_caterpillar_innermost(self):
        t = caterpillar(5)
        chain = t.interior_nodes  # root .. cherry along the spine
        b, c = chain[1], chain[2]
        e = next(k for k in t.children(c) if t.is_leaf(k))
        out = apply_nni(t, NniTriple(b, c, e))
        shapes = {canonical_shape(x) for x in enumerate_topologies(5)}
        assert canonical_shape(out) in shapes
        assert canonical_shape(out) != canonical_shape(t)
        assert canonical_shape(out) == canonical_shape(parse_newick(FIG_TREE))

    def test_bad_triple(self):
        t = parse_newick(FIG_TREE)
        root = t.root
        with pytest.raises(TreeError):
            apply_nni(t, NniTriple(root, root, root))


class TestTfpSplit:
    def test_root_case(self):
        t = parse_newick("(((1,2),3),(4,5));")
        v = _tfp_node(t)
        assert v is not None
        t1, t2 = _split_at(t, v)
        assert v == t.root
        assert {t1.n_leaves, t2.n_leaves} == {3, 4}
        assert v in t1.interior_nodes and v in t2.interior_nodes

    def test_cluster_tree_none(self):
        t = parse_newick(FIG_TREE)
        assert is_cluster_tree(t)
        assert _tfp_node(t) is None

    def test_none_iff_cluster(self):
        # the definition: some cluster C with 2|C| + 3 = n
        for n in range(2, 11):
            for t in enumerate_topologies(n):
                has_cluster = any(
                    2 * len(c.members) + 3 == n for c in enumerate_clusters(t)
                )
                assert is_cluster_tree(t) == has_cluster, t.to_newick()
                if n >= 4:
                    assert (_tfp_node(t) is None) == has_cluster, t.to_newick()

    def test_nonroot_case_shapes(self):
        # the non-root worked example: split at the node with one leaf child
        t = parse_newick("((((1,2),3),(4,5)),6);")
        v = _tfp_node(t)
        assert v is not None
        t1, t2 = _split_at(t, v)
        assert v != t.root
        assert {t1.n_leaves, t2.n_leaves} == {5, 3}
        assert t1.n_leaves + t2.n_leaves == t.n_leaves + 2
        # shared node is the root of the lower half and interior in both
        assert t2.root == v and v in t1.interior_nodes


class TestDerivedTrees:
    def test_derived_trees_pinned(self):
        # Pins the Newick text, interior preorder, leaf ids and leaf labels
        # of every split half, subtree and NNI image of every shape with
        # 2..9 leaves, so node ids and fresh labels stay as they are.
        def r(t):
            labels = tuple(t.leaf_label(v) for v in t.leaves)
            return (t.to_newick(), t.interior_nodes, t.leaves, labels)

        rows = []
        for n in range(2, 10):
            for t in enumerate_topologies(n):
                for v in t.interior_nodes:
                    if v != t.root or all(t.is_interior(k) for k in t.children(v)):
                        rows.append(("split", r(t), v, *map(r, _split_at(t, v))))
                    rows.append(("sub", r(t), v, r(_subtree(t, v))))
                for tr in nni_triples(t):
                    rows.append(("nni", r(t), (tr.b, tr.c, tr.e), r(apply_nni(t, tr))))
        assert len(rows) == 2350
        digest = "f9da245226e29a18f5653b8a731a5e59d9118a6d3cd65bf95ce9d105e4a39e1e"
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
