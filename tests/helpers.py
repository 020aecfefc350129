"""Shared test fixtures: reference trees and small independent oracles."""

from dataclasses import replace
from itertools import combinations, product

from cfnmc.tree import RootedBinaryTree, parse_newick

# The 5-leaf tree from the running example: root over ((cherry, cherry), leaf).
FIG_TREE = "(((1,2),(3,4)),5);"

# 7-leaf tree whose only cluster is a single node (facet worked example).
FACET_TREE = "((((1,2),(3,4)),5),(6,7));"

# 9-leaf tree of the blockedness worked example.
BLOCKED_TREE = "((((1,2),(3,4)),((5,6),(7,8))),9);"

# 7-leaf cluster-of-size-one tree used by the blocked/NNI discussion.
CLUSTER_FIG_TREE = "((((1,2),(3,4)),(5,6)),7);"


def fig_tree() -> RootedBinaryTree:
    return parse_newick(FIG_TREE)


def named_interior(tree, letters):
    """Map letters to node ids by canonical index order."""
    return {ch: tree.node_at_index(i) for i, ch in enumerate(letters)}


def spine_tree(m: int) -> RootedBinaryTree:
    """The (4m+5)-leaf construction with a length-m spine: the root carries a
    pendant leaf and the spine; each spine node carries a balanced 4-leaf
    block, with two blocks at the bottom."""

    def block(start):
        return f"(({start},{start + 1}),({start + 2},{start + 3}))"

    nxt = [2]

    def take_block():
        s = nxt[0]
        nxt[0] += 4
        return block(s)

    inner = f"({take_block()},{take_block()})"
    for _ in range(m - 1):
        inner = f"({take_block()},{inner})"
    return parse_newick(f"(1,{inner});")


def order_ideals(tree):
    """All downward-closed interior subsets (brute force)."""
    interior = list(tree.interior_nodes)
    out = []
    for r in range(len(interior) + 1):
        for sub in combinations(interior, r):
            s = frozenset(sub)
            if all(
                not (tree.is_interior(k) and k not in s)
                for v in s
                for k in tree.children(v)
            ):
                out.append(s)
    return out


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def count_by_box(polytope, m: int) -> int:
    """Brute-force #(Z^dim intersect m*P): every point of the box [0, m]^dim
    tested against the facets of m*P."""
    dilate = replace(
        polytope, facets=tuple(replace(f, rhs=f.rhs * m) for f in polytope.facets)
    )
    return sum(
        dilate.contains(x) for x in product(range(m + 1), repeat=polytope.dim)
    )
