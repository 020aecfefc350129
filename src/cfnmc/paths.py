"""Even leaf labelings, top-sets and NNI predicates.

A 0/1 labeling of the leaves with even sum determines a unique edge-disjoint
system of leaf-to-leaf paths: an edge carries a path exactly when the number
of 1-labeled leaves below it is odd.  The top-set of the system is the set of
interior nodes whose two child edges both lie in a path; its indicator vector
(in canonical interior order) is a vertex of the model polytope.

A top-set, like an edge set, is an ``int`` bitmask keyed by node id: bit v
is set iff node v is a top (for edges: iff the edge above v is used).  Split
halves and NNI images keep node ids, so masks combine across related trees
with ``|``, ``&`` and ``^``.  Canonical order enters only when a mask is
rendered, by ``topset_bits`` and ``topset_key``.
"""

from __future__ import annotations

from itertools import product

from .tree import NniTriple, RootedBinaryTree, TreeError


def even_labelings(n: int):
    """All 2^(n-1) even-sum labelings of n leaves as bit tuples, lexicographic."""
    if n < 2:
        raise TreeError("need n >= 2")
    for bits in product((0, 1), repeat=n):
        if sum(bits) % 2 == 0:
            yield bits


def labeling_edges(tree: RootedBinaryTree, labeling) -> int:
    """Mask of the edges used by the path system of an even labeling (bit i
    is the leaf with the i-th smallest label): e(v) is used iff the
    1-labeled leaves below v have odd count.  At every interior vertex 0 or
    2 incident edges are used, so the used edges decompose uniquely into
    paths."""
    if len(labeling) != tree.n_leaves:
        raise TreeError(
            f"labeling length {len(labeling)} != n_leaves {tree.n_leaves}"
        )
    if sum(labeling) % 2 != 0:
        raise TreeError(f"labeling {tuple(labeling)} has odd parity")
    parity = dict(zip(tree.leaves, labeling))
    for v in reversed(tree.interior_nodes):  # children before parents
        a, b = tree.children(v)
        parity[v] = parity[a] ^ parity[b]
    return sum(1 << v for v, bit in parity.items() if bit and v != tree.root)


def topset_of_edges(tree: RootedBinaryTree, edges: int) -> int:
    """The interior nodes whose two child edges both lie in ``edges``."""
    out = 0
    for v in tree.interior_nodes:
        a, b = tree.children(v)
        if edges >> a & edges >> b & 1:
            out |= 1 << v
    return out


def topset_bits(tree: RootedBinaryTree, topset: int) -> tuple:
    """The top-vector of a top-set: 0/1 per interior node, canonical order."""
    return tuple(topset >> v & 1 for v in tree.interior_nodes)


def topset_key(tree: RootedBinaryTree, topset: int) -> str:
    """The top-vector as a bitstring, the column key of the toric matrix."""
    return "".join(str(topset >> v & 1) for v in tree.interior_nodes)


def enumerate_topsets(tree: RootedBinaryTree) -> list:
    """All F_n top-sets (F_0 = F_1 = 1), sorted by their tuples of canonical
    indices.

    Generated bottom-up by the realizability rule of is_valid_top_vector:
    each subtree yields (mask, free) pairs, free meaning that some descent
    to a leaf avoids the mask, and a node may be marked only when both of
    its children are free.
    """

    def grow(v):
        if tree.is_leaf(v):
            return [(0, True)]
        a, b = tree.children(v)
        right = grow(b)
        out = []
        for ma, fa in grow(a):
            for mb, fb in right:
                out.append((ma | mb, fa or fb))
                if fa and fb:
                    out.append((ma | mb | 1 << v, False))
        return out

    interior = tree.interior_nodes
    return sorted(
        (mask for mask, _ in grow(tree.root)),
        key=lambda s: tuple(i for i, v in enumerate(interior) if s >> v & 1),
    )


def _free_descent(tree: RootedBinaryTree, topset: int, v: int) -> bool:
    """True if some downward path from v to a leaf avoids topset entirely."""
    if tree.is_leaf(v):
        return True
    if topset >> v & 1:
        return False
    return any(_free_descent(tree, topset, k) for k in tree.children(v))


def is_valid_top_vector(tree: RootedBinaryTree, topset: int) -> bool:
    """Greedy O(n) realizability test, cross-validated against enumeration.

    A top-set is realizable iff below each marked node both child subtrees
    admit a descent to a leaf that avoids every marked node: the marked
    node's path descends there, and paths of distinct marked nodes can never
    collide because entering a marked node's territory means passing through
    it.
    """
    interior = sum(1 << v for v in tree.interior_nodes)
    if topset & ~interior:
        raise TreeError(f"top-set mask {topset:#x} marks a non-interior node")
    return all(
        _free_descent(tree, topset, k)
        for v in tree.interior_nodes
        if topset >> v & 1
        for k in tree.children(v)
    )


def is_blocked(tree: RootedBinaryTree, topset: int, x: int) -> bool:
    """True iff every path from x down to a leaf meets a top-set node
    (a marked x blocks itself via the length-0 descent)."""
    return not _free_descent(tree, topset, x)


def traversability(tree: RootedBinaryTree, topset: int) -> dict:
    """Root-leaf traversability and root augmentability of a top-set.

    The first asks for a root-to-leaf path avoiding every top-most vertex;
    the second asks whether the root bit is 0 and flipping it to 1 leaves a
    realizable top-vector.  Both predicates matter chiefly for (bi)cluster
    trees but make sense, and are exposed, for any tree.
    """
    root = tree.root
    traversable = _free_descent(tree, topset, root)
    augmentable = not topset >> root & 1 and all(
        _free_descent(tree, topset, k) for k in tree.children(root)
    )
    return {"root_leaf_traversable": traversable, "root_augmentable": augmentable}


def classify_maintaining(
    treeT: RootedBinaryTree, triple: NniTriple, topset: int
) -> tuple:
    """Classify a vertex of R_T under the NNI move (b, c, e) and map it over.

    Returns (maintaining, image_topset).  A vertex is maintaining when it is
    also a vertex of the rearranged tree; with d the other child of c and f
    the other child of b this holds iff b, c are both unmarked, or b is
    marked and d is not blocked, or c is marked and f is not blocked.
    Nonmaintaining vertices map by swapping the b and c bits.
    """
    if not is_valid_top_vector(treeT, topset):
        raise TreeError(f"top-set mask {topset:#x} is not realizable")
    b, c, e = triple.b, triple.c, triple.e
    if topset >> b & 1:
        maintaining = not is_blocked(treeT, topset, treeT.sibling(e))
    elif topset >> c & 1:
        maintaining = not is_blocked(treeT, topset, treeT.sibling(c))
    else:
        maintaining = True
    image = topset if maintaining else topset ^ (1 << b | 1 << c)
    return maintaining, image


def vertex_bijection(treeT: RootedBinaryTree, triple: NniTriple) -> dict:
    """The involution-pair map vert(R_T) -> vert(R_T') as topset -> topset."""
    return {
        s: classify_maintaining(treeT, triple, s)[1] for s in enumerate_topsets(treeT)
    }
