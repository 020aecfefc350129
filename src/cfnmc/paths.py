"""Path systems of even leaf labelings, top-sets and NNI predicates.

A 0/1 labeling of the leaves with even sum determines a unique edge-disjoint
system of leaf-to-leaf paths: an edge carries a path exactly when the number
of 1-labeled leaves below it is odd.  The top-set of the system is the set of
interior nodes whose two child edges both lie in a path; its indicator vector
(in canonical interior order) is a vertex of the model polytope.  That rule
lives in one function, ``path_systems``, which gives the used edges and the
top-set of every even labeling: the vertices of R_T(I) and the class
coordinates of the model are both read from it.

A top-set, like an edge set, is an ``int`` bitmask keyed by node id: bit v
is set iff node v is a top (for edges: iff the edge above v is used).  Split
halves and NNI images keep node ids, so masks combine across related trees
with ``|``, ``&`` and ``^``.  Canonical order enters only when a mask is
rendered, by ``topset_bits`` and ``topset_key``, or sorted, by
``enumerate_topsets``.  ``topset_key`` walks the set bits of a top-set, ORs
the canonical bit of each node from the tree's ``LeafMasks`` into a
canonical mask (the root at the most significant of n-1 bits) and formats
that mask as a binary numeral; ``enumerate_topsets`` builds the canonical
mask next to each top-set and sorts by it.  A labeling is likewise read as
the mask of its 1-labeled leaves, in the bit order of ``LeafMasks.below``.
"""

from __future__ import annotations

from .tree import NniTriple, RootedBinaryTree, TreeError


def path_systems(tree: RootedBinaryTree) -> list:
    """(leaf mask, used-edge mask, top-set) of the path system of every even
    leaf labeling, in mask order.  The leaf mask holds the 1-labeled leaves
    in the bit order of ``LeafMasks.below``; the edge above v is used iff an
    odd number of them lie below v, and v is a top iff both of its child
    edges are used.  At every interior vertex 0 or 2 incident edges are
    used, so the used edges decompose uniquely into paths.

    Tabulated bottom-up: each node holds the systems of the assignments of
    the leaves below it, split by parity, with the edges and tops of its
    subtree.  A node joins its children's lists in pairs: two odd children
    make it a top, one odd child uses the edge above it.  The root has no
    edge above it, so only its even systems are built.
    """
    below = tree.leaf_masks().below
    systems = {leaf: ([(0, 0, 0)], [(below[leaf], 1 << leaf, 0)]) for leaf in tree.leaves}
    for v in reversed(tree.interior_nodes[1:]):  # children before parents
        a, b = tree.children(v)
        (a_even, a_odd), (b_even, b_odd) = systems.pop(a), systems.pop(b)
        bit = 1 << v
        systems[v] = (
            _join(a_even, b_even) + _join(a_odd, b_odd, tops=bit),
            _join(a_even, b_odd, edges=bit) + _join(a_odd, b_even, edges=bit),
        )
    (a_even, a_odd), (b_even, b_odd) = (systems[k] for k in tree.children(tree.root))
    return sorted(_join(a_even, b_even) + _join(a_odd, b_odd, tops=1 << tree.root))


def _join(left, right, edges: int = 0, tops: int = 0) -> list:
    """Every pair of systems of two sibling subtrees, merged, with ``edges``
    and ``tops`` added."""
    return [
        (ml | mr, el | er | edges, tl | tr | tops)
        for ml, el, tl in left
        for mr, er, tr in right
    ]


def topset_bits(tree: RootedBinaryTree, topset: int) -> tuple:
    """The top-vector of a top-set: 0/1 per interior node, canonical order."""
    return tuple(topset >> v & 1 for v in tree.interior_nodes)


def topset_key(tree: RootedBinaryTree, topset: int) -> str:
    """The top-vector as a bitstring, the column key of the toric matrix.
    Bits of ids that are not interior nodes are ignored."""
    masks = tree.leaf_masks()
    topset &= masks.interior
    out = 0
    while topset:
        low = topset & -topset
        out |= masks.canonical[low.bit_length() - 1]
        topset ^= low
    return format(out, f"0{tree.n_leaves - 1}b")


def enumerate_topsets(tree: RootedBinaryTree) -> list:
    """All F_n top-sets (F_0 = F_1 = 1), sorted by their tuples of canonical
    indices.

    Generated bottom-up by the realizability rule of is_valid_top_vector:
    each subtree yields (mask, canonical mask, free) triples, free meaning
    that some descent to a leaf avoids the mask, and a node may be marked
    only when both of its children are free.
    """
    canonical = tree.leaf_masks().canonical

    def grow(v):
        if tree.is_leaf(v):
            return [(0, 0, True)]
        a, b = tree.children(v)
        right = grow(b)
        bit, cbit = 1 << v, canonical[v]
        out = []
        for ma, ca, fa in grow(a):
            for mb, cb, fb in right:
                out.append((ma | mb, ca | cb, fa or fb))
                if fa and fb:
                    out.append((ma | mb | bit, ca | cb | cbit, False))
        return out

    full = 1 << (tree.n_leaves - 1)

    def rank(entry):
        # Sorting sets by their tuples of indices lists them in preorder of
        # the trie that extends a set by one larger index, where the subtree
        # under index q holds 2^(d-1-q) sets (d = n-1).  Adding up the
        # subtrees passed over and the sets on the path, a nonempty set with
        # canonical mask c has rank 2^d + popcount(c) - c - lowbit(c); the
        # empty set, a prefix of every tuple, has rank 0.
        c = entry[1]
        return full + c.bit_count() - c - (c & -c) if c else 0

    return [mask for mask, _, _ in sorted(grow(tree.root), key=rank)]


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
    if topset & ~tree.leaf_masks().interior:
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
