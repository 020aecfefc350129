"""Rooted binary trees: Newick parsing, canonical indexing, clusters, NNI moves.

Nodes are small integer ids into an arena.  Interior nodes additionally carry
a canonical index 0..n-2 assigned in preorder, with the root first and
children visited left before right, where "left" is the child whose subtree
contains the smallest leaf label.  That index fixes the coordinate order of
every vector and polytope downstream, so it must never depend on how the tree
was built.

Trees are immutable after construction; all operations return new trees.
Derived trees (NNI images, fiber-product split halves, subtrees) are all built
by one restriction, ``_restrict``, which keeps the integer ids of the nodes it
keeps; that is what makes coordinates comparable across related trees.

The constructor builds each tree's ``LeafMasks`` table: the leaves below
every node, filled by the one bottom-up pass that also fixes the child
order, and the canonical bit of every interior node, both as ints.  Path
systems and top-set keys read it instead of walking the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple


class NewickError(ValueError):
    """Malformed Newick input.  ``position`` is a 0-based offset into the text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class TreeError(ValueError):
    """Structurally invalid tree or invalid operation argument."""


@dataclass(frozen=True)
class NniTriple:
    """Path b -> c -> e with c a child of b and e a child of c; e may be a leaf."""

    b: int
    c: int
    e: int


class LeafMasks(NamedTuple):
    """Bit tables of one tree, indexed by node id (0 at ids that are not
    nodes).  ``below[v]`` is the set of leaves under v, the leaf with the
    i-th smallest label at bit n-1-i, so a labeling read as a binary numeral
    is the mask of its 1-labeled leaves.  ``canonical[v]`` is 1 << (n-2-i)
    for the interior node of canonical index i, so a top-set's canonical
    mask, written as n-1 binary digits, is its top-vector.  ``interior`` is
    the mask of the interior node ids."""

    below: tuple
    canonical: tuple
    interior: int


@dataclass(frozen=True)
class Cluster:
    """Connected set of interior nodes that each touch three interior nodes."""

    members: frozenset
    neighbor_set: frozenset
    max_vertex: int


class RootedBinaryTree:
    """A rooted binary tree with integer leaf labels.

    Every non-leaf node has exactly two children; the root has degree 2 and
    every other interior node degree 3, so an n-leaf tree has n-1 interior
    nodes and 2n-2 edges.  Edges are keyed by their child endpoint.
    """

    __slots__ = (
        "root",
        "_children",
        "_parent",
        "_leaf_label",
        "_interior",
        "_interior_index",
        "_masks",
        "n_leaves",
    )

    def __init__(self, root: int, children: dict, leaf_labels: dict):
        self.root = root
        self._leaf_label = dict(leaf_labels)
        seen_labels = set()
        for leaf, lab in self._leaf_label.items():
            if not isinstance(lab, int) or lab <= 0:
                raise TreeError(f"leaf label must be a positive integer, got {lab!r}")
            if lab in seen_labels:
                raise TreeError(f"duplicate leaf label {lab}")
            seen_labels.add(lab)
        self._parent = {}
        self._children = {}
        for node, kids in children.items():
            if len(kids) != 2:
                raise TreeError(f"node {node} has {len(kids)} children, expected 2")
            self._children[node] = tuple(kids)
            for k in kids:
                if k in self._parent:
                    raise TreeError(f"node {k} has two parents")
                self._parent[k] = node
        if root in self._parent:
            raise TreeError("root has a parent")
        all_nodes = set(self._children) | set(self._leaf_label)
        if set(self._parent) != all_nodes - {root}:
            raise TreeError("tree is not connected or has stray nodes")
        if set(self._children) & set(self._leaf_label):
            raise TreeError("a node cannot be both interior and leaf")
        if root not in self._children:
            raise TreeError("root must be interior (need at least 2 leaves)")
        if min(all_nodes) < 0:  # ids index LeafMasks and are bits of masks
            raise TreeError("node ids must be non-negative")

        # One bottom-up pass fills ``below`` (LeafMasks) and orders each
        # node's children by descending mask: the leaf of smallest label holds
        # the highest bit, so the left child is the one whose subtree contains
        # the smallest leaf label.
        n = len(self._leaf_label)
        below = [0] * (max(all_nodes) + 1)
        for i, leaf in enumerate(sorted(self._leaf_label, key=self._leaf_label.get)):
            below[leaf] = 1 << (n - 1 - i)
        order = [root]
        for v in order:  # grows as it is read: breadth-first
            order.extend(self._children.get(v, ()))
        for v in reversed(order):  # children before parents
            if v in self._children:
                a, b = self._children[v]
                below[v] = below[a] | below[b]
                if below[a] < below[b]:
                    self._children[v] = (b, a)

        # Canonical preorder walk: left child is popped first.
        interior = []
        stack = [root]
        while stack:
            v = stack.pop()
            if v in self._children:
                interior.append(v)
                left, right = self._children[v]
                stack += (right, left)
        self._interior = tuple(interior)
        self._interior_index = {v: i for i, v in enumerate(self._interior)}
        self.n_leaves = n
        if len(self._interior) != n - 1:
            raise TreeError("interior node count must be n_leaves - 1")
        canonical = [0] * len(below)
        for i, v in enumerate(self._interior):
            canonical[v] = 1 << (n - 2 - i)
        self._masks = LeafMasks(
            tuple(below), tuple(canonical), sum(1 << v for v in self._interior)
        )

    # -- basic queries ---------------------------------------------------

    def is_leaf(self, v: int) -> bool:
        return v in self._leaf_label

    def is_interior(self, v: int) -> bool:
        return v in self._children

    def children(self, v: int) -> tuple:
        return self._children[v]

    def parent(self, v: int):
        return self._parent.get(v)

    def sibling(self, v: int) -> int:
        p = self._parent[v]
        a, b = self._children[p]
        return b if v == a else a

    def leaf_label(self, v: int) -> int:
        return self._leaf_label[v]

    @property
    def interior_nodes(self) -> tuple:
        """Interior node ids in canonical preorder (root first)."""
        return self._interior

    def leaf_masks(self) -> LeafMasks:
        """The tree's LeafMasks, built by the constructor."""
        return self._masks

    def interior_index(self, v: int) -> int:
        return self._interior_index[v]

    def node_at_index(self, i: int) -> int:
        if not 0 <= i < len(self._interior):
            raise TreeError(
                f"interior index {i} out of range 0..{len(self._interior) - 1}"
            )
        return self._interior[i]

    @property
    def leaves(self) -> tuple:
        """Leaf node ids sorted by label."""
        return tuple(sorted(self._leaf_label, key=self._leaf_label.get))

    @property
    def leaf_labels(self) -> tuple:
        return tuple(sorted(self._leaf_label.values()))

    def nodes(self) -> tuple:
        return tuple(self._children) + tuple(self._leaf_label)

    def non_root_nodes_preorder(self) -> list:
        """All non-root nodes, interior first in canonical index order, then
        leaves by label.  Fixes the coordinate order of edge-indexed vectors."""
        interior = [v for v in self._interior if v != self.root]
        leaves = list(self.leaves)
        return interior + leaves

    def subtree_nodes(self, v: int) -> set:
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(self._children.get(u, ()))
        return out

    # -- serialization ---------------------------------------------------

    def to_newick(self) -> str:
        def render(v: int) -> str:
            if self.is_leaf(v):
                return str(self._leaf_label[v])
            a, b = self._children[v]
            return f"({render(a)},{render(b)})"

        return render(self.root) + ";"

    def __repr__(self) -> str:
        return f"RootedBinaryTree({self.to_newick()!r})"


# -- Newick ---------------------------------------------------------------


# The parser recurses once per level of parentheses; deeper input is
# rejected as malformed before it can exhaust Python's recursion limit.
MAX_NESTING = 500


def parse_newick(text: str) -> RootedBinaryTree:
    """Parse a rooted binary Newick string with positive-integer leaf labels.

    Internal labels are accepted and discarded.  Branch lengths are not part
    of the dialect and raise, as does nesting deeper than MAX_NESTING.  The
    string must end with ';'.
    """
    pos = 0
    n = len(text)
    next_id = [0]
    children: dict = {}
    leaf_labels: dict = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fresh() -> int:
        next_id[0] += 1
        return next_id[0] - 1

    def parse_node(depth: int) -> int:
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise NewickError("unexpected end of input", pos)
        if text[pos] == "(":
            if depth == MAX_NESTING:
                raise NewickError(f"nesting deeper than {MAX_NESTING}", pos)
            pos += 1
            kids = [parse_node(depth + 1)]
            skip_ws()
            while pos < n and text[pos] == ",":
                pos += 1
                kids.append(parse_node(depth + 1))
                skip_ws()
            if pos >= n or text[pos] != ")":
                raise NewickError("expected ')' or ','", pos)
            pos += 1
            skip_ws()
            # optional internal label, ignored
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] in "._-"):
                pos += 1
            skip_ws()
            if pos < n and text[pos] == ":":
                raise NewickError("branch lengths are not supported", pos)
            if len(kids) != 2:
                raise NewickError(f"non-binary node with {len(kids)} children", start)
            v = fresh()
            children[v] = tuple(kids)
            return v
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise NewickError(f"expected a leaf label, found {text[pos]!r}", pos)
        label = int(text[start:pos])
        skip_ws()
        if pos < n and text[pos] == ":":
            raise NewickError("branch lengths are not supported", pos)
        if label <= 0:
            raise NewickError("leaf labels must be positive integers", start)
        v = fresh()
        leaf_labels[v] = label
        return v

    root = parse_node(0)
    skip_ws()
    if pos >= n or text[pos] != ";":
        raise NewickError("expected terminating ';'", pos)
    pos += 1
    skip_ws()
    if pos != n:
        raise NewickError("trailing characters after ';'", pos)
    if root in leaf_labels:
        raise NewickError("a single leaf is not a binary tree", 0)
    try:
        return RootedBinaryTree(root, children, leaf_labels)
    except TreeError as exc:
        raise NewickError(str(exc)) from exc


# -- shape enumeration ------------------------------------------------------


# Largest leaf count the enumerations and the CLI accept by default.
MAX_LEAVES = 10


@lru_cache(maxsize=None)
def _shapes(n: int) -> tuple:
    if n == 1:
        return ((),)
    out = []
    for k in range(1, n // 2 + 1):
        left = _shapes(k)
        right = _shapes(n - k)
        for i, s1 in enumerate(left):
            for s2 in right if k != n - k else right[i:]:
                out.append((s1, s2) if s1 <= s2 else (s2, s1))
    return tuple(sorted(set(out)))


def tree_from_shape(shape) -> RootedBinaryTree:
    """Build a tree of the given nested-tuple shape with leaves 1..n in preorder."""
    children: dict = {}
    leaf_labels: dict = {}
    counter = [0]
    next_label = [1]

    def build(s) -> int:
        v = counter[0]
        counter[0] += 1
        if s == ():
            leaf_labels[v] = next_label[0]
            next_label[0] += 1
            return v
        children[v] = (build(s[0]), build(s[1]))
        return v

    root = build(shape)
    return RootedBinaryTree(root, children, leaf_labels)


def enumerate_topologies(n: int, max_leaves: int = MAX_LEAVES) -> list:
    """One representative per rooted binary shape on n leaves,
    2 <= n <= max_leaves.

    Counts follow the Wedderburn-Etherington sequence 1, 1, 2, 3, 6, 11, 23...
    """
    if not 2 <= n <= max_leaves:
        raise TreeError(f"n must be in 2..{max_leaves}, got {n}")
    return [tree_from_shape(s) for s in _shapes(n)]


# -- clusters ----------------------------------------------------------------


def _interior_degree(tree: RootedBinaryTree, v: int) -> int:
    """Number of interior nodes adjacent to the interior node v.  The parent
    of a non-root node is always interior, so only the children are tested."""
    a, b = tree.children(v)
    return (v != tree.root) + tree.is_interior(a) + tree.is_interior(b)


def cluster_nodes(tree: RootedBinaryTree) -> list:
    """Interior nodes adjacent to three interior nodes, in canonical preorder."""
    return [v for v in tree.interior_nodes if _interior_degree(tree, v) == 3]


def enumerate_clusters(tree: RootedBinaryTree) -> list:
    """All clusters of the tree, sorted by their member index sets.

    A connected set of nodes in a rooted tree has exactly one top, the
    member every other member descends from.  Each cluster is grown from its
    top down through cluster-node children, so it is produced exactly once,
    and its top is its max_vertex."""
    grown = {}
    # Reversed preorder visits children before their parent.
    for v in reversed(cluster_nodes(tree)):
        sets = [frozenset([v])]
        for k in tree.children(v):
            if k in grown:
                sets += [s | below for s in sets for below in grown[k]]
        grown[v] = sets
    result = []
    for top, sets in grown.items():
        for members in sets:
            # Cluster nodes have two interior children; the top's parent is
            # the one interior neighbor above the set.
            below = {k for v in members for k in tree.children(v)}
            neighbors = frozenset({tree.parent(top), *below} - members)
            result.append(Cluster(members, neighbors, top))
    result.sort(key=lambda c: tuple(sorted(tree.interior_index(v) for v in c.members)))
    return result


# -- NNI ---------------------------------------------------------------------


def apply_nni(tree: RootedBinaryTree, triple: NniTriple) -> RootedBinaryTree:
    """Prune c, the edge c-e and the e-subtree from below b, and reattach on
    the other child edge of b.  Node ids are preserved, so coordinates of the
    two polytopes are comparable node-by-node.

    After the move: b's children are {d, c} and c's children are {e, f},
    where d was the other child of c and f the other child of b.
    """
    b, c, e = triple.b, triple.c, triple.e
    if not (tree.is_interior(b) and tree.is_interior(c)):
        raise TreeError("b and c must be interior nodes")
    if tree.parent(c) != b or tree.parent(e) != c:
        raise TreeError("triple is not a descending chain b -> c -> e")
    d = tree.sibling(e)
    f = tree.sibling(c)
    return _restrict(tree, tree.root, tree.nodes(), {b: (d, c), c: (e, f)})


def nni_triples(tree: RootedBinaryTree) -> list:
    """All valid NNI triples (b, c, e): b, c interior, c a child of b."""
    out = []
    for b in tree.interior_nodes:
        for c in tree.children(b):
            if not tree.is_interior(c):
                continue
            for e in tree.children(c):
                out.append(NniTriple(b, c, e))
    return out


# -- derived trees and the toric-fiber-product split ---------------------------


def _restrict(tree: RootedBinaryTree, root: int, nodes, graft: dict):
    """The tree on ``nodes`` rooted at ``root``, with every node id kept.
    ``graft`` gives new children to some nodes; each grafted id outside
    ``nodes`` becomes a leaf labeled max(leaf_labels) + 1, + 2, ... in id
    order.  The constructor validates the result."""
    kids, labels = tree._children, tree._leaf_label
    children = {u: kids[u] for u in nodes if u in kids}
    leaf_labels = {u: labels[u] for u in nodes if u in labels}
    fresh = sorted({k for pair in graft.values() for k in pair} - set(nodes))
    children.update(graft)
    for i, u in enumerate(fresh, start=max(labels.values()) + 1):
        leaf_labels[u] = i
    return RootedBinaryTree(root, children, leaf_labels)


def _subtree(tree: RootedBinaryTree, v: int) -> RootedBinaryTree:
    return _restrict(tree, v, tree.subtree_nodes(v), {})


def _split_at(tree: RootedBinaryTree, v: int):
    """The two halves of the decomposition at v; node ids are preserved and
    the grafted leaves get the next unused ids."""
    new = max(tree.nodes()) + 1
    if v == tree.root:
        # each half keeps one side of the root and a new leaf on the other,
        # the right side first
        left, right = tree.children(v)
        return tuple(
            _restrict(tree, v, tree.subtree_nodes(keep) | {v}, {v: (keep, new)})
            for keep in (right, left)
        )
    # non-root: T1 = everything above v with a cherry grafted below v,
    # T2 = the subtree rooted at v.
    above = (set(tree.nodes()) - tree.subtree_nodes(v)) | {v}
    return _restrict(tree, tree.root, above, {v: (new, new + 1)}), _subtree(tree, v)


def _tfp_node(tree: RootedBinaryTree):
    """The first interior node, in canonical preorder, adjacent to exactly
    two interior nodes, or None."""
    for v in tree.interior_nodes:
        if _interior_degree(tree, v) == 2:
            return v
    return None


def is_cluster_tree(tree: RootedBinaryTree) -> bool:
    """Every non-leaf vertex lies in some cluster C or its neighbor set N(C).

    Equivalently, the tree has n >= 4 leaves and no node to split at: the
    root then has one leaf child and one interior child, and the cluster
    nodes form one cluster with 2|C| + 3 = n."""
    return tree.n_leaves >= 4 and _tfp_node(tree) is None


def validate_order_ideal(tree: RootedBinaryTree, members) -> frozenset:
    """Check downward-closure in the descendant poset on interior nodes."""
    members = frozenset(members)
    for v in members:
        if not tree.is_interior(v):
            raise TreeError(f"ideal member {v} is not an interior node")
        for k in tree.children(v):
            if tree.is_interior(k) and k not in members:
                raise TreeError("ideal is not downward-closed")
    return members
