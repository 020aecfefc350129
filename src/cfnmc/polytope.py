"""The model polytope in V- and H-representation, and its relatives.

R_T is the convex hull of all top-vectors of a tree T; its facets follow the
cluster structure of T.  R_T(I), for a downward-closed set I of interior
nodes, interpolates between the plain two-state model polytope (I empty,
edge coordinates y) and R_T (I everything, node coordinates x): node
coordinates below I, edge coordinates above.

The closed-form facet lists here are what the commands print.  The exact
hull in ``cfnmc.hull`` is the independent oracle that ``h_reps_match``
compares them against, for ``--verify-hull`` and ``survey``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import hull as _hull
from .paths import path_systems
from .tree import (
    RootedBinaryTree,
    enumerate_clusters,
    validate_order_ideal,
)


@dataclass(frozen=True)
class Inequality:
    """coeffs . x <= rhs with primitive integer coeffs; equalities are tagged
    root_equality and mean coeffs . x = rhs."""

    coeffs: tuple
    rhs: int
    kind: str


@dataclass(frozen=True)
class Polytope:
    """Exact V- and H-representation with integer data.

    ``coord_labels`` names each coordinate: "x<i>" for the interior node with
    canonical index i, "y<i>" / "yL<label>" for the edge pointing up from
    that node / leaf.
    """

    dim: int
    vertices: tuple
    facets: tuple
    coord_labels: tuple

    @property
    def inequalities(self):
        return tuple(f for f in self.facets if f.kind != "root_equality")

    @property
    def equalities(self):
        return tuple(f for f in self.facets if f.kind == "root_equality")

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "coords": list(self.coord_labels),
            "vertices": [list(v) for v in self.vertices],
            "facets": [
                {"coeffs": list(f.coeffs), "rhs": f.rhs, "kind": f.kind}
                for f in self.facets
            ],
        }


# -- R_T(I) --------------------------------------------------------------------


def build_RT(tree: RootedBinaryTree) -> Polytope:
    """R_T in x-coordinates: R_T(I) with I = Int(T)."""
    return build_RTI(tree, tree.interior_nodes)


def rti_coordinates(tree: RootedBinaryTree, ideal) -> tuple:
    """Coordinate list of R_T(I): ("x", v) for v in I by canonical index,
    then ("y", v) for each non-root v whose parent is outside I (the edges of
    T - I), interior nodes first by index, then leaves by label."""
    ideal = validate_order_ideal(tree, ideal)
    xs = [("x", v) for v in tree.interior_nodes if v in ideal]
    ys = [
        ("y", v)
        for v in tree.non_root_nodes_preorder()
        if tree.parent(v) not in ideal
    ]
    return tuple(xs + ys)


def _coord_label(tree: RootedBinaryTree, coord) -> str:
    kind, v = coord
    if tree.is_leaf(v):
        return f"{kind}L{tree.leaf_label(v)}"
    return f"{kind}{tree.interior_index(v)}"


def build_RTI(tree: RootedBinaryTree, ideal) -> Polytope:
    """R_T(I). With I = Int(T) this is exactly R_T (in x-coordinates);
    with I empty it is the plain two-state model polytope (y-coordinates).

    The vertex of one even labeling has x_v = 1 iff v is a top of its path
    system and y_v = 1 iff the edge above v is used."""
    ideal = validate_order_ideal(tree, ideal)
    coords = rti_coordinates(tree, ideal)
    verts = {
        tuple((tops if kind == "x" else edges) >> v & 1 for kind, v in coords)
        for _, edges, tops in path_systems(tree)
    }
    facets = tuple(facets_RTI(tree, ideal))
    labels = tuple(_coord_label(tree, c) for c in coords)
    return Polytope(len(coords), tuple(sorted(verts)), facets, labels)


def facets_RTI(tree: RootedBinaryTree, ideal) -> list:
    """Closed-form H-description of R_T(I) (one equality plus facets).

    Families: the root equality y_s = y_t; four local inequalities per
    interior vertex outside I from the plain-model facets; x >= 0 inside I;
    x_i + x_j <= 1 on adjacent pairs inside I; x_r + y_r <= 1 tying each
    maximal r in I to its up edge; y_r >= 0 when no vertex outside I sees the
    root edges; y <= 1 for the 2-leaf degenerate case; and the cluster
    inequalities, with the up-edge term y_m(C) present exactly when m(C) is
    maximal in I.  Each family appends its rows through one builder, and the
    append order is the output order.

    Every row is primitive as built, because it has a coefficient ±1.  A
    cluster row has coefficient 1 on both children of a member with no child
    in the cluster: cluster nodes have two interior children, and these lie
    in I because I is downward closed.
    """
    ideal = validate_order_ideal(tree, ideal)
    coords = rti_coordinates(tree, ideal)
    index_of = {c: i for i, c in enumerate(coords)}
    out = []
    full = len(ideal) == tree.n_leaves - 1
    s, t = tree.children(tree.root)

    def row(terms, rhs, kind):
        coeffs = [0] * len(coords)
        for coord, c in terms:
            coeffs[index_of[coord]] = c
        out.append(Inequality(tuple(coeffs), rhs, kind))

    if not full:
        row([(("y", s), 1), (("y", t), -1)], 0, "root_equality")

    # Local facets at interior vertices outside I.
    for v in tree.interior_nodes:
        if v in ideal or v == tree.root:
            continue
        trio = [("y", u) for u in (v, *tree.children(v))]
        for signs in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            row(zip(trio, signs), 0, "cfn_local")
        row(zip(trio, (1, 1, 1)), 2, "cfn_local")

    # x >= 0.
    for v in tree.interior_nodes:
        if v in ideal:
            row([(("x", v), -1)], 0, "nonneg")

    # Adjacent pairs inside I (an ideal holds interior nodes only).
    for v in tree.interior_nodes:
        if v in ideal:
            for k in tree.children(v):
                if k in ideal:
                    row([(("x", v), 1), (("x", k), 1)], 1, "adjacency")

    # With I = Int(T) no y-coordinates remain and these families are vacuous.
    if not full:
        # Each maximal r in I against its own up edge.
        for r in tree.interior_nodes:
            if r in ideal and tree.parent(r) not in ideal:
                row([(("x", r), 1), (("y", r), 1)], 1, "adjacency")
        # y >= 0 at the root: a facet only when no interior vertex outside I
        # supplies local inequalities that already imply it.
        if not any(tree.is_interior(v) and v not in ideal for v in (s, t)):
            row([(("y", s), -1)], 0, "nonneg")
        if tree.n_leaves == 2:
            row([(("y", s), 1)], 1, "cfn_local")

    # Cluster inequalities inside I.
    for cl in enumerate_clusters(tree):
        if cl.members <= ideal:
            terms = [(("x", v), 2) for v in cl.members]
            terms += [(("x", v), 1) for v in cl.neighbor_set if v in ideal]
            m = cl.max_vertex
            if not full and tree.parent(m) not in ideal:
                terms.append((("y", m), 1))
            row(terms, len(cl.members) + 1, "cluster")

    if full and tree.n_leaves == 2:
        # R_T for the 2-leaf tree: the segment needs its upper bound x <= 1.
        row([(("x", tree.root), 1)], 1, "adjacency")
    return out


# -- hull oracle plumbing -------------------------------------------------------


def h_reps_match(polytope: Polytope) -> bool:
    """True iff the closed-form rows are exactly an H-description of the
    convex hull of the vertices: every row holds on every vertex, every
    equality is tight on all of them, there are as many equalities as the
    codimension of the affine hull, and the inequalities are tight on
    exactly the vertex sets of the hull oracle's facets.  A facet is
    determined by the vertices it contains, so no normal form of the rows
    is needed, and a row scaled by a positive factor still matches."""
    verts = polytope.vertices
    dim, oracle = _hull.facet_vertex_sets(verts)

    def values(f):
        return [sum(map(mul, f.coeffs, v)) for v in verts]

    if len(polytope.equalities) != polytope.dim - dim:
        return False
    if any(x != e.rhs for e in polytope.equalities for x in values(e)):
        return False
    tight_sets = set()
    for f in polytope.inequalities:
        vals = values(f)
        if max(vals) > f.rhs:
            return False
        tight_sets.add(frozenset(i for i, x in enumerate(vals) if x == f.rhs))
    return tight_sets == oracle


# -- zig-zag order polytope -----------------------------------------------------


def count_monotone_zigzag_maps(n: int, m: int) -> int:
    """Number of maps P_n -> {0..m} respecting p1 <= p2 >= p3 <= ...; equals
    the number of lattice points in the m-th dilate of the order polytope."""
    counts = [1] * (m + 1)
    for i in range(1, n):
        new = [0] * (m + 1)
        if i % 2 == 1:  # p_{i+1} above p_i
            acc = 0
            for v in range(m + 1):
                acc += counts[v]
                new[v] = acc
        else:  # p_{i+1} below p_i
            acc = 0
            for v in range(m, -1, -1):
                acc += counts[v]
                new[v] = acc
        counts = new
    return sum(counts)
