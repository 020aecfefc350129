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
from math import gcd

from . import hull as _hull
from .paths import even_labelings, labeling_edges, topset_of_edges
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

    def normalized(self) -> "Inequality":
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        g = gcd(g, abs(self.rhs))
        if g > 1:
            return Inequality(
                tuple(c // g for c in self.coeffs), self.rhs // g, self.kind
            )
        return self

    def satisfied_by(self, point) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, point))
        if self.kind == "root_equality":
            return lhs == self.rhs
        return lhs <= self.rhs

    def tight_at(self, point) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, point)) == self.rhs


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

    def contains(self, point) -> bool:
        return all(f.satisfied_by(point) for f in self.facets)

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
    verts = set()
    for labeling in even_labelings(tree.n_leaves):
        edges = labeling_edges(tree, labeling)
        mask = {"x": topset_of_edges(tree, edges), "y": edges}
        verts.add(tuple(mask[kind] >> v & 1 for kind, v in coords))
    facets = tuple(facets_RTI(tree, ideal))
    labels = tuple(_coord_label(tree, c) for c in coords)
    return Polytope(len(coords), tuple(sorted(verts)), facets, labels)


def _unit(coords, index_of, key, value):
    out = [0] * len(coords)
    out[index_of[key]] = value
    return out


def facets_RTI(tree: RootedBinaryTree, ideal) -> list:
    """Closed-form H-description of R_T(I) (one equality plus facets).

    Families: the root equality y_s = y_t; four local inequalities per
    interior vertex outside I from the plain-model facets; x >= 0 inside I;
    x_i + x_j <= 1 on adjacent pairs inside I; x_r + y_r <= 1 tying each
    maximal r in I to its up edge; y_r >= 0 when no vertex outside I sees the
    root edges; y <= 1 for the 2-leaf degenerate case; and the cluster
    inequalities, with the up-edge term y_m(C) present exactly when m(C) is
    maximal in I.
    """
    ideal = validate_order_ideal(tree, ideal)
    coords = rti_coordinates(tree, ideal)
    index_of = {c: i for i, c in enumerate(coords)}
    d = len(coords)
    out = []
    full = len(ideal) == tree.n_leaves - 1

    if not full:
        s, t = tree.children(tree.root)
        coeffs = [0] * d
        coeffs[index_of[("y", s)]] = 1
        coeffs[index_of[("y", t)]] = -1
        out.append(Inequality(tuple(coeffs), 0, "root_equality"))

    # Local facets at interior vertices outside I.
    for v in tree.interior_nodes:
        if v in ideal or v == tree.root:
            continue
        kids = tree.children(v)
        trio = [index_of[("y", v)], index_of[("y", kids[0])], index_of[("y", kids[1])]]
        for pos in range(3):
            coeffs = [0] * d
            for t_, idx in enumerate(trio):
                coeffs[idx] = 1 if t_ == pos else -1
            out.append(Inequality(tuple(coeffs), 0, "cfn_local"))
        coeffs = [0] * d
        for idx in trio:
            coeffs[idx] = 1
        out.append(Inequality(tuple(coeffs), 2, "cfn_local"))

    # x >= 0.
    for v in tree.interior_nodes:
        if v in ideal:
            out.append(
                Inequality(tuple(_unit(coords, index_of, ("x", v), -1)), 0, "nonneg")
            )

    # Adjacent pairs inside I.
    for v in tree.interior_nodes:
        if v not in ideal:
            continue
        for k in tree.children(v):
            if tree.is_interior(k) and k in ideal:
                coeffs = [0] * d
                coeffs[index_of[("x", v)]] = 1
                coeffs[index_of[("x", k)]] = 1
                out.append(Inequality(tuple(coeffs), 1, "adjacency"))

    # Each maximal r in I against its own up edge (vacuous when I = Int(T):
    # no y-coordinates remain).
    maximal = (
        []
        if full
        else [v for v in tree.interior_nodes if v in ideal and tree.parent(v) not in ideal]
    )
    for r in maximal:
        coeffs = [0] * d
        coeffs[index_of[("x", r)]] = 1
        coeffs[index_of[("y", r)]] = 1
        out.append(Inequality(tuple(coeffs), 1, "adjacency"))

    # y >= 0 at the root: a facet only when no interior vertex outside I
    # supplies local inequalities that already imply it.
    if not full:
        s, t = tree.children(tree.root)
        blockers = [
            v for v in (s, t) if tree.is_interior(v) and v not in ideal
        ]
        if not blockers:
            coeffs = [0] * d
            coeffs[index_of[("y", s)]] = -1
            out.append(Inequality(tuple(coeffs), 0, "nonneg"))
        if tree.n_leaves == 2:
            coeffs = [0] * d
            coeffs[index_of[("y", s)]] = 1
            out.append(Inequality(tuple(coeffs), 1, "cfn_local"))

    # Cluster inequalities inside I.
    for cl in enumerate_clusters(tree):
        if not cl.members <= ideal:
            continue
        coeffs = [0] * d
        for v in cl.members:
            coeffs[index_of[("x", v)]] = 2
        for v in cl.neighbor_set:
            if v in ideal:
                coeffs[index_of[("x", v)]] = 1
        m = cl.max_vertex
        if tree.parent(m) not in ideal and not full:
            coeffs[index_of[("y", m)]] = 1
        out.append(Inequality(tuple(coeffs), len(cl.members) + 1, "cluster"))

    if full and tree.n_leaves == 2:
        # R_T for the 2-leaf tree: the segment needs its upper bound x <= 1.
        out.append(Inequality((1,), 1, "adjacency"))
    return [f.normalized() for f in out]


# -- hull oracle plumbing -------------------------------------------------------


def h_reps_match(polytope: Polytope) -> bool:
    """True iff the closed-form facets equal the hull oracle's, compared in
    the chart of the affine hull."""
    eqs, facets, pivots, relations = _hull.hull_h_description(polytope.vertices)
    oracle = set(facets)
    claimed = set()
    for f in polytope.inequalities:
        claimed.add(_hull.reduce_to_chart(f.coeffs, f.rhs, pivots, relations))
    if len(eqs) != len(polytope.equalities):
        return False
    for e in polytope.equalities:
        c, r = _hull.reduce_to_chart(e.coeffs, e.rhs, pivots, relations)
        if any(x != 0 for x in c) or r != 0:
            return False
    return claimed == oracle


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
