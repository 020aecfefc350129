"""Lattice-point counting, Ehrhart interpolation, volume, and NNI audits.

Counts are exact Python integers, made by one bottom-up pass over the tree
(Stanley's transfer-matrix method, EC1 4.7, run along the tree instead of
along a coordinate order).  The Ehrhart polynomial is read off the integer
forward differences of the counts (Newton's form); only its power-basis
coefficients are Fractions.

The rule.  Give every interior node v the value h_v = x_v, except that a
cluster node (one with three interior neighbours: ``tree.cluster_nodes``,
the rule that grows the clusters) gets h_v = max(x_v, g_v), with
g_v = 2 x_v - m + h_k1 + h_k2 over its two interior children.  A point of
[0, m]^Int lies in m * R_T exactly when h_v <= m - x_parent(v) for every
non-root interior node v.

Proof.  The facets of m * R_T (``facets_RTI`` with I = Int(T)) are x >= 0,
the adjacency rows x_v + x_parent(v) <= m, and one row per cluster C,
sum_C 2x + sum_N(C) x <= (|C| + 1) m, where N(C) is the parent of the top
t of C together with the children of members that are not members (every
child of a cluster node is interior).  The adjacency rows and x >= 0 put
every point in the box: each coordinate shares a row with an interior
neighbour, and the 2-leaf R_T is the segment [0, 1].  Written as
sum_C (2x - m) + sum_(N(C) - parent(t)) x <= m - x_parent(t), a cluster row
has its left side built from the top down: a cluster with top t is {t}
together with, for each child k of t independently, either nothing (k is
then a neighbour and adds x_k) or a cluster with top k, which needs k to
be a cluster node.  So the largest left side over the clusters with top t
is 2 x_t - m + h_k1 + h_k2 = g_t, by induction on the height of t, and all
cluster rows with top t hold exactly when g_t <= m - x_parent(t).  With the
adjacency row at t that is h_t <= m - x_parent(t).  The root is never a
cluster node and every cluster has one top, so these conditions, one per
non-root interior node, are every row.  Since h_v reads only coordinates
below v, each node keeps a table of counts by h_v, and its parent reads the
tables of its children.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, prod

from .paths import classify_maintaining, enumerate_topsets, is_blocked, topset_bits
from .tree import NniTriple, RootedBinaryTree, TreeError, apply_nni, cluster_nodes


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact coefficients, ascending degree; i(0) = 1 for a lattice polytope.

    ``counts`` holds the lattice-point counts of the dilates m = 0..dim+1
    that the polynomial was interpolated through and checked against."""

    coefficients: tuple
    counts: tuple

    def __call__(self, m: int) -> int:
        val = sum(c * Fraction(m) ** k for k, c in enumerate(self.coefficients))
        if val.denominator != 1:
            raise ValueError(f"non-integer Ehrhart value at m={m}")
        return int(val)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def normalized_volume(self) -> int:
        lead = self.coefficients[-1] * factorial(self.degree)
        if lead.denominator != 1 or lead <= 0:
            raise ValueError("leading coefficient times dim! must be a positive integer")
        return int(lead)

    def h_star_vector(self) -> tuple:
        """Numerator coefficients of the rational generating function; they
        are nonnegative integers summing to the normalized volume."""
        d = self.degree
        out = []
        for j in range(d + 1):
            val = sum(
                (-1) ** (j - i) * comb(d + 1, j - i) * self.counts[i]
                for i in range(j + 1)
            )
            out.append(val)
        return tuple(out)

    def as_strings(self) -> list:
        return [str(c) for c in self.coefficients]


def count_lattice_points(tree: RootedBinaryTree, m: int) -> int:
    """#(Z^(n-1) intersect m * R_T), by one bottom-up pass over the interior
    nodes (see the module docstring for the rule and its proof).

    Each node holds a table over h = 0..m: how many assignments of the
    coordinates in its subtree meet every condition below the node and give
    it that h.  A cluster node costs O(m^3), any other node O(m)."""
    if m < 0:
        raise TreeError("dilate must be nonnegative")
    clusters = set(cluster_nodes(tree))
    tables = {}
    for v in reversed(tree.interior_nodes):  # children before parents
        below = [tables.pop(k) for k in tree.children(v) if tree.is_interior(k)]
        if v in clusters:
            f1, f2 = below
            table = [0] * (m + 1)
            for x in range(m + 1):
                for h1 in range(m - x + 1):
                    if f1[h1]:
                        base = 2 * x - m + h1
                        for h2 in range(m - x + 1):
                            g = base + h2
                            table[g if g > x else x] += f1[h1] * f2[h2]
        else:
            sums = [list(accumulate(f)) for f in below]
            table = [prod(s[m - x] for s in sums) for x in range(m + 1)]
        tables[v] = table
    return sum(tables[tree.root])


def ehrhart_polynomial(tree: RootedBinaryTree) -> EhrhartPolynomial:
    """Newton's form sum D_k * C(m, k) through m = 0..dim, with D_k the k-th
    forward difference of the counts at 0 (D_dim is the normalized volume),
    verified at m = dim + 1: the counts fit degree dim iff D_(dim+1) = 0."""
    d = len(tree.interior_nodes)
    counts = [count_lattice_points(tree, m) for m in range(d + 2)]
    diffs, row = [], counts
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    if diffs.pop():
        raise ValueError("interpolation failed its out-of-sample check; counting bug")
    coeffs = [Fraction(0)] * (d + 1)
    falling = [1]  # m(m-1)...(m-k+1) in the power basis, ascending degree
    for k, diff in enumerate(diffs):
        for j, c in enumerate(falling):
            coeffs[j] += Fraction(diff * c, factorial(k))
        falling = [a - k * b for a, b in zip([0, *falling], [*falling, 0])]
    return EhrhartPolynomial(tuple(coeffs), tuple(counts))


def normalized_volume(tree: RootedBinaryTree) -> int:
    return ehrhart_polynomial(tree).normalized_volume


def euler_zigzag(n: int) -> int:
    """E_n, the number of alternating permutations: 1, 1, 1, 2, 5, 16, 61, ...
    computed by the boustrophedon recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for k in range(1, n + 1):
        new = [0] * (k + 1)
        for i in range(1, k + 1):
            new[i] = new[i - 1] + row[k - i]
        row = new
    return row[-1] if n > 0 else 1


def fibonacci(n: int) -> int:
    """F_n with F_0 = F_1 = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- NNI dilate checks ----------------------------------------------------------


def nni_count_check(
    tree: RootedBinaryTree, triple: NniTriple, m: int, memo: dict | None = None
) -> dict:
    """Dilate counts of R_T and R_T' for an NNI-adjacent pair.

    ``memo`` maps (Newick string, m) to a count already made; a caller
    checking many pairs passes one dict, so that each tree is counted once
    per dilate."""
    if m < 1:
        raise TreeError("dilate must be >= 1")
    memo = {} if memo is None else memo
    c1 = _memo_count(tree, m, memo)
    c2 = _memo_count(apply_nni(tree, triple), m, memo)
    return {"countT": c1, "countT2": c2, "equal": c1 == c2}


def _memo_count(tree: RootedBinaryTree, m: int, memo: dict) -> int:
    """The count of m * R_T; the Newick string fixes the tree, so it keys
    the memo."""
    key = (tree.to_newick(), m)
    if key not in memo:
        memo[key] = count_lattice_points(tree, m)
    return memo[key]


def _blocked(tree, triple, topsets) -> dict:
    """(d blocked, f blocked) for each top-set, with d the sibling of e and f
    the sibling of c."""
    d = tree.sibling(triple.e)
    f = tree.sibling(triple.c)
    return {s: (is_blocked(tree, s, d), is_blocked(tree, s, f)) for s in topsets}


def df_compression_audit(
    tree: RootedBinaryTree, triple: NniTriple, m: int, memo: dict | None = None
) -> dict:
    """For every lattice point of m*R_T, take a representation as a sum of m
    vertices with the fewest nonmaintaining summands (the first such in
    combinations_with_replacement order), and check it is df-compressed.
    Exponential; meant for m <= 3.

    A representation is d-compressed when either every summand avoiding b
    and c has d blocked, or every summand marking b is maintaining;
    f-compressed is the mirror image with c and f.  Minimal representations
    are always both.  Each top-set contributes its vector packed two bits per
    coordinate (a coordinate of a sum of m <= 3 vertices is at most 3), its
    nonmaintaining count, and four flags: plain with d unblocked (1), plain
    with f unblocked (2), marking b and nonmaintaining (4), marking c and
    nonmaintaining (8).  A representation's point and cost are then sums and
    its flags an OR, and it fails exactly when it has flags 1 and 4, or 2
    and 8.  Coordinate j of a point sits at bits 2j and 2j+1.

    ``memo`` holds the top-sets of (tree, triple) with their packed vectors
    and classifications under the move; a caller auditing several dilates of
    one move passes one dict, so that each top-set is classified once.
    """
    if m < 1:
        raise TreeError("dilate must be >= 1")
    if m > 3:
        raise TreeError("audit is exhaustive; use m <= 3")
    key = (tree.to_newick(), tuple(tree.interior_nodes), triple)
    memo = {} if memo is None else memo
    if key not in memo:
        topsets = enumerate_topsets(tree)
        memo[key] = (
            topsets,
            {
                s: sum(x << 2 * j for j, x in enumerate(topset_bits(tree, s)))
                for s in topsets
            },
            {s: classify_maintaining(tree, triple, s)[0] for s in topsets},
            _blocked(tree, triple, topsets),
        )
    topsets, packed, maintaining, blocked = memo[key]
    b, c = 1 << triple.b, 1 << triple.c
    rows = []  # (packed vector, nonmaintaining count, flags) per top-set
    for s in topsets:
        plain = not s & (b | c)
        lost = not maintaining[s]
        d_blocked, f_blocked = blocked[s]
        flags = (
            (plain and not d_blocked)
            | (plain and not f_blocked) << 1
            | (lost and s & b != 0) << 2
            | (lost and s & c != 0) << 3
        )
        rows.append((packed[s], int(lost), flags))

    # the first m-1 summands, in combinations_with_replacement order, each
    # with the index the next summand starts from
    prefixes = [(0, 0, 0, 0)]
    for _ in range(m - 1):
        prefixes = [
            (j, point + p, cost + k, flags | f)
            for i, point, cost, flags in prefixes
            for j, (p, k, f) in enumerate(rows[i:], i)
        ]
    best = {}  # point -> (cost, flags) of its first minimal representation
    for i, point, cost, flags in prefixes:
        for p, k, f in rows[i:]:
            q = point + p
            seen = best.get(q)
            if seen is None or cost + k < seen[0]:
                best[q] = (cost + k, flags | f)
    max_nonmaintaining = 0
    for point, (cost, flags) in best.items():
        if (flags & 1 and flags & 4) or (flags & 2 and flags & 8):
            return {
                "points": len(best),
                "all_compressed": False,
                "counterexample": tuple(
                    point >> 2 * j & 3 for j in range(len(tree.interior_nodes))
                ),
            }
        max_nonmaintaining = max(max_nonmaintaining, cost)
    return {
        "points": len(best),
        "all_compressed": True,
        "max_nonmaintaining_in_minimal": max_nonmaintaining,
    }
