"""Shared test fixtures: reference trees and small independent oracles.

Nothing in the package calls these; each is what a test compares a
production path against, or a construction only the tests need.
"""

import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import mul

from hypothesis import strategies as st

from cfnmc.ehrhart import _blocked
from cfnmc.hull import _primitive, dd_cone_rays, polar_constraints, rref
from cfnmc.ideal import (
    LiftableOrder,
    MarkedBinomial,
    ToricMatrix,
    _build,
    _marked_rules,
    construct_generators,
    kernel_member,
    marking_consistent_with_weights,
)
from cfnmc.model import LeafDistribution, _transitions
from cfnmc.paths import (
    classify_maintaining,
    enumerate_topsets,
    topset_bits,
    topset_key,
)
from cfnmc.polytope import rti_coordinates
from cfnmc.tree import (
    RootedBinaryTree,
    TreeError,
    parse_newick,
    tree_from_shape,
    validate_order_ideal,
)

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


def caterpillar(n: int) -> RootedBinaryTree:
    """The unique n-leaf shape with exactly one cherry."""
    if n < 2:
        raise TreeError("caterpillar needs n >= 2")
    s = ((), ())
    for _ in range(n - 2):
        s = (s, ())
    return tree_from_shape(s)


def canonical_shape(tree):
    """Nested-tuple shape with children sorted; equal iff same topology."""

    def shape(v):
        if tree.is_leaf(v):
            return ()
        sa, sb = (shape(k) for k in tree.children(v))
        return (sa, sb) if sa <= sb else (sb, sa)

    return shape(tree.root)


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


@st.composite
def random_newick(draw, max_leaves=7):
    """Newick text of a random shape on 2..max_leaves leaves with a random
    labeling and child order."""
    n = draw(st.integers(2, max_leaves))
    labels = draw(st.permutations(range(1, n + 1)))

    def build(lo, hi):
        if hi - lo == 1:
            return str(labels[lo])
        cut = draw(st.integers(lo + 1, hi - 1))
        return f"({build(lo, cut)},{build(cut, hi)})"

    return build(0, n) + ";"


def mask_of(tree, bits) -> int:
    """The top-set mask of a 0/1 vector in canonical interior order."""
    return sum(1 << v for v, bit in zip(tree.interior_nodes, bits) if bit)


def topsets_by_labelings(tree) -> set:
    """Every top-set realized by an even leaf labeling, by the parity rule:
    the edge above v carries a path iff an odd number of 1-labeled leaves
    lie below v, and v is a top iff both of its child edges carry one."""
    below = {v: tree.subtree_nodes(v) for v in tree.nodes()}
    out = set()
    for labeling in product((0, 1), repeat=tree.n_leaves):
        if sum(labeling) % 2:
            continue
        ones = {leaf for leaf, bit in zip(tree.leaves, labeling) if bit}
        used = {v for v in tree.nodes() if len(below[v] & ones) % 2}
        out.add(
            sum(1 << v for v in tree.interior_nodes if set(tree.children(v)) <= used)
        )
    return out


def labeling_edges_by_parity(tree, labeling) -> int:
    """The used edges of paths.path_systems by a parity dict filled
    bottom-up: a leaf's parity is its label, an interior node's the XOR of
    its children's, and the edge above every non-root node of odd parity is
    used."""
    parity = dict(zip(tree.leaves, labeling))
    for v in reversed(tree.interior_nodes):  # children before parents
        a, b = tree.children(v)
        parity[v] = parity[a] ^ parity[b]
    return sum(1 << v for v, bit in parity.items() if bit and v != tree.root)


def topset_of_edges(tree, edges: int) -> int:
    """The interior nodes whose two child edges both lie in ``edges``."""
    return sum(
        1 << v
        for v in tree.interior_nodes
        if all(edges >> k & 1 for k in tree.children(v))
    )


def children_by_min_label(tree) -> dict:
    """Each interior node's children sorted by the smallest leaf label in
    their subtrees, the constructor's left-right order."""

    def min_label(v):
        return min(tree.leaf_label(u) for u in tree.subtree_nodes(v) if tree.is_leaf(u))

    return {
        v: tuple(sorted(tree.children(v), key=min_label)) for v in tree.interior_nodes
    }


def topset_key_by_scan(tree, topset: int) -> str:
    """paths.topset_key by reading the top-set's bit at every interior node
    in canonical order."""
    return "".join(str(topset >> v & 1) for v in tree.interior_nodes)


def sorted_by_index_tuples(tree, topsets) -> list:
    """Top-sets sorted by the tuple of canonical indices of their tops, the
    order of paths.enumerate_topsets."""
    interior = tree.interior_nodes
    return sorted(
        topsets,
        key=lambda s: tuple(i for i, v in enumerate(interior) if s >> v & 1),
    )


def class_table_by_labelings(tree) -> tuple:
    """model._class_table by walking the labeling tuples in lexicographic
    order: the indices of the odd ones, and (index, top-set key) of each
    even one, from the parity-dict path system and the scanned key."""
    labelings = list(product((0, 1), repeat=tree.n_leaves))
    odd = [i for i, lab in enumerate(labelings) if sum(lab) % 2]
    even = [
        (
            i,
            topset_key_by_scan(
                tree, topset_of_edges(tree, labeling_edges_by_parity(tree, lab))
            ),
        )
        for i, lab in enumerate(labelings)
        if not sum(lab) % 2
    ]
    return odd, even


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def tight_at(facet, point) -> bool:
    return sum(c * x for c, x in zip(facet.coeffs, point)) == facet.rhs


def satisfied_by(facet, point) -> bool:
    """coeffs . point <= rhs, or = rhs for the root equality."""
    lhs = sum(c * x for c, x in zip(facet.coeffs, point))
    if facet.kind == "root_equality":
        return lhs == facet.rhs
    return lhs <= facet.rhs


def polytope_contains(polytope, point) -> bool:
    return all(satisfied_by(f, point) for f in polytope.facets)


def count_by_box(polytope, m: int) -> int:
    """Brute-force #(Z^dim intersect m*P): every point of the box [0, m]^dim
    tested against the facets of m*P."""
    dilate = replace(
        polytope, facets=tuple(replace(f, rhs=f.rhs * m) for f in polytope.facets)
    )
    return sum(
        polytope_contains(dilate, x)
        for x in product(range(m + 1), repeat=polytope.dim)
    )


def count_by_vertex_sums(polytope, m: int) -> int:
    """Independent counter: by normality, the lattice points of m*P are
    exactly the sums of m vertices (the zero vertex pads short sums)."""
    if m == 0:
        return 1
    pts = set()
    for combo in combinations_with_replacement(polytope.vertices, m):
        pts.add(tuple(map(sum, zip(*combo))))
    return len(pts)


def count_by_sweep(polytope, m: int) -> int:
    """#(Z^dim intersect m * P), counted exactly over the box [0, m]^dim by a
    sweep over the coordinates: the oracle of the tree pass in
    ``cfnmc.ehrhart.count_lattice_points``, and a counter for every R_T(I).

    Requires P to be a 0/1 polytope presented by its H-representation, which
    holds for every R_T and R_T(I) here.  This is the transfer-matrix method
    (Stanley, EC1 4.7): coordinates are fixed one at a time in index order,
    and the state is the vector of partial sums of the rows that have both
    fixed and free coordinates, held with multiplicities.  A value of the
    next coordinate survives only if every row can still end at most
    rhs * m (exactly rhs * m for the root equality), given the least and
    greatest contribution of its free coordinates over [0, m].  A row that
    holds whatever the free coordinates are has its partial sum raised to
    the least such value, so all of its satisfied states merge.  Facets of
    R_T join nodes that are close in the tree, so few rows are open at once.
    """
    if m < 0:
        raise TreeError("dilate must be nonnegative")
    if not polytope.facets:
        raise TreeError("polytope has no H-representation")
    if m == 0:
        return 1
    rows = []  # (first and last coordinate in the support, coeffs, bound, exact)
    for f in polytope.facets:
        support = [j for j, c in enumerate(f.coeffs) if c]
        bound = f.rhs * m
        exact = f.kind == "root_equality"
        if not support:
            if (bound != 0) if exact else (bound < 0):
                return 0
            continue
        rows.append((support[0], support[-1], f.coeffs, bound, exact))
    states = {(): 1}
    open_rows = []
    for j in range(polytope.dim):
        live = open_rows + [r for r in rows if r[0] == j]
        pad = (0,) * (len(live) - len(open_rows))
        checks = []  # rows on x_j: (position, coefficient, upper, lower or None)
        moves = []  # rows on x_j that stay open: (slot, position, coefficient, floor)
        kept = []
        for pos, (_, last, coeffs, bound, exact) in enumerate(live):
            c = coeffs[j]
            if c:
                low = m * sum(x for x in coeffs[j + 1 :] if x < 0)
                high = m * sum(x for x in coeffs[j + 1 :] if x > 0)
                checks.append((pos, c, bound - low, bound - high if exact else None))
                if last > j:
                    moves.append((len(kept), pos, c, None if exact else bound - high))
            if last > j:
                kept.append(pos)
        nxt = {}
        for state, mult in states.items():
            p = state + pad
            lo, hi = 0, m
            for pos, c, upper, lower in checks:
                # p + c*v <= upper, and p + c*v >= lower for the equality
                t = upper - p[pos]
                if c > 0:
                    hi = min(hi, t // c)
                else:
                    lo = max(lo, -(t // -c))
                if lower is not None:
                    t = lower - p[pos]
                    if c > 0:
                        lo = max(lo, -(-t // c))
                    else:
                        hi = min(hi, -t // -c)
            if lo > hi:
                continue
            out = [p[k] for k in kept]
            for v in range(lo, hi + 1):
                for slot, pos, c, floor in moves:
                    x = p[pos] + c * v
                    out[slot] = x if floor is None or x > floor else floor
                key = tuple(out)
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
        open_rows = [live[k] for k in kept]
    return sum(states.values())


def _lagrange(xs, ys):
    """Power-basis coefficients, ascending, of the polynomial through the
    points (xs[i], ys[i]), by Lagrange interpolation in Fractions: the
    oracle of ehrhart_polynomial's forward differences."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
        for k, c in enumerate(basis):
            coeffs[k] += Fraction(yi) * c / denom
    return coeffs


# -- hull --------------------------------------------------------------------


class DegenerateInputError(ValueError):
    """Input points are not full-dimensional; carries the codimension of
    their affine hull."""

    def __init__(self, codimension):
        super().__init__(f"points are not full-dimensional (codimension {codimension})")
        self.codimension = codimension


def hull_facets(points):
    """Irredundant facet list of conv(points) as (coeffs, rhs) pairs, with
    primitive integer coeffs oriented as coeffs . x <= rhs, read off the
    rays of hull.polar_constraints.  Raises DegenerateInputError for
    lower-dimensional input."""
    points = sorted(set(map(tuple, points)))
    k, total = len(points), [sum(c) for c in zip(*points)]
    rays, codimension = dd_cone_rays(polar_constraints(points), len(total) + 1)
    if codimension:
        raise DegenerateInputError(codimension)
    facets = set()
    for (t, *w), _ in rays:
        # the facet w . (x - total / k) <= t / k, times k
        vec = _primitive([k * x for x in w] + [t + sum(map(mul, w, total))])
        facets.add((vec[:-1], vec[-1]))
    return sorted(facets)


def facet_vertex_sets_by_chart(points):
    """hull.facet_vertex_sets by a chart of the affine hull: project onto the
    pivot columns of the differences to the first point, where the points
    are full-dimensional, take the facet rows there by hull_facets and read
    off the points on each."""
    _, pivots = rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])
    if not pivots:
        return 0, set()
    chart = [tuple(p[j] for j in pivots) for p in points]
    return len(pivots), {
        frozenset(i for i, q in enumerate(chart) if sum(map(mul, coeffs, q)) == rhs)
        for coeffs, rhs in hull_facets(chart)
    }


# -- polytope maps: contraction and the caterpillar's zig-zag order polytope --


def contract_vertex_map(tree, ideal, r: int):
    """The linear map sending R_T(I - {r}) onto R_T(I) for a maximal r in I:
    keep shared coordinates, and set x_r = (-y_r + y_a + y_b)/2 with a, b the
    children of r (the y_r term is absent when r is the root).

    Returns a function on source points; fractional results indicate a bug.
    """
    ideal = validate_order_ideal(tree, ideal)
    if r not in ideal:
        raise TreeError("r must lie in the ideal")
    smaller = ideal - {r}
    validate_order_ideal(tree, smaller)
    src_coords = rti_coordinates(tree, smaller)
    dst_coords = rti_coordinates(tree, ideal)
    src_index = {c: i for i, c in enumerate(src_coords)}
    a, b = tree.children(r)

    def apply(point):
        out = []
        for kind, v in dst_coords:
            if kind == "x" and v == r:
                val = Fraction(point[src_index[("y", a)]] + point[src_index[("y", b)]])
                if r != tree.root:
                    val -= point[src_index[("y", r)]]
                val = val / 2
                if val.denominator != 1:
                    raise TreeError("contraction produced a non-integer point")
                out.append(int(val))
            else:
                out.append(point[src_index[(kind, v)]])
        return tuple(out)

    return apply


def caterpillar_zigzag_map(n: int):
    """The unimodular affine map x -> Dx + a with D = diag(1,-1,1,...) and
    a = (0,1,0,1,...) carrying vert(R_C(n+1)) onto the vertices of the
    zig-zag order polytope on n elements.  Returns (D_diagonal, a, apply)."""
    if n < 1:
        raise TreeError("need n >= 1")
    diag = tuple(1 if i % 2 == 0 else -1 for i in range(n))
    shift = tuple(0 if i % 2 == 0 else 1 for i in range(n))

    def apply(x):
        if len(x) != n:
            raise TreeError(f"expected {n} coordinates, got {len(x)}")
        return tuple(d * xi + s for d, xi, s in zip(diag, x, shift))

    return diag, shift, apply


def zigzag_order_polytope_vertices(n: int) -> list:
    """0/1 points of the order polytope of the zig-zag poset p1 < p2 > p3 < ...
    (weakly order-consistent labelings)."""
    out = []
    for mask in range(2 ** n):
        v = [(mask >> i) & 1 for i in range(n)]
        ok = True
        for i in range(n - 1):
            lo, hi = (i, i + 1) if i % 2 == 0 else (i + 1, i)
            if v[lo] > v[hi]:
                ok = False
                break
        if ok:
            out.append(tuple(v))
    return sorted(out)


# -- NNI audit oracle -----------------------------------------------------------


def _is_df_compressed(triple, topsets, maintaining, blocked) -> bool:
    """A representation is d-compressed when either every summand avoiding
    b and c has d blocked, or every summand marking b is maintaining;
    f-compressed is the mirror image with c and f.  ``maintaining`` maps
    each top-set of the tree to its classification under the move, and
    ``blocked`` maps it to whether d and whether f is blocked (_blocked)."""
    b, c = 1 << triple.b, 1 << triple.c
    plain = [s for s in topsets if not s & (b | c)]
    d_ok = all(blocked[s][0] for s in plain) or all(
        maintaining[s] for s in topsets if s & b
    )
    f_ok = all(blocked[s][1] for s in plain) or all(
        maintaining[s] for s in topsets if s & c
    )
    return d_ok and f_ok


def df_compression_audit_by_reps(tree, triple, m: int, memo=None) -> dict:
    """df_compression_audit by listing every representation of every point
    as a sum of m vertices and taking min over each list.  With ``memo`` (a
    df_compression_audit memo), the classifications are read from it, so
    both audits can be given the same doctored flags."""
    if m > 3:
        raise TreeError("audit is exhaustive; use m <= 3")
    if memo is None:
        topsets = enumerate_topsets(tree)
        maintaining = {s: classify_maintaining(tree, triple, s)[0] for s in topsets}
        blocked = _blocked(tree, triple, topsets)
    else:
        ((topsets, _, maintaining, blocked),) = memo.values()
    vec = {s: topset_bits(tree, s) for s in topsets}

    def n_nonmaintaining(rep):
        return sum(not maintaining[s] for s in rep)

    reps_of = {}
    for rep in combinations_with_replacement(topsets, m):
        point = tuple(map(sum, zip(*(vec[s] for s in rep))))
        reps_of.setdefault(point, []).append(rep)
    audited = 0
    max_nonmaintaining = 0
    for point, reps in reps_of.items():
        best = min(reps, key=n_nonmaintaining)
        max_nonmaintaining = max(max_nonmaintaining, n_nonmaintaining(best))
        if not _is_df_compressed(triple, best, maintaining, blocked):
            return {
                "points": len(reps_of),
                "all_compressed": False,
                "counterexample": point,
            }
        audited += 1
    return {
        "points": audited,
        "all_compressed": True,
        "max_nonmaintaining_in_minimal": max_nonmaintaining,
    }


# -- model oracles --------------------------------------------------------------


def leaf_distribution_bruteforce(tree, params) -> LeafDistribution:
    """Literal sum over all interior labelings; the oracle for the pruning
    pass of model.leaf_distribution, so it works out each edge's
    probability of keeping its state from the branch length itself."""
    params.validate(tree)
    keep = {
        v: (1.0 + math.exp(-2.0 * params.alpha * params.branch_length(tree, v))) / 2.0
        for v in tree.nodes()
        if v != tree.root
    }
    leaves = tree.leaves
    interior = tree.interior_nodes
    probs = {}
    for assignment in product((0, 1), repeat=tree.n_leaves):
        total = 0.0
        for mask in range(2 ** len(interior)):
            state = dict(zip(leaves, assignment))
            for i, v in enumerate(interior):
                state[v] = (mask >> i) & 1
            term = 0.5
            for v, same in keep.items():
                term *= same if state[v] == state[tree.parent(v)] else 1.0 - same
            total += term
        probs[assignment] = total
    return LeafDistribution(probs)


def leaf_distribution_by_assignment(tree, params) -> LeafDistribution:
    """The pruning factorization run once per leaf assignment: a full
    bottom-up pass for each of the 2^n assignments, with the same float
    operations per node as the tabulated model.leaf_distribution, whose
    probabilities must equal these exactly."""
    trans = _transitions(tree, params)
    leaves = tree.leaves
    probs = {}
    for assignment in product((0, 1), repeat=tree.n_leaves):
        below = {leaf: (1.0 - s, float(s)) for leaf, s in zip(leaves, assignment)}
        for v in reversed(tree.interior_nodes):  # children before parents
            b0 = b1 = 1.0
            for k in tree.children(v):
                same, diff = trans[k]
                p0, p1 = below[k]
                b0 *= same * p0 + diff * p1
                b1 *= diff * p0 + same * p1
            below[v] = (b0, b1)
        b0, b1 = below[tree.root]
        probs[assignment] = 0.5 * (b0 + b1)
    return LeafDistribution(probs)


def sign_transform_in_place(values: list) -> list:
    """The sign transform by the in-place butterflies: for h = 1, 2, 4, ...
    each pair (j, j + h) becomes (a + b, a - b).  The oracle the constant
    geometry of model._sign_transform must equal bit for bit."""
    values = list(values)
    h = 1
    while h < len(values):
        for i in range(0, len(values), h * 2):
            for j in range(i, i + h):
                a, b = values[j], values[j + h]
                values[j], values[j + h] = a + b, a - b
        h *= 2
    return values


def class_monomial_value(tree, params, key: str) -> float:
    """Independent evaluation of a class coordinate as the product of
    exp(-4 * alpha * height) over the marked nodes (the per-node parameters
    the clock condition induces)."""
    val = 1.0
    for bit, v in zip(key, tree.interior_nodes):
        if bit == "1":
            val *= math.exp(-4.0 * params.alpha * params.heights[v])
    return val


# -- ideal oracles ----------------------------------------------------------------


def quadratic_kernel_oracle(matrix) -> list:
    """All degree-2 kernel binomials by brute force, deduplicated up to sign."""
    if matrix.n_cols > 500:
        raise TreeError("column cap exceeded for the quadratic oracle")
    fibers = {}
    for pair in combinations_with_replacement(matrix.keys, 2):
        fibers.setdefault(matrix.monomial_sum(pair), []).append(pair)
    out = []
    for monos in fibers.values():
        for m1, m2 in combinations(monos, 2):
            hi, lo = max(m1, m2), min(m1, m2)
            out.append(MarkedBinomial(hi, lo, "oracle"))
    out.sort(key=lambda b: (b.plus, b.minus))
    return out


def construct_generators_by_compare(tree) -> list:
    """The generators of construct_generators with each raw quadric's
    marking decided by a call of LiftableOrder.compare on its sorted key
    tuples, under the order construct_generators exports; the oracle for
    the marking on masks and weights."""
    _, order = construct_generators(tree)
    classes, raw, _ = _build(tree, False)
    key_of = {c: topset_key(tree, c) for c in classes}
    gens = []
    for plus_pair, minus_pair, prov in raw:
        plus = tuple(sorted(key_of[c] for c in plus_pair))
        minus = tuple(sorted(key_of[c] for c in minus_pair))
        if order.compare(plus, minus) < 0:
            plus, minus = minus, plus
        gens.append(MarkedBinomial(plus, minus, prov))
    gens.sort(key=lambda b: (b.plus, b.minus))
    return gens


def maximal_cliques_by_subsets(adj) -> set:
    """Bitsets of the maximal cliques of the graph where vertex i has the
    neighbours adj[i], by testing every vertex subset."""
    n = len(adj)
    cliques = [
        s
        for s in range(1 << n)
        if all(s & ~adj[i] & ~(1 << i) == 0 for i in range(n) if s >> i & 1)
    ]
    members = set(cliques)
    return {
        s for s in cliques if not any(s | 1 << i in members for i in range(n) if not s >> i & 1)
    }


def determinant_by_permutations(rows) -> int:
    """Leibniz expansion of the determinant of a square integer matrix."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(row[j] for row, j in zip(rows, perm))
    return total


# -- the S-pair oracle for the Gröbner certificate ----------------------------


REDUCTION_CAP = 10_000


class InitialIndex:
    """Positions of marked binomials by initial monomial (a sorted key
    tuple), ascending.  The initials dividing a monomial are found by looking
    up its distinct sub-multisets of the degrees present, at most six for
    the degree-4 S-pair terms of quadrics, instead of testing every rule."""

    def __init__(self, initials):
        self.positions = {}
        for i, ini in enumerate(initials):
            self.positions.setdefault(tuple(sorted(ini)), []).append(i)
        self.degrees = sorted({len(k) for k in self.positions})

    def dividing(self, mono: tuple):
        """(initial, positions) for each distinct initial dividing the
        sorted monomial mono."""
        for d in self.degrees:
            if d > len(mono):
                break
            for sub in dict.fromkeys(combinations(mono, d)):
                positions = self.positions.get(sub)
                if positions is not None:
                    yield sub, positions

    def lowest(self, mono: tuple):
        """The lowest position whose initial divides mono, or None."""
        return min((pos[0] for _, pos in self.dividing(mono)), default=None)


def _exchange(mono: tuple, out: tuple, into: tuple) -> tuple:
    """mono / out * into as a sorted key tuple; out must divide mono."""
    rest = list(mono)
    for k in out:
        rest.remove(k)
    return tuple(sorted(rest + list(into)))


def _cofactor(a: tuple, b: tuple) -> list:
    """lcm(a, b) / a, that is b / gcd(a, b), as a list of keys."""
    rest = list(b)
    for k in a:
        if k in rest:
            rest.remove(k)
    return rest


def _normal_form(mono: tuple, rules, index: InitialIndex) -> tuple:
    """Marked rewriting of the sorted monomial mono, always by the lowest
    rule whose initial divides it, until no initial divides it."""
    steps = 0
    while (i := index.lowest(mono)) is not None:
        steps += 1
        if steps > REDUCTION_CAP:
            raise ReductionDiverged()
        ini, tail = rules[i]
        mono = _exchange(mono, ini, tail)
    return mono


class ReductionDiverged(Exception):
    pass


def groebner_verify_by_spairs(
    matrix: ToricMatrix, gens, order: LiftableOrder | None = None
) -> bool:
    """Marked Buchberger criterion: markings must be squarefree kernel
    binomials and every S-pair must reduce to zero under marked rewriting.
    A diverging reduction (possible only for markings inconsistent with any
    term order) counts as failure.

    When order is given and every marking strictly dominates its tail under
    it (marking_consistent_with_weights), the markings are the leading terms
    of the term order LiftableOrder.compare, and S-pairs whose initials are
    coprime are skipped (Buchberger's first criterion).  For a - b and c - d
    with a, c coprime the S-pair terms are b*c and a*d; each rewrites in one
    step to b*d, so the pair reduces to zero, and rewriting terminates
    because every step descends in the order.  Under a term order the
    remaining pairs then decide the verdict as the full loop does.  A
    marking that no term order induces can hide a failure in a coprime pair
    (Reeves and Sturmfels, 1993), so without order, or on any marking the
    order does not induce, every pair is reduced."""
    for g in gens:
        if not kernel_member(matrix, g):
            return False
        if len(g.plus) != len(g.minus):
            return False
        if not g.initial_squarefree():
            return False
    rules = _marked_rules(gens)
    index = InitialIndex(ini for ini, _ in rules)
    if order is not None and marking_consistent_with_weights(gens, order):
        pairs = _overlapping_pairs(rules)
    else:
        pairs = combinations_with_replacement(rules, 2)
    try:
        for (p1, m1), (p2, m2) in pairs:
            u = tuple(sorted([*m1, *_cofactor(p1, p2)]))
            w = tuple(sorted([*m2, *_cofactor(p2, p1)]))
            if _normal_form(u, rules, index) != _normal_form(w, rules, index):
                return False
    except ReductionDiverged:
        return False
    return True


def _overlapping_pairs(rules):
    """The pairs of combinations_with_replacement(rules, 2), in its order,
    whose initials share a key; the coprime ones are left out."""
    holders = {}
    for i, (ini, _) in enumerate(rules):
        for k in set(ini):
            holders.setdefault(k, []).append(i)
    for i, rule in enumerate(rules):
        partners = {j for k in set(rule[0]) for j in holders[k] if j >= i}
        for j in sorted(partners):
            yield rule, rules[j]


def reduces_to_zero(binomial, gens) -> bool:
    """Whether plus - minus reduces to 0 against the marked basis, by the
    indexed rewriting groebner_verify_by_spairs uses."""
    rules = _marked_rules(gens)
    index = InitialIndex(ini for ini, _ in rules)
    try:
        return _normal_form(tuple(sorted(binomial.plus)), rules, index) == _normal_form(
            tuple(sorted(binomial.minus)), rules, index
        )
    except ReductionDiverged:
        return False


# -- linear-scan oracles for the indexed Gröbner, reducedness and fiber code --


def _divides(small: Counter, big: Counter) -> bool:
    return all(big[k] >= c for k, c in small.items())


class ScanDiverged(Exception):
    pass


def normal_form_by_scan(mono: Counter, rules) -> tuple:
    """Marked rewriting that tests every rule in turn and restarts from the
    first after each rewrite."""
    steps = 0
    changed = True
    while changed:
        changed = False
        for plus, minus in rules:
            if _divides(plus, mono):
                mono = mono - plus + minus
                steps += 1
                if steps > REDUCTION_CAP:
                    raise ScanDiverged()
                changed = True
                break
    return tuple(sorted(mono.elements()))


def _rules(gens) -> list:
    return [(Counter(g.plus), Counter(g.minus)) for g in gens]


def reduces_to_zero_by_scan(binomial, gens) -> bool:
    """reduces_to_zero with every divisor found by scanning all rules."""
    rules = _rules(gens)
    try:
        return normal_form_by_scan(Counter(binomial.plus), rules) == normal_form_by_scan(
            Counter(binomial.minus), rules
        )
    except ScanDiverged:
        return False


def groebner_verify_by_scan(matrix, gens) -> bool:
    """groebner_verify_by_spairs without order, with every divisor found by
    scanning all rules."""
    for g in gens:
        if not kernel_member(matrix, g):
            return False
        if len(g.plus) != len(g.minus) or len(set(g.plus)) != len(g.plus):
            return False
    rules = _rules(gens)
    try:
        for (p1, m1), (p2, m2) in combinations_with_replacement(rules, 2):
            lcm = p1 | p2
            if normal_form_by_scan(lcm - p1 + m1, rules) != normal_form_by_scan(
                lcm - p2 + m2, rules
            ):
                return False
    except ScanDiverged:
        return False
    return True


def reducedness_by_scan(gens) -> dict:
    """reducedness_report by testing every term against the initial of
    every other position in gens, O(g^2)."""
    initials = [ini for ini, _ in _rules(gens)]
    violations = 0
    for i, g in enumerate(gens):
        for term in (g.plus, g.minus):
            cm = Counter(term)
            violations += sum(
                j != i and _divides(ini, cm) for j, ini in enumerate(initials)
            )
    return {"reduced": not violations, "violations": violations}


def fiber_connectivity_by_scan(matrix, gens, degree_cap: int) -> bool:
    """fiber_connectivity with every move tested, both ways, on every
    monomial of every fiber.  A move that leaves its fiber makes the verdict
    False, as in fiber_connectivity."""
    for g in gens:
        if len(g.plus) != len(g.minus) or matrix.monomial_sum(
            g.plus
        ) != matrix.monomial_sum(g.minus):
            return False
    moves = [(Counter(g.plus), Counter(g.minus)) for g in gens]
    for degree in range(1, degree_cap + 1):
        fibers = {}
        for mono in combinations_with_replacement(matrix.keys, degree):
            fibers.setdefault(matrix.monomial_sum(mono), []).append(mono)
        for monos in fibers.values():
            index = {m: i for i, m in enumerate(monos)}
            parent = list(range(len(monos)))

            def find(i):
                while parent[i] != i:
                    i = parent[i]
                return i

            for mono in monos:
                cm = Counter(mono)
                for a, b in moves:
                    for src, dst in ((a, b), (b, a)):
                        if _divides(src, cm):
                            target = tuple(sorted((cm - src + dst).elements()))
                            parent[find(index[mono])] = find(index[target])
            if len({find(i) for i in range(len(monos))}) > 1:
                return False
    return True
