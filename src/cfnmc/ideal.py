"""The toric ideal of the clocked two-state model: matrix, generators, checks.

Columns of the defining matrix are the valid top-vectors (plus a homogenizing
row of ones).  The quadratic generating set is built recursively:

* a tree with an interior node adjacent to exactly two interior nodes splits
  into two smaller trees sharing that node; the ideal is the fiber product of
  the two smaller ideals, generated by lifts of the two generating sets plus
  the 2x2 minors of the compatibility matrices ("Quad");
* a cluster tree has no such node; deleting the root leaves a tree that does
  split at its root, and the generators are re-rooted lifts ("Root") plus the
  root swaps ("Swap"), with admissibility governed by root-leaf
  traversability.

Each tree also carries a term order, realized as one big-integer weight per
column assembled from positional stacking of the recursion's weight rows
(block tag, pulled-back subtree weights, minor tie-breaks), with a final
lexicographic tie-break on sorted column keys.  Gröbner correctness is then
certified, not trusted from the construction, by counting the facets of the
complex of the marked initials; marked S-pair reduction stays in the tests as
the oracle for that certificate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb
from operator import attrgetter

from .paths import enumerate_topsets, topset_key, traversability
from .tree import RootedBinaryTree, TreeError, _split_at, _subtree, _tfp_node, is_cluster_tree


@dataclass(frozen=True)
class ToricMatrix:
    """Homogenizing row of ones plus one 0/1 row per interior node; columns
    indexed by top-vector bitstrings in lexicographic order."""

    keys: tuple
    rows: tuple

    @property
    def n_cols(self) -> int:
        return len(self.keys)

    @cached_property
    def _columns(self) -> dict:
        return dict(zip(self.keys, zip(*self.rows)))

    def monomial_sum(self, keys) -> tuple:
        cols = [self._columns[k] for k in keys]
        return tuple(map(sum, zip(*cols))) if cols else (0,) * len(self.rows)


@dataclass(frozen=True, slots=True)
class MarkedBinomial:
    """plus - minus with plus the marked initial term; terms are sorted
    tuples of column keys."""

    plus: tuple
    minus: tuple
    provenance: str

    def initial_squarefree(self) -> bool:
        return len(set(self.plus)) == len(self.plus)

    def to_json_dict(self) -> dict:
        return {
            "plus": list(self.plus),
            "minus": list(self.minus),
            "initial": "plus",
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class LiftableOrder:
    """Column weights realizing the constructed term order, plus the block
    tag of each column (augmentable for cluster trees, traversable
    otherwise).  Higher weight = bigger in the order; remaining ties break
    lexicographically on sorted key tuples.  Between two monomials of one
    degree, such as the sides of a quadric, the marking is thus decided by
    the weight sum and then the sorted key tuple.

    compare is a term order on monomials for any weights: it ranks by
    degree first, so every monomial has finitely many below it, and each of
    its three steps survives multiplying both sides by one monomial.  Degree
    and weight are additive, and on sorted key tuples of equal length the
    first differing position falls on the least key whose multiplicities
    differ, which a common factor leaves in place."""

    weight: dict
    block_tag: dict
    block_kind: str

    def compare(self, mono1, mono2) -> int:
        """-1, 0, +1 with monomials as iterables of column keys."""
        m1, m2 = sorted(mono1), sorted(mono2)
        k1 = (len(m1), sum(self.weight[k] for k in m1), m1)
        k2 = (len(m2), sum(self.weight[k] for k in m2), m2)
        return (k1 > k2) - (k1 < k2)


def build_matrix(tree: RootedBinaryTree) -> ToricMatrix:
    keys = sorted(topset_key(tree, s) for s in enumerate_topsets(tree))
    d = tree.n_leaves - 1
    rows = [tuple(1 for _ in keys)]
    for i in range(d):
        rows.append(tuple(int(k[i]) for k in keys))
    return ToricMatrix(tuple(keys), tuple(rows))


def kernel_member(matrix: ToricMatrix, binomial: MarkedBinomial) -> bool:
    for k in tuple(binomial.plus) + tuple(binomial.minus):
        if k not in matrix._columns:
            raise TreeError(f"unknown column key {k!r}")
    return matrix.monomial_sum(binomial.plus) == matrix.monomial_sum(binomial.minus)


# -- recursive construction ------------------------------------------------------


_DEGREE_CAP = 8  # monomial degree bound the stacked weights stay faithful for


def _build(tree: RootedBinaryTree, liftable: bool):
    """(top-sets, raw generators, weights) of tree in one walk of the
    decomposition, so each subtree is built and enumerated once.

    Raw generators are ((plus1, plus2), (minus1, minus2), provenance) with
    terms as top-set masks over this tree's node ids.  The weights realize
    the term order: weight rows stacked positionally by _collapse.  liftable
    marks the inner tree of a cluster tree, whose order ranks the
    traversability blocks first and root-augmentable minors first.

    No raw generator is trivial or repeats another up to sign and the order
    of its factors, and no term is a square, so nothing is deduplicated.
    By induction on the recursion.  At a split node, the two sides of a
    lift differ when restricted to the half whose generator it lifts and
    agree on the other half, and the two sides of a minor agree on both;
    so the three families are disjoint, and within one the restrictions
    give back the lifted generator (or the minor's two pairs), after which
    squarefree terms give back the lifting pair.  At a cluster, stripping
    the root bit sends a Root lift to its inner generator and a Swap to a
    trivial binomial, and squarefree terms make the root marks of a Root
    lift readable from its two sides.
    """
    classes = enumerate_topsets(tree)
    if tree.n_leaves <= 3:
        return classes, [], {c: 0 for c in classes}
    v = _tfp_node(tree)
    out = []
    if v is None:
        # cluster tree: the root has one leaf child and one interior child
        # (two interior children would make it a split node).  Delete the
        # root and re-root the inner lifts; ties on the stripped image break
        # on the root-marked factors, again in the inner order.
        rho = 1 << tree.root
        inner = _subtree(tree, max(tree.children(tree.root), key=tree.is_interior))
        inner_classes, inner_gens, w_inner = _build(inner, True)
        trav = {
            c: traversability(inner, c)["root_leaf_traversable"] for c in inner_classes
        }
        for (p1, p2), (q1, q2), _prov in inner_gens:
            for i1 in (0, 1) if trav[p1] else (0,):
                for i2 in (0, 1) if trav[p2] else (0,):
                    for j1 in (0, 1) if trav[q1] else (0,):
                        j2 = i1 + i2 - j1
                        if j2 not in (0, 1) or (j2 == 1 and not trav[q2]):
                            continue
                        plus = (p1 | rho if i1 else p1, p2 | rho if i2 else p2)
                        minus = (q1 | rho if j1 else q1, q2 | rho if j2 else q2)
                        out.append((plus, minus, "Root"))
        travs = [c for c in inner_classes if trav[c]]
        for a, b in combinations(travs, 2):
            out.append(((a | rho, b), (a, b | rho), "Swap"))
        inner_mask = inner.leaf_masks().interior
        rows = [
            {c: w_inner[c & inner_mask] for c in classes},
            {c: 1 if c & rho else 0 for c in classes},
            {c: w_inner[c & inner_mask] if c & rho else 0 for c in classes},
        ]
        return classes, out, _collapse(rows, classes)

    # split node: the fiber product of the two halves sharing v.
    t1, t2 = _split_at(tree, v)
    c1, g1, w1 = _build(t1, False)
    c2, g2, w2 = _build(t2, False)
    bit = 1 << v
    out += _lift(g1, c2, bit) + _lift(g2, c1, bit)
    for k in (0, bit):
        block1 = [c for c in c1 if c & bit == k]
        block2 = [c for c in c2 if c & bit == k]
        prov = "Quad1" if k else "Quad0"
        for r1, r2 in combinations(block1, 2):
            for s1, s2 in combinations(block2, 2):
                out.append(((r1 | s1, r2 | s2), (r1 | s2, r2 | s1), prov))
    int1, int2 = t1.leaf_masks().interior, t2.leaf_masks().interior
    rank1, rank2 = _ranks(t1, c1, v, liftable), _ranks(t2, c2, v, liftable)
    rows = [
        {c: w1[c & int1] + w2[c & int2] for c in classes},
        # diagonal tie-break for the 2x2 minors: rank(row) * rank(col)
        {c: rank1[c & int1] * rank2[c & int2] for c in classes},
    ]
    if liftable:
        # block order first: non-traversable columns beat traversable ones.
        tag = {
            c: 0 if traversability(tree, c)["root_leaf_traversable"] else 1
            for c in classes
        }
        rows.insert(0, tag)
    return classes, out, _collapse(rows, classes)


def _lift(gens, other_classes, bit) -> list:
    """Lifts of one half's generators by pairs of the other half's top-sets
    that agree with them on the shared node."""
    block = {k: [c for c in other_classes if c & bit == k] for k in (0, bit)}
    lifted = []
    for (p1, p2), (q1, q2), _prov in gens:
        if (p1 ^ q1) & bit:
            q1, q2 = q2, q1
        rs2 = block[p2 & bit]
        lifted += [
            ((p1 | r1, p2 | r2), (q1 | r1, q2 | r2), "Lift")
            for r1 in block[p1 & bit]
            for r2 in rs2
        ]
    return lifted


def _ranks(half, half_classes, v, liftable) -> dict:
    """Rank of each top-set of a half inside its block of the shared node v.
    In the liftable (bicluster) case root-augmentable top-sets rank first,
    realizing the 2^(i+j) style choice of leading minors."""

    def key(c):
        bits = topset_key(half, c)
        if liftable:
            return (0 if traversability(half, c)["root_augmentable"] else 1, bits)
        return bits

    table = {}
    for coord in (0, 1):
        block = sorted((c for c in half_classes if c >> v & 1 == coord), key=key)
        for i, c in enumerate(block, start=1):
            table[c] = i
    return table


def _collapse(rows, classes):
    w = {c: 0 for c in classes}
    for row in rows:
        top = max(row.values(), default=0)
        base = _DEGREE_CAP * top + 1
        for c in classes:
            w[c] = w[c] * base + row[c]
    return w


# -- public construction -----------------------------------------------------------


def construct_generators(tree: RootedBinaryTree):
    """The recursive quadratic generating set with order-derived markings.

    Returns (generators, order).  Every generator is a kernel member of
    degree 2; the markings come from the constructed liftable order and are
    certified separately by groebner_verify.  A quadric's marked side is
    the one with the larger weight sum, ties broken by the larger sorted
    key pair: for two monomials of degree 2 this is the order
    LiftableOrder.compare defines, decided here on the masks' weights
    without a call per generator.
    """
    if tree.n_leaves < 2:
        raise TreeError("need n >= 2")
    classes, raw, weights = _build(tree, False)
    key_of = {c: topset_key(tree, c) for c in classes}
    kind, prop = (
        ("augmentable", "root_augmentable")
        if is_cluster_tree(tree)
        else ("traversable", "root_leaf_traversable")
    )
    tag = {
        key_of[c]: kind if traversability(tree, c)[prop] else "non_" + kind
        for c in classes
    }
    order = LiftableOrder({key_of[c]: weights[c] for c in classes}, tag, kind)

    gens = []
    for (p1, p2), (q1, q2), prov in raw:
        a, b, c, d = key_of[p1], key_of[p2], key_of[q1], key_of[q2]
        plus = (weights[p1] + weights[p2], (a, b) if a <= b else (b, a))
        minus = (weights[q1] + weights[q2], (c, d) if c <= d else (d, c))
        if plus < minus:
            plus, minus = minus, plus
        gens.append(MarkedBinomial(plus[1], minus[1], prov))
    gens.sort(key=attrgetter("plus", "minus"))
    return gens, order


# -- Gröbner certification ----------------------------------------------------------


def groebner_verify(matrix: ToricMatrix, gens, order: LiftableOrder, volume: int) -> bool:
    """Whether gens, as marked, are a Gröbner basis of the toric ideal I_A of
    matrix, given the normalized volume of the polytope of its columns.

    Kernel quadrics with squarefree initials, each the leading term under
    order, put the ideal M of the initials inside in(I_A); M = in(I_A)
    exactly when the clique complex of the column pairs that are not
    initials has volume facets, all of len(matrix.rows) columns, and the
    first has determinant +-1, as then all or none do (Sturmfels, Gröbner
    Bases and Convex Polytopes, ch. 8).  So the facets are counted, and only
    the first is kept."""
    if not all(
        kernel_member(matrix, g) and len(g.plus) == len(g.minus) == 2 and g.initial_squarefree()
        for g in gens
    ) or not marking_consistent_with_weights(gens, order):
        return False
    index = dict(zip(matrix.keys, range(matrix.n_cols)))
    adj = [((1 << matrix.n_cols) - 1) ^ (1 << i) for i in range(matrix.n_cols)]
    for a, b in (g.plus for g in gens):
        adj[index[a]] &= ~(1 << index[b])
        adj[index[b]] &= ~(1 << index[a])
    facets = 0
    for clique in _maximal_cliques(adj):
        if clique.bit_count() != len(matrix.rows):
            return False
        if not facets:
            first = clique
        facets += 1
    det = _determinant([[x for i, x in enumerate(r) if first >> i & 1] for r in matrix.rows])
    return facets == volume and abs(det) == 1


def _maximal_cliques(adj):
    """Bitsets of the maximal cliques of the graph where vertex i has the
    neighbours adj[i]: Bron-Kerbosch, branching only on the candidates that
    are not neighbours of a pivot with the most neighbours among them."""
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        clique, cand, done = stack.pop()
        if not cand | done:
            yield clique
        rest, pivot, most = cand | done, 0, -1
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if (cand & adj[u]).bit_count() > most:
                pivot, most = u, (cand & adj[u]).bit_count()
        branch = cand & ~adj[pivot]
        while branch:
            v = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            stack.append((clique | 1 << v, cand & adj[v], done & adj[v]))
            cand ^= 1 << v
            done |= 1 << v


def _determinant(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination, whose
    divisions are all exact."""
    a, sign, prev = [list(r) for r in rows], 1, 1
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        a[k], a[p], sign = a[p], a[k], sign if p == k else -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * prev


def _marked_rules(gens) -> list:
    """(initial, tail) of every generator as sorted key tuples."""
    return [(tuple(sorted(g.plus)), tuple(sorted(g.minus))) for g in gens]


def reducedness_report(gens) -> dict:
    """Whether the marked basis is reduced: no term of any generator may be
    divisible by another generator's initial term.  Reported, not asserted;
    the construction makes no reducedness claim.  ``violations`` counts the
    (term, other position in gens) pairs at fault.

    Every term must be a quadric (``TreeError`` otherwise), so an initial
    divides a term only when the two are equal: the initials are counted
    once by monomial, and a generator's own initial is left out of the
    counts for its terms."""
    rules = _marked_rules(gens)
    if any(len(term) != 2 for rule in rules for term in rule):
        raise TreeError("reducedness is checked on quadrics only")
    count = Counter(ini for ini, _ in rules)
    violations = sum(count[ini] - 1 + count[tail] - (tail == ini) for ini, tail in rules)
    return {"reduced": not violations, "violations": violations}


def marking_consistent_with_weights(gens, order: LiftableOrder) -> bool:
    """Each marked initial must strictly dominate its tail in the exported
    order, its lexicographic tie-break included, so that it is the leading
    term of a nonzero binomial.  A key the order does not weigh fails."""
    weighed = order.weight.keys()
    return all(
        weighed >= {*ini, *tail} and order.compare(ini, tail) > 0
        for ini, tail in _marked_rules(gens)
    )


def fiber_connectivity(matrix: ToricMatrix, gens, degree_cap: int) -> bool:
    """Markov-style check: inside every fiber of total degree <= cap, the
    moves given by the generators connect all monomials.

    Monomials and fiber keys are packed ints.  Column j is the exponent
    vector 1 << width*j, and its matrix column packs row r into field r, so
    multiplying by x_j is one addition and a fiber key is a sum.  The rows
    are 0/1 and no degree reaches 2**width, so no field carries.

    Each degree's components are lifted from the degree below.  An edge of
    degree d above a move's degree is that move times a cofactor; peeling
    one variable x_j off the cofactor makes it an edge of degree d - 1 times
    x_j.  So the components at degree d are the unions of the moves of
    degree exactly d and of (low + x_j, root(low) + x_j), for every monomial
    low of degree d - 1 that is not its component's root and every column j.

    Every move is first checked to be a kernel member; one that leaves its
    fiber makes the verdict False.  After that no union crosses fibers, so
    the fibers of a degree are all connected exactly when the roots number
    as many as the distinct fiber keys."""
    if degree_cap < 1:
        raise TreeError("degree cap must be >= 1")
    n = matrix.n_cols
    # C(93, 4) monomials of degree <= 4 in 89 columns: 10 leaves at cap 4
    if (degree_cap > 4 and n > 25) or comb(n + degree_cap, degree_cap) > 2_919_735:
        raise TreeError("degree cap too large for exhaustive fiber walks")
    if any(x not in (0, 1) for row in matrix.rows for x in row):
        raise TreeError("fiber walks need a 0/1 matrix")
    reach = max([degree_cap, *(len(t) for g in gens for t in (g.plus, g.minus))])
    width = reach.bit_length()
    var = [1 << width * j for j in range(n)]
    col = [sum(x << width * r for r, x in enumerate(c)) for c in zip(*matrix.rows)]
    index = dict(zip(matrix.keys, range(n)))

    def pack(term):
        """(monomial, fiber key) of a term of column keys."""
        mono = key = 0
        for k in term:
            if k not in index:
                raise TreeError(f"unknown column key {k!r}")
            mono += var[index[k]]
            key += col[index[k]]
        return mono, key

    moves, in_kernel = {}, True
    for g in gens:
        (a, key_a), (b, key_b) = pack(g.plus), pack(g.minus)
        in_kernel = in_kernel and len(g.plus) == len(g.minus) and key_a == key_b
        moves.setdefault(len(g.plus), []).append((a, b))
    if not in_kernel:
        return False

    def union(x, y):
        # links the larger root under the smaller, so parent[i] <= i always
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        else:
            parent[x] = y

    # Degree 0 is the monomial 1.  tops[i] is the largest column of monos[i];
    # extending by the columns from it on makes each monomial once.
    monos, keys, tops, roots = [0], [0], [0], [0]
    for degree in range(1, degree_cap + 1):
        up, up_keys, up_tops = [], [], []
        for mono, key, top in zip(monos, keys, tops):
            up += [mono + v for v in var[top:]]
            up_keys += [key + c for c in col[top:]]
            up_tops += range(top, n)
        position = dict(zip(up, range(len(up))))
        parent = list(range(len(up)))
        for a, b in moves.get(degree, ()):
            union(position[a], position[b])
        for low, root in enumerate(roots):
            if low != root:
                for v in var:
                    union(position[monos[low] + v], position[monos[root] + v])
        # parent[i] <= i, so one ascending pass leaves each entry at its root
        for i, p in enumerate(parent):
            parent[i] = parent[p]
        if sum(i == p for i, p in enumerate(parent)) != len(set(up_keys)):
            return False
        monos, keys, tops, roots = up, up_keys, up_tops, parent
    return True
