"""Lattice-point counting, Ehrhart interpolation, volume, and NNI audits.

Counts are exact Python integers: a transfer-matrix sweep over the
coordinates counts the lattice points of every dilate.  The Ehrhart
polynomial is read off the integer forward differences of the counts
(Newton's form); only its power-basis coefficients are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .paths import classify_maintaining, enumerate_topsets, is_blocked, topset_bits
from .polytope import Polytope, build_RT, facets_RTI
from .tree import NniTriple, RootedBinaryTree, TreeError, apply_nni


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


def count_lattice_points(polytope: Polytope, m: int) -> int:
    """#(Z^dim intersect m * P), counted exactly over the box [0, m]^dim.

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


def ehrhart_polynomial(polytope: Polytope) -> EhrhartPolynomial:
    """Newton's form sum D_k * C(m, k) through m = 0..dim, with D_k the k-th
    forward difference of the counts at 0 (D_dim is the normalized volume),
    verified at m = dim + 1: the counts fit degree dim iff D_(dim+1) = 0."""
    d = polytope.dim
    counts = [count_lattice_points(polytope, m) for m in range(d + 2)]
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


def normalized_volume(polytope: Polytope) -> int:
    return ehrhart_polynomial(polytope).normalized_volume


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

    ``memo`` maps (facets, m) to a count already made, and each tree's
    Newick string to its facets; a caller checking many pairs passes one
    dict so that each tree's facets are built once, and each polytope is
    built and counted once per dilate."""
    if m < 1:
        raise TreeError("dilate must be >= 1")
    memo = {} if memo is None else memo
    c1 = _memo_count(tree, m, memo)
    c2 = _memo_count(apply_nni(tree, triple), m, memo)
    return {"countT": c1, "countT2": c2, "equal": c1 == c2}


def _memo_count(tree: RootedBinaryTree, m: int, memo: dict) -> int:
    """The count of m * R_T, keyed by the facets of R_T; building R_T
    enumerates its vertices, so that happens only on a miss.  The Newick
    string fixes the facets, so they are built once per tree."""
    newick = tree.to_newick()
    if newick not in memo:
        memo[newick] = tuple(facets_RTI(tree, tree.interior_nodes))
    key = (memo[newick], m)
    if key not in memo:
        memo[key] = count_lattice_points(build_RT(tree), m)
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
