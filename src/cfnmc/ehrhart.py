"""Lattice-point counting, Ehrhart interpolation, volume, and NNI audits.

Counts are exact Python integers: a transfer-matrix sweep over the
coordinates counts the lattice points of every dilate, and interpolation
runs in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
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
    """Exact interpolation through m = 0..dim, verified at m = dim + 1."""
    d = polytope.dim
    counts = [count_lattice_points(polytope, m) for m in range(d + 2)]
    coeffs = _lagrange(list(range(d + 1)), counts[: d + 1])
    poly = EhrhartPolynomial(tuple(coeffs), tuple(counts))
    if poly(d + 1) != counts[d + 1]:
        raise ValueError(
            "interpolation failed its out-of-sample check; counting bug"
        )
    return poly


def _lagrange(xs, ys):
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

    ``memo`` maps (facets, m) to a count already made; a caller checking
    many pairs passes one dict so that each polytope is built and counted
    once per dilate."""
    if m < 1:
        raise TreeError("dilate must be >= 1")
    memo = {} if memo is None else memo
    c1 = _memo_count(tree, m, memo)
    c2 = _memo_count(apply_nni(tree, triple), m, memo)
    return {"countT": c1, "countT2": c2, "equal": c1 == c2}


def _memo_count(tree: RootedBinaryTree, m: int, memo: dict) -> int:
    """The count of m * R_T, keyed by the facets of R_T; building R_T
    enumerates its vertices, so that happens only on a miss."""
    key = (tuple(facets_RTI(tree, tree.interior_nodes)), m)
    if key not in memo:
        memo[key] = count_lattice_points(build_RT(tree), m)
    return memo[key]


def _is_df_compressed(triple, topsets, maintaining, blocked) -> bool:
    """A representation is d-compressed when either every summand avoiding
    b and c has d blocked, or every summand marking b is maintaining;
    f-compressed is the mirror image with c and f.  Minimal representations
    are always both.  ``maintaining`` maps each top-set of the tree to its
    classification under the move, and ``blocked`` maps it to whether d
    and whether f is blocked (_blocked)."""
    b, c = 1 << triple.b, 1 << triple.c
    plain = [s for s in topsets if not s & (b | c)]
    d_ok = all(blocked[s][0] for s in plain) or all(
        maintaining[s] for s in topsets if s & b
    )
    f_ok = all(blocked[s][1] for s in plain) or all(
        maintaining[s] for s in topsets if s & c
    )
    return d_ok and f_ok


def _blocked(tree, triple, topsets) -> dict:
    """(d blocked, f blocked) for each top-set, with d the sibling of e and f
    the sibling of c."""
    d = tree.sibling(triple.e)
    f = tree.sibling(triple.c)
    return {s: (is_blocked(tree, s, d), is_blocked(tree, s, f)) for s in topsets}


def df_compression_audit(
    tree: RootedBinaryTree, triple: NniTriple, m: int, memo: dict | None = None
) -> dict:
    """For every lattice point of m*R_T, enumerate all representations as
    sums of m vertices, pick one minimizing the number of nonmaintaining
    summands, and check it is df-compressed.  Exponential; meant for m <= 3.

    ``memo`` holds the top-sets of (tree, triple) with their vectors and
    classifications under the move; a caller auditing several dilates of
    one move passes one dict, so that each top-set is classified once.
    """
    if m > 3:
        raise TreeError("audit is exhaustive; use m <= 3")
    key = (tree.to_newick(), tuple(tree.interior_nodes), triple)
    memo = {} if memo is None else memo
    if key not in memo:
        topsets = enumerate_topsets(tree)
        memo[key] = (
            topsets,
            {s: topset_bits(tree, s) for s in topsets},
            {s: classify_maintaining(tree, triple, s)[0] for s in topsets},
            _blocked(tree, triple, topsets),
        )
    topsets, vec, maintaining, blocked = memo[key]

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
