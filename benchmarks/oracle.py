"""Reference computations that check cfnmc's CLI output.

Nothing here imports cfnmc.  Every value a check compares against is
computed from first principles: Newick parsing and shape enumeration,
F_n from its recurrence, E_n by counting alternating permutations, Ehrhart
counts as monotone zig-zag maps, and top-vectors from the parity rule.

A tree is a nested tuple: a leaf is its integer label, an interior node is
the pair of its children.  ``canonical`` orders the two children of every
node by their smallest leaf label, which is the order in which cfnmc
numbers interior nodes (preorder, root first, left child first).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations


class CheckError(Exception):
    """An output disagrees with the reference; the message says where."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- trees -----------------------------------------------------------------


def parse_newick(text: str):
    """Parse a binary Newick string with integer leaf labels into canonical form."""
    pos = 0

    def node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            left = node()
            require(text[pos] == ",", f"expected ',' at {pos} in {text!r}")
            pos += 1
            right = node()
            require(text[pos] == ")", f"expected ')' at {pos} in {text!r}")
            pos += 1
            return (left, right)
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        require(pos > start, f"expected a leaf label at {start} in {text!r}")
        return int(text[start:pos])

    try:
        tree = node()
    except IndexError:
        raise CheckError(f"truncated Newick string {text!r}") from None
    require(text[pos:] == ";", f"trailing text in {text!r}")
    return canonical(tree)


def min_leaf(tree) -> int:
    return tree if isinstance(tree, int) else min(min_leaf(tree[0]), min_leaf(tree[1]))


def canonical(tree):
    if isinstance(tree, int):
        return tree
    a, b = canonical(tree[0]), canonical(tree[1])
    return (a, b) if min_leaf(a) < min_leaf(b) else (b, a)


def leaves(tree) -> list:
    return [tree] if isinstance(tree, int) else leaves(tree[0]) + leaves(tree[1])


def interior_preorder(tree) -> list:
    """Interior nodes of a canonical tree, root first, left subtree first."""
    if isinstance(tree, int):
        return []
    return [tree] + interior_preorder(tree[0]) + interior_preorder(tree[1])


def shape(tree):
    """The unlabeled shape: a leaf is (), children sorted."""
    if isinstance(tree, int):
        return ()
    a, b = shape(tree[0]), shape(tree[1])
    return (a, b) if a <= b else (b, a)


@lru_cache(maxsize=None)
def shapes(n: int) -> tuple:
    """All rooted binary shapes on n leaves, sorted."""
    if n == 1:
        return ((),)
    out = set()
    for k in range(1, n // 2 + 1):
        for a in shapes(k):
            for b in shapes(n - k):
                out.add((a, b) if a <= b else (b, a))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def wedderburn_etherington(n: int) -> int:
    """Number of rooted binary shapes on n leaves, by the classical recurrence."""
    if n <= 1:
        return n
    half, odd = divmod(n, 2)
    total = sum(wedderburn_etherington(i) * wedderburn_etherington(n - i) for i in range(1, (n + 1) // 2))
    if not odd:
        w = wedderburn_etherington(half)
        total += w * (w + 1) // 2
    return total


def interior_edges(tree) -> int:
    """Edges joining two interior nodes."""
    return sum(1 for v in interior_preorder(tree) for k in v if not isinstance(k, int))


def clusters(tree) -> set:
    """Leaf sets below each interior node."""
    return {frozenset(leaves(v)) for v in interior_preorder(tree)}


# -- number sequences ----------------------------------------------------------


def fibonacci(n: int) -> int:
    """F_n with F_0 = F_1 = 1, from F_n = F_(n-1) + F_(n-2)."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def euler_zigzag(n: int) -> int:
    """E_n as the number of permutations p of 1..n with p1 < p2 > p3 < ..."""
    if n <= 1:
        return 1
    return sum(
        1
        for p in permutations(range(n))
        if all((p[i] < p[i + 1]) == (i % 2 == 0) for i in range(n - 1))
    )


def zigzag_count(d: int, m: int) -> int:
    """Maps x: {1..d} -> {0..m} with x1 <= x2 >= x3 <= ...: the lattice points
    of the m-th dilate of the zig-zag order polytope, which every d+1-leaf
    model polytope shares by topology-independence."""
    ways = [1] * (m + 1)  # ways[v]: maps of x1..xi with xi = v
    for i in range(1, d):
        up = i % 2 == 1
        nxt, acc = [0] * (m + 1), 0
        for v in range(m + 1) if up else range(m, -1, -1):
            acc += ways[v]
            nxt[v] = acc
        ways = nxt
    return sum(ways)


def h_star(d: int, counts: list) -> list:
    """h*_j = sum_i (-1)^(j-i) C(d+1, j-i) L(i) for j = 0..d."""

    def binom(n, k):
        if k < 0 or k > n:
            return 0
        out = 1
        for i in range(k):
            out = out * (n - i) // (i + 1)
        return out

    return [
        sum((-1) ** (j - i) * binom(d + 1, j - i) * counts[i] for i in range(j + 1))
        for j in range(d + 1)
    ]


# -- top-vectors and the toric matrix ------------------------------------------------


def top_vectors(tree) -> list:
    """Sorted bitstrings over the canonical interior order.  For every
    even-sized set of 1-leaves, the edge above a node is used when an odd
    number of 1-leaves sit below it, and a node is a top when both of its
    child edges are used."""
    labels = sorted(leaves(tree))
    bit = {lab: 1 << i for i, lab in enumerate(labels)}

    def mask(t):
        return bit[t] if isinstance(t, int) else mask(t[0]) | mask(t[1])

    child_masks = [(mask(v[0]), mask(v[1])) for v in interior_preorder(tree)]
    out = set()
    for ones in range(1 << len(labels)):
        if ones.bit_count() % 2:
            continue
        out.add(
            "".join(
                "1" if (ones & a).bit_count() % 2 and (ones & b).bit_count() % 2 else "0"
                for a, b in child_masks
            )
        )
    return sorted(out)


def _pair_sum(u: str, v: str) -> tuple:
    return tuple(int(a) + int(b) for a, b in zip(u, v))


def quadratic_fibers(columns) -> dict:
    """Degree-2 monomials (sorted column pairs) grouped by their column sum."""
    fibers = {}
    for pair in combinations_with_replacement(columns, 2):
        fibers.setdefault(_pair_sum(*pair), []).append(pair)
    return fibers


def dim_I2(columns) -> int:
    """Degree-2 monomials minus distinct pairwise column sums."""
    n = len(columns)
    return n * (n + 1) // 2 - len(quadratic_fibers(columns))


def check_quadratic_binomials(where: str, columns, binomials, marked: bool) -> None:
    """Each binomial is a nontrivial degree-2 kernel binomial over ``columns``
    (squarefree on its marked side when ``marked``), and together they span
    the degree-2 part of the toric ideal: inside every fiber their moves
    connect all monomials, which also gives count >= dim I_2."""
    colset = set(columns)
    fibers = quadratic_fibers(columns)
    parent = {m: m for monos in fibers.values() for m in monos}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in binomials:
        plus, minus = tuple(sorted(g["plus"])), tuple(sorted(g["minus"]))
        require(len(plus) == len(minus) == 2, f"{where}: binomial {g} is not of degree 2")
        require(set(plus + minus) <= colset, f"{where}: binomial {g} uses an unknown column")
        require(plus != minus, f"{where}: binomial {g} is zero")
        require(_pair_sum(*plus) == _pair_sum(*minus), f"{where}: binomial {g} is not in the kernel")
        if marked:
            require(g["initial"] in ("plus", "minus"), f"{where}: binomial {g} has no marked term")
            ini = plus if g["initial"] == "plus" else minus
            require(ini[0] != ini[1], f"{where}: marked term of {g} is not squarefree")
        parent[find(plus)] = find(minus)
    require(len(binomials) >= dim_I2(columns), f"{where}: {len(binomials)} generators < dim I2 = {dim_I2(columns)}")
    for monos in fibers.values():
        require(len({find(m) for m in monos}) == 1, f"{where}: binomials do not span the fiber of {monos[0]}")
