"""Shared test fixtures: reference trees and small independent oracles."""

from collections import Counter
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, product

from hypothesis import strategies as st

from cfnmc.ideal import _REDUCTION_CAP, kernel_member
from cfnmc.tree import RootedBinaryTree, TreeError, parse_newick

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


def fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def count_by_box(polytope, m: int) -> int:
    """Brute-force #(Z^dim intersect m*P): every point of the box [0, m]^dim
    tested against the facets of m*P."""
    dilate = replace(
        polytope, facets=tuple(replace(f, rhs=f.rhs * m) for f in polytope.facets)
    )
    return sum(
        dilate.contains(x) for x in product(range(m + 1), repeat=polytope.dim)
    )


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
                if steps > _REDUCTION_CAP:
                    raise ScanDiverged()
                changed = True
                break
    return tuple(sorted(mono.elements()))


def _rules(gens) -> list:
    out = []
    for g in gens:
        ini, tail = (g.plus, g.minus) if g.initial == "plus" else (g.minus, g.plus)
        out.append((Counter(ini), Counter(tail)))
    return out


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
    """groebner_verify with every divisor found by scanning all rules."""
    for g in gens:
        if g.initial not in ("plus", "minus"):
            raise TreeError("generator without a marked initial term")
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
    """reducedness_report by testing every term against every other
    generator's initial, O(g^2)."""
    initials = [(g, ini) for g, (ini, _) in zip(gens, _rules(gens))]
    violations = 0
    for g in gens:
        for term in (g.plus, g.minus):
            cm = Counter(term)
            violations += sum(
                other is not g and _divides(ini, cm) for other, ini in initials
            )
    return {"reduced": not violations, "violations": violations}


def fiber_connectivity_by_scan(matrix, gens, degree_cap: int) -> bool:
    """fiber_connectivity with every move tested, both ways, on every
    monomial of every fiber."""
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
