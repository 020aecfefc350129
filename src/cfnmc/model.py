"""Numeric two-state clock model: leaf distributions, the sign transform,
and vanishing of the constructed binomials on model points.

States live in Z_2 and transitions along an edge of length t have matrix
[[(1+e^{-2at})/2, (1-e^{-2at})/2], [(1-e^{-2at})/2, (1+e^{-2at})/2]].  Node
heights (root highest, leaves at 0) make the clock constraint structural.
The sign (Hadamard) transform diagonalizes the model into the monomial
parametrization whose kernel the ideal module constructs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import product

from .paths import labeling_edges, topset_key, topset_of_edges
from .tree import RootedBinaryTree, TreeError


@dataclass(frozen=True)
class ClockParams:
    """Rate alpha and a height per interior node, strictly decreasing toward
    the leaves (leaves sit at height 0), so every root-to-leaf distance is
    the same by construction."""

    alpha: float
    heights: dict

    def validate(self, tree: RootedBinaryTree) -> None:
        if self.alpha <= 0:
            raise TreeError("alpha must be positive")
        for v in tree.interior_nodes:
            h = self.heights[v]
            if h <= 0:
                raise TreeError("interior heights must be positive")
            for k in tree.children(v):
                hk = 0.0 if tree.is_leaf(k) else self.heights[k]
                if h - hk <= 0:
                    raise TreeError("branch lengths must be positive")

    def branch_length(self, tree: RootedBinaryTree, child: int) -> float:
        h_parent = self.heights[tree.parent(child)]
        h_child = 0.0 if tree.is_leaf(child) else self.heights[child]
        return h_parent - h_child


def sample_clock_params(tree: RootedBinaryTree, rng: random.Random) -> ClockParams:
    """Root height uniform in [0.5, 2]; each lower node uniform below its
    parent (clamped away from degenerate branches); alpha = 1."""
    heights = {}
    for v in tree.interior_nodes:  # preorder: parents first
        p = tree.parent(v)
        if p is None:
            heights[v] = rng.uniform(0.5, 2.0)
        else:
            heights[v] = heights[p] * rng.uniform(0.05, 0.95)
    return ClockParams(1.0, heights)


@dataclass(frozen=True)
class LeafDistribution:
    probs: dict  # leaf labeling tuple -> probability


@dataclass(frozen=True)
class FourierPoint:
    qhat: dict  # even labeling tuple -> value
    rcoords: dict  # top-vector bitstring -> value


def _transitions(tree: RootedBinaryTree, params: ClockParams) -> dict:
    """(P(same state), P(other state)) along the edge above each non-root
    node."""
    params.validate(tree)
    trans = {}
    for v in tree.nodes():
        if v == tree.root:
            continue
        t = params.branch_length(tree, v)
        same = (1.0 + math.exp(-2.0 * params.alpha * t)) / 2.0
        trans[v] = (same, 1.0 - same)
    return trans


def leaf_distribution(tree: RootedBinaryTree, params: ClockParams) -> LeafDistribution:
    """Exact marginal over hidden interior states with a uniform root.

    Computed by Felsenstein's pruning in tabulated form: one bottom-up pass
    in which each node carries, for every assignment of the leaves below it,
    (P(leaves below | 0), P(leaves below | 1)).  An assignment is a bitmask
    with leaf i at bit n-1-i, so a root mask is the index of its labeling in
    _all_labelings order, and the probabilities are read off the root's
    table in that order.
    """
    trans = _transitions(tree, params)
    n = tree.n_leaves
    below = {
        leaf: {0: (1.0, 0.0), 1 << (n - 1 - i): (0.0, 1.0)}
        for i, leaf in enumerate(tree.leaves)
    }
    for v in reversed(tree.interior_nodes):  # children before parents
        table = {0: (1.0, 1.0)}
        for k in tree.children(v):
            same, diff = trans[k]
            up = [
                (mk, same * p0 + diff * p1, diff * p0 + same * p1)
                for mk, (p0, p1) in below.pop(k).items()
            ]
            table = {
                m | mk: (b0 * u0, b1 * u1)
                for m, (b0, b1) in table.items()
                for mk, u0, u1 in up
            }
        below[v] = table
    root = below[tree.root]
    values = [0.5 * (b0 + b1) for b0, b1 in (root[m] for m in range(1 << n))]
    return LeafDistribution(dict(zip(_all_labelings(n), values)))


@cache
def _all_labelings(n: int) -> tuple:
    return tuple(product((0, 1), repeat=n))


def fourier_transform(
    tree: RootedBinaryTree, dist: LeafDistribution, tol: float = 1e-9
) -> FourierPoint:
    """Sign transform q(g) = sum_j (-1)^(g.j) p(j); odd-sum entries must
    vanish and labelings sharing a top-set must agree, within tol, before
    collapsing onto the class coordinates."""
    labelings = _all_labelings(tree.n_leaves)
    qhat = _sign_transform([dist.probs[lab] for lab in labelings])
    rcoords = _class_coordinates(qhat, _class_table(tree), tol)
    return FourierPoint(dict(zip(labelings, qhat)), rcoords)


def _sign_transform(values: list) -> list:
    """The sign (Walsh-Hadamard) transform of a list in mask order, in
    constant geometry: each of the n stages adds and subtracts neighbouring
    pairs and writes the sums before the differences.  A stage works on the
    lowest bit of the index and moves it to the top, so after n stages the
    result is in mask order, and each entry sees the same float operations
    on the same operands as in the in-place butterflies."""
    for _ in range(len(values).bit_length() - 1):
        evens, odds = values[0::2], values[1::2]
        values = [a + b for a, b in zip(evens, odds)] + [
            a - b for a, b in zip(evens, odds)
        ]
    return values


def _class_table(tree: RootedBinaryTree) -> tuple:
    """(odd, even) for a tree: the mask-order indices of the odd labelings,
    and (index, top-set key of its path system) for each even labeling."""
    labelings = _all_labelings(tree.n_leaves)
    odd = [i for i, lab in enumerate(labelings) if sum(lab) % 2]
    even = [
        (i, topset_key(tree, topset_of_edges(tree, labeling_edges(tree, lab))))
        for i, lab in enumerate(labelings)
        if not sum(lab) % 2
    ]
    return odd, even


def _class_coordinates(qhat: list, table: tuple, tol: float) -> dict:
    """The class coordinates of a transformed point in mask order, after
    checking that its odd entries vanish and each class agrees within tol."""
    odd, even = table
    for i in odd:
        if abs(qhat[i]) > tol:
            lab = _all_labelings(len(qhat).bit_length() - 1)[i]
            raise TreeError(f"odd-parity transform entry {lab} = {qhat[i]} exceeds tol")
    rcoords = {}
    for i, key in even:
        val = qhat[i]
        if key in rcoords and abs(rcoords[key] - val) > tol:
            raise TreeError(
                f"labelings with equal top-set disagree: {key}: "
                f"{rcoords[key]} vs {val}"
            )
        rcoords.setdefault(key, val)
    return rcoords


def invariant_check(
    tree: RootedBinaryTree,
    gens,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Evaluate each binomial on the class coordinates of random clock
    parameter draws; all residuals must stay below tol."""
    rng = random.Random(seed)
    table = _class_table(tree)  # depends on the tree only
    per_binomial = [0.0] * len(gens)
    for _ in range(samples):
        params = sample_clock_params(tree, rng)
        # leaf_distribution fills its dict in mask order
        qhat = _sign_transform(list(leaf_distribution(tree, params).probs.values()))
        point = _class_coordinates(qhat, table, tol)
        for i, g in enumerate(gens):
            plus = 1.0
            for k in g.plus:
                plus *= point[k]
            minus = 1.0
            for k in g.minus:
                minus *= point[k]
            per_binomial[i] = max(per_binomial[i], abs(plus - minus))
    report = {
        "samples": samples,
        "seed": seed,
        "tol": tol,
        "binomials": [
            {
                "plus": list(g.plus),
                "minus": list(g.minus),
                "max_residual": per_binomial[i],
                "pass": per_binomial[i] <= tol,
            }
            for i, g in enumerate(gens)
        ],
        "max_residual": max(per_binomial, default=0.0),
    }
    report["pass"] = all(b["pass"] for b in report["binomials"])
    return report
