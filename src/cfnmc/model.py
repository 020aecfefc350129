"""Numeric two-state clock model: leaf distributions, the sign transform,
and vanishing of the constructed binomials on model points.

States live in Z_2 and transitions along an edge of length t have matrix
[[(1+e^{-2at})/2, (1-e^{-2at})/2], [(1-e^{-2at})/2, (1+e^{-2at})/2]].  Node
heights (root highest, leaves at 0) make the clock constraint structural.
The sign (Hadamard) transform diagonalizes the model into the monomial
parametrization whose kernel the ideal module constructs.  Its entries
collapse onto one class coordinate per top-set, taken for each even
labeling from ``paths.path_systems``; the model has no path rule of its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import add, sub

from .paths import path_systems, topset_key
from .tree import RootedBinaryTree, TreeError


class TransformError(TreeError):
    """A transformed point breaks an identity of the model: an odd-parity
    entry does not vanish, or two labelings with one top-set disagree.
    ``detail`` names the labeling or the class and the values found."""

    def __init__(self, message: str, detail: dict):
        super().__init__(message)
        self.detail = detail


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
    in which each node carries a list of (mask, P(leaves below | 0),
    P(leaves below | 1)), one entry per assignment of the leaves below it.
    An assignment is the mask of its 1-labeled leaves in the tree's
    LeafMasks (leaf i at bit n-1-i), so a root mask is the index of its
    labeling in _all_labelings order, where its probability is stored.
    """
    trans = _transitions(tree, params)
    below = tree.leaf_masks().below
    tables = {}

    def up(k):
        # The entries of k's table carried up its edge.  A leaf's table is
        # (1, 0) at mask 0 and (0, 1) at its own bit, where same * 1 + diff * 0
        # is exactly same.
        same, diff = trans[k]
        if tree.is_leaf(k):
            return [(0, same, diff), (below[k], diff, same)]
        return [
            (m, same * p0 + diff * p1, diff * p0 + same * p1)
            for m, p0, p1 in tables.pop(k)
        ]

    for v in reversed(tree.interior_nodes[1:]):  # children before parents
        a, b = tree.children(v)
        right = up(b)
        tables[v] = [
            (ma | mb, a0 * b0, a1 * b1)
            for ma, a0, a1 in up(a)
            for mb, b0, b1 in right
        ]
    # The root's entries go straight to their labelings, averaged over the
    # uniform root state.
    n = tree.n_leaves
    values = [0.0] * (1 << n)
    a, b = tree.children(tree.root)
    right = up(b)
    for ma, a0, a1 in up(a):
        for mb, b0, b1 in right:
            values[ma | mb] = 0.5 * (a0 * b0 + a1 * b1)
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
        values = list(map(add, evens, odds))
        values += map(sub, evens, odds)
    return values


def _class_table(tree: RootedBinaryTree) -> tuple:
    """(odd, even) for a tree: the odd leaf masks, and (mask, top-set key of
    its path system) for each even one, all in mask order, which is the
    order of the labelings in _all_labelings."""
    systems = path_systems(tree)
    keys = {tops: topset_key(tree, tops) for tops in {t for _, _, t in systems}}
    odd = [mask for mask in range(1 << tree.n_leaves) if mask.bit_count() & 1]
    return odd, [(mask, keys[tops]) for mask, _, tops in systems]


def _class_coordinates(qhat: list, table: tuple, tol: float) -> dict:
    """The class coordinates of a transformed point in mask order, after
    checking that its odd entries vanish and each class agrees within tol."""
    odd, even = table
    for i in odd:
        if abs(qhat[i]) > tol:
            lab = _all_labelings(len(qhat).bit_length() - 1)[i]
            raise TransformError(
                f"odd-parity transform entry {lab} = {qhat[i]} exceeds tol",
                {"labeling": list(lab), "value": qhat[i]},
            )
    rcoords = {}
    for i, key in even:
        val = qhat[i]
        if key in rcoords and abs(rcoords[key] - val) > tol:
            raise TransformError(
                f"labelings with equal top-set disagree: {key}: "
                f"{rcoords[key]} vs {val}",
                {"class": key, "values": [rcoords[key], val]},
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
    terms = [(g.plus, g.minus) for g in gens]
    per_binomial = [0.0] * len(gens)
    for _ in range(samples):
        params = sample_clock_params(tree, rng)
        qhat = _sign_transform(list(leaf_distribution(tree, params).probs.values()))
        point = _class_coordinates(qhat, table, tol)
        for i, (plus_keys, minus_keys) in enumerate(terms):
            plus = 1.0
            for k in plus_keys:
                plus *= point[k]
            minus = 1.0
            for k in minus_keys:
                minus *= point[k]
            residual = abs(plus - minus)
            if residual > per_binomial[i]:
                per_binomial[i] = residual
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
