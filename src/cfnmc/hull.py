"""Exact convex hull of integer points (the facet oracle).

Translates the centroid to the origin, homogenizes, and runs the double
description method on the polar cone.  Its extreme rays are the facets, and
the points each ray is tight on are that facet's vertex set, which
determines it.  The directions normal to the affine hull are the lineality
space left at the end, so its dimension is the codimension (Fukuda and
Prodon, "Double description method revisited", 1996): no chart is needed.
Integers throughout, with Fractions only in the extremality filter's ``rref``.

The oracle for the closed-form facets: ``polytope.h_reps_match`` runs it
for ``survey`` and ``--verify-hull``.  The facet rows of full-dimensional
input and the pivot-chart projection, which only the tests use, are
``hull_facets`` and ``facet_vertex_sets_by_chart`` in ``tests/helpers.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(vec)
    return tuple(x // g for x in vec)


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot_cols)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _adjacent(z1, z2, rays):
    common = z1 & z2
    return not any(common <= z3 for r, z3 in rays if z3 is not z1 and z3 is not z2)


def dd_cone_rays(constraints, dim):
    """Extreme rays of {x : c . x <= 0 for all c} modulo its lineality
    space, as (ray, frozenset of the constraints it is tight on) pairs, and
    the dimension of that lineality space.  Double description with
    lineality tracking; integer arithmetic."""
    lineality = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # (vector, frozen tight-set of constraint indices)

    for idx, c in enumerate(constraints):
        hit = next((l for l in lineality if _dot(c, l) != 0), None)
        if hit is not None:
            l0 = hit if _dot(c, hit) < 0 else tuple(-x for x in hit)
            lam = _dot(c, l0)  # < 0
            lineality = [
                _primitive([lam * a - _dot(c, l) * b for a, b in zip(l, l0)])
                for l in lineality
                if l is not hit
            ]
            rays = [
                (_primitive([-lam * a + _dot(c, r) * b for a, b in zip(r, l0)]), z | {idx})
                for r, z in rays
            ]
            rays.append((_primitive(l0), frozenset(range(idx))))
            continue
        neg, zero, pos = [], [], []
        for r, z in rays:
            v = _dot(c, r)
            if v < 0:
                neg.append((r, z))
            elif v == 0:
                zero.append((r, z | {idx}))
            else:
                pos.append((r, z))
        new = []
        for rp, zp in pos:
            for rn, zn in neg:
                if not _adjacent(zp, zn, rays):
                    continue
                a, b = _dot(c, rp), _dot(c, rn)  # a > 0, b < 0
                w = _primitive([-b * x + a * y for x, y in zip(rp, rn)])
                new.append((w, (zp & zn) | {idx}))
        seen = {}
        for r, z in neg + zero + new:
            seen[r] = seen[r] | z if r in seen else z
        rays = list(seen.items())

    # Final extremality filter: a ray is extreme iff its tight constraints
    # have rank dim - 1 - len(lineality), as all vanish on the lineality.
    out = []
    for r, z in rays:
        tight = [constraints[i] for i in sorted(z)]
        _, piv = rref(tight)
        if len(piv) == dim - 1 - len(lineality):
            out.append((r, z))
    return out, len(lineality)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def polar_constraints(points):
    """Rows c of the polar cone {c . (t, w) <= 0} about the centroid
    z = total / k: the ray (t, w) is the face w . (x - z) <= t / k."""
    k = len(points)
    total = [sum(c) for c in zip(*points)]
    return [tuple([-1] + [k * x - s for x, s in zip(p, total)]) for p in points]


def facet_vertex_sets(points):
    """(affine dimension, facets) of conv(points), each facet given as the
    frozenset of indices of the points it contains.  A facet is determined
    by the points on it, so this needs no normal form for the rows."""
    d = len(points[0])
    rays, codimension = dd_cone_rays(polar_constraints(points), d + 1)
    if codimension == d:  # one point: its ray (1, 0) is tight on no point
        return 0, set()
    if any(t <= 0 for (t, *_), _ in rays):
        raise ValueError("unexpected ray at infinity; interior point wrong?")
    return d - codimension, {tight for _, tight in rays}
