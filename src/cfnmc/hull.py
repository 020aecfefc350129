"""Exact convex hull of integer points (the facet oracle).

Given integer points, finds a chart of their affine hull (the pivot columns
that parametrize it) and the facets of their convex hull in that chart,
using the polar dual: translate the centroid to the origin, homogenize, and
run the double description method on the dual cone.  Each facet is
reported as the set of input points it contains, which determines it.  The
arithmetic is exact: integers throughout, with Fractions only inside
``rref``.

This is the independent oracle for the closed-form facet descriptions:
``polytope.h_reps_match`` runs it for ``survey`` and ``--verify-hull``, and
the tests run it directly.  Nothing else depends on it.  The plain facet
list of full-dimensional input, which only the tests use, is
``hull_facets`` in ``tests/helpers.py``.
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


def affine_chart(points):
    """Pivot columns of the affine hull of points: the coordinates that
    parametrize it, so projecting onto them is one-to-one on the hull and
    the image is full-dimensional."""
    p0 = points[0]
    _, pivots = rref([[a - b for a, b in zip(p, p0)] for p in points[1:]])
    return pivots


def _adjacent(z1, z2, rays):
    common = z1 & z2
    return not any(common <= z3 for r, z3 in rays if z3 is not z1 and z3 is not z2)


def dd_cone_rays(constraints, dim):
    """Extreme rays of {x : c . x <= 0 for all c}, assuming the result is
    pointed.  Double description with lineality tracking; integer arithmetic."""
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
        merged = neg + zero + new
        seen = {}
        for r, z in merged:
            if r in seen:
                seen[r] = seen[r] | z
            else:
                seen[r] = z
        rays = list(seen.items())

    if lineality:
        raise ValueError("cone has lineality; input not full-dimensional")
    # Final extremality filter: a ray is extreme iff its tight constraints
    # have rank dim - 1.
    out = []
    for r, z in rays:
        tight = [constraints[i] for i in sorted(z)]
        _, piv = rref(tight)
        if len(piv) == dim - 1:
            out.append(r)
    return out


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def facets_of_full_dim_points(points):
    """Facets (coeffs, rhs) of conv(points) assumed full-dimensional, with
    primitive integer coeffs oriented as coeffs . x <= rhs."""
    d = len(points[0])
    k = len(points)
    total = [sum(p[i] for p in points) for i in range(d)]
    # The polar about the centroid z = total / k: w . (p - z) <= s for every
    # p, that is (k p - total) . w - t <= 0 with t = k s.
    constraints = [tuple([-1] + [k * x - s for x, s in zip(p, total)]) for p in points]
    rays = dd_cone_rays(constraints, d + 1)
    facets = set()
    for ray in rays:
        t, w = ray[0], ray[1:]
        if t <= 0:
            raise ValueError("unexpected ray at infinity; interior point wrong?")
        # facet: w . (x - z) <= t / k  ->  k w . x <= t + w . total
        vec = _primitive([k * wi for wi in w] + [t + _dot(w, total)])
        facets.add((vec[:-1], vec[-1]))
    return sorted(facets)


def facet_vertex_sets(points):
    """(affine dimension, facets) of conv(points), each facet given as the
    frozenset of indices of the points it contains.  A facet is determined
    by the points on it, so this needs no normal form for the rows."""
    pivots = affine_chart(points)
    if not pivots:
        return 0, set()
    chart = [tuple(p[j] for j in pivots) for p in points]
    return len(pivots), {
        frozenset(i for i, q in enumerate(chart) if _dot(coeffs, q) == rhs)
        for coeffs, rhs in facets_of_full_dim_points(sorted(set(chart)))
    }
