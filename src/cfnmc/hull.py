"""Exact convex hull H-description over the integers (the facet oracle).

Given integer points, computes the affine hull (as integer equalities) and
the irredundant facet inequalities of the convex hull restricted to the
affine hull, using the polar dual: translate an interior point to the
origin, homogenize, and run the double description method on the dual cone.
All arithmetic is integer/Fraction; no floating point.

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


def _int_scale(fracs):
    """Scale a Fraction vector to a primitive integer vector (same direction)."""
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    return _primitive([int(f * denom) for f in fracs])


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


def affine_decomposition(points):
    """Split coordinates into pivots (an affine chart) and dependents.

    Returns (pivots, relations, equalities) where relations maps each
    non-pivot coordinate j to (beta, {pivot: alpha}) with
    x_j = beta + sum alpha * x_pivot on the affine hull, and equalities are
    the same relations as primitive integer rows (coeffs, rhs) for
    coeffs . x = rhs.
    """
    p0 = points[0]
    dirs = [[a - b for a, b in zip(p, p0)] for p in points[1:]]
    reduced, pivots = rref(dirs)
    d = len(p0)
    nonpivots = [j for j in range(d) if j not in pivots]
    relations = {}
    equalities = []
    for j in nonpivots:
        beta = Fraction(p0[j])
        alphas = {}
        for row, s in zip(reduced, pivots):
            if row[j] != 0:
                alphas[s] = row[j]
                beta -= row[j] * Fraction(p0[s])
        relations[j] = (beta, alphas)
        # x_j - sum alpha x_s = beta
        coeffs = [Fraction(0)] * d
        coeffs[j] = Fraction(1)
        for s, a in alphas.items():
            coeffs[s] = -a
        vec = _int_scale(list(coeffs) + [beta])
        equalities.append((vec[:-1], vec[-1]))
    return pivots, relations, equalities


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
    z = [Fraction(sum(p[i] for p in points), k) for i in range(d)]
    denom = 1
    for f in z:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    # q_i . w <= t with q_i = p_i - z becomes (denom*q_i) . w - denom*t <= 0.
    constraints = []
    for p in points:
        qi = [int((Fraction(p[i]) - z[i]) * denom) for i in range(d)]
        constraints.append(tuple([-denom] + qi))
    rays = dd_cone_rays(constraints, d + 1)
    facets = set()
    for ray in rays:
        t, w = ray[0], ray[1:]
        if t <= 0:
            raise ValueError("unexpected ray at infinity; interior point wrong?")
        # facet: w . (x - z) <= t  ->  w . x <= t + w . z
        rhs = Fraction(t) + sum(Fraction(wi) * zi for wi, zi in zip(w, z))
        vec = _int_scale([Fraction(wi) for wi in w] + [rhs])
        facets.add((vec[:-1], vec[-1]))
    return sorted(facets)


def hull_h_description(points):
    """(equalities, facets, pivots, relations) of conv(points).

    Facets are expressed in the pivot chart: every facet is a pair
    (coeffs, rhs) over the pivot coordinates only (expanded with zeros
    elsewhere), which is the canonical form modulo the affine hull.
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("no points")
    d = len(pts[0])
    pivots, relations, equalities = affine_decomposition(pts)
    if len(pivots) == 0:
        return equalities, [], pivots, relations
    proj = sorted({tuple(p[j] for j in pivots) for p in pts})
    chart_facets = facets_of_full_dim_points(proj)
    facets = []
    for coeffs, rhs in chart_facets:
        full = [0] * d
        for val, j in zip(coeffs, pivots):
            full[j] = val
        facets.append((tuple(full), rhs))
    return equalities, sorted(facets), pivots, relations


def reduce_to_chart(coeffs, rhs, pivots, relations):
    """Rewrite coeffs . x <= rhs modulo the affine hull onto the pivot chart,
    returning the same primitive normal form hull_h_description uses."""
    d = len(coeffs)
    out = [Fraction(c) for c in coeffs]
    new_rhs = Fraction(rhs)
    for j, (beta, alphas) in relations.items():
        cj = out[j]
        if cj == 0:
            continue
        out[j] = Fraction(0)
        new_rhs -= cj * beta
        for s, a in alphas.items():
            out[s] += cj * a
    vec = _int_scale(out + [new_rhs])
    return vec[:-1], vec[-1]
