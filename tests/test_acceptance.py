"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact except the numeric model criterion, whose tolerances
are pinned here (1e-9 residuals, 1e-12 stochasticity).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
from pathlib import Path

import pytest

from cfnmc.ehrhart import (
    count_lattice_points,
    df_compression_audit,
    ehrhart_polynomial,
    euler_zigzag,
    fibonacci,
    nni_count_check,
)
from cfnmc.ideal import (
    MarkedBinomial,
    build_matrix,
    construct_generators,
    fiber_connectivity,
    groebner_verify,
    kernel_member,
)
from cfnmc.model import (
    fourier_transform,
    invariant_check,
    leaf_distribution,
    sample_clock_params,
)
from cfnmc.paths import enumerate_topsets, topset_bits, vertex_bijection
from cfnmc.polytope import (
    build_RT,
    build_RTI,
    count_monotone_zigzag_maps,
    h_reps_match,
)
from cfnmc.tree import (
    apply_nni,
    enumerate_topologies,
    nni_triples,
    parse_newick,
)

from helpers import (
    FIG_TREE,
    caterpillar,
    caterpillar_zigzag_map,
    class_monomial_value,
    order_ideals,
    zigzag_order_polytope_vertices,
)

GOLDEN = Path(__file__).parent / "golden" / "five_leaf_example.json"


def _report(name, detail=""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_1_fibonacci_vertex_count():
    # 1+1+2+3+6+11+23 shapes over n = 2..8 (47; the stated 48 also counts n=1)
    shapes = 0
    for n in range(2, 9):
        want = fibonacci(n)
        for tree in enumerate_topologies(n):
            assert len(enumerate_topsets(tree)) == want, (n, tree.to_newick())
            shapes += 1
    assert shapes == 47
    assert fibonacci(8) == 34
    _report("criterion 1 (Fibonacci vertex count)", f"{shapes} shapes, F_8 = 34")


def test_criterion_2_facet_descriptions():
    rt_checked = 0
    for n in range(2, 7):
        for tree in enumerate_topologies(n):
            assert h_reps_match(build_RT(tree)), (n, tree.to_newick())
            rt_checked += 1
    rti_checked = 0
    for n in range(2, 6):
        for tree in enumerate_topologies(n):
            for ideal in order_ideals(tree):
                assert h_reps_match(build_RTI(tree, ideal)), (
                    n, tree.to_newick(), sorted(tree.interior_index(v) for v in ideal),
                )
                rti_checked += 1
    _report(
        "criterion 2 (closed-form facets vs hull oracle)",
        f"{rt_checked} R_T hulls, {rti_checked} R_T(I) hulls",
    )


@pytest.fixture(scope="module")
def ehrhart_by_leaves():
    """One Ehrhart polynomial per shape for n = 2..9, shared by criteria 3 and 4."""
    return {
        n: [(tree, ehrhart_polynomial(build_RT(tree))) for tree in enumerate_topologies(n)]
        for n in range(2, 10)
    }


def test_criterion_3_normalized_volume(ehrhart_by_leaves):
    expected = {n: euler_zigzag(n - 1) for n in ehrhart_by_leaves}
    assert list(expected.values()) == [1, 1, 2, 5, 16, 61, 272, 1385]
    for n, want in expected.items():
        for tree, poly in ehrhart_by_leaves[n]:
            assert poly.normalized_volume == want, (n, tree.to_newick())
    _report("criterion 3 (normalized volume = Euler zig-zag)", "n = 2..9")


def test_criterion_4_topology_independence(ehrhart_by_leaves):
    for n, rows in ehrhart_by_leaves.items():
        polys = {poly.coefficients for _, poly in rows}
        assert len(polys) == 1, n
    _report("criterion 4 (Ehrhart polynomial depends only on n)", "n <= 9")


def test_criterion_5_golden_example():
    tree = parse_newick(FIG_TREE)
    payload = {
        "matrix": build_matrix(tree).to_json_dict(),
        "generators": [g.to_json_dict() for g in construct_generators(tree)[0]],
    }
    got = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert got == GOLDEN.read_text(), "canonical JSON drifted from the golden file"

    # cross-check the golden content against the reference values
    reference_columns = {
        (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0),
        (1, 0, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 0, 0, 1), (1, 0, 0, 1, 1),
    }
    M = build_matrix(tree)
    assert {M.column(k) for k in M.keys} == reference_columns
    reference_gens = {
        frozenset({("0000", "0011"), ("0010", "0001")}): "Root",
        frozenset({("1000", "0011"), ("1010", "0001")}): "Root",
        frozenset({("1000", "0011"), ("0010", "1001")}): "Root",
        frozenset({("0000", "1010"), ("1000", "0010")}): "Swap",
        frozenset({("0000", "1001"), ("1000", "0001")}): "Swap",
        frozenset({("0010", "1001"), ("1010", "0001")}): "Swap",
    }
    gens, _ = construct_generators(tree)
    got_map = {
        frozenset({tuple(sorted(g.plus)), tuple(sorted(g.minus))}): g.provenance
        for g in gens
    }
    normalized = {
        frozenset(tuple(sorted(m)) for m in key): prov
        for key, prov in reference_gens.items()
    }
    assert got_map == normalized
    _report("criterion 5 (golden 5-leaf example)", "matrix + 6 generators, 3 Root / 3 Swap")


def test_criterion_6_groebner_property():
    for n in range(2, 8):
        for tree in enumerate_topologies(n):
            M = build_matrix(tree)
            gens, order = construct_generators(tree)
            assert all(g.initial_squarefree() for g in gens), (n, tree.to_newick())
            assert groebner_verify(M, gens, order), (n, tree.to_newick())
            if n <= 6:
                assert fiber_connectivity(M, gens, 4), (n, tree.to_newick())
    _report(
        "criterion 6 (quadratic Groebner basis)",
        "all shapes n <= 7, fiber cap 4 for n <= 6",
    )


def test_criterion_7_order_polytope():
    for n in range(1, 7):
        C = caterpillar(n + 1)
        _, _, phi = caterpillar_zigzag_map(n)
        verts = [topset_bits(C, s) for s in enumerate_topsets(C)]
        image = {phi(v) for v in verts}
        assert len(image) == len(verts)
        assert image == set(zigzag_order_polytope_vertices(n))
        P = build_RT(C)
        for m in range(6):
            assert count_lattice_points(P, m) == count_monotone_zigzag_maps(n, m)
    _report("criterion 7 (order-polytope isomorphism)", "n <= 6, dilates m <= 5")


def test_criterion_8_nni():
    pairs = 0
    for n in (5, 6):
        for tree in enumerate_topologies(n):
            for triple in nni_triples(tree):
                other = apply_nni(tree, triple)
                fmap = vertex_bijection(tree, triple)
                assert set(fmap.values()) == set(enumerate_topsets(other))
                back = vertex_bijection(other, triple)
                assert all(back[fmap[s]] == s for s in fmap)
                for m in range(1, 5):
                    assert nni_count_check(tree, triple, m)["equal"], (n, triple, m)
                for m in range(1, 4):
                    audit = df_compression_audit(tree, triple, m)
                    assert audit["all_compressed"], (n, triple, m)
                pairs += 1
    _report("criterion 8 (NNI bijection and dilate counts)", f"{pairs} adjacent pairs")


def test_criterion_9_numeric_invariants():
    worst = 0.0
    for n in range(2, 7):
        for tree in enumerate_topologies(n):
            gens, _ = construct_generators(tree)
            report = invariant_check(tree, gens, samples=100, seed=2024, tol=1e-9)
            assert report["pass"], (n, tree.to_newick(), report["max_residual"])
            worst = max(worst, report["max_residual"])
            # monomial reconstruction of the transform within 1e-9
            rng = random.Random(n)
            params = sample_clock_params(tree, rng)
            dist = leaf_distribution(tree, params)
            assert abs(sum(dist.probs.values()) - 1.0) <= 1e-12
            point = fourier_transform(tree, dist)
            for key, val in point.rcoords.items():
                assert abs(val - class_monomial_value(tree, params, key)) <= 1e-9

    # negative control: an injected non-kernel binomial must fail
    tree = parse_newick(FIG_TREE)
    gens, _ = construct_generators(tree)
    bad = MarkedBinomial(("0000", "0000"), ("1000", "0100"), "oracle")
    assert not kernel_member(build_matrix(tree), bad)
    assert not invariant_check(tree, list(gens) + [bad], samples=5, seed=1)["pass"]
    _report(
        "criterion 9 (numeric invariants)",
        f"100 seeded draws per shape, max residual {worst:.2e}",
    )
