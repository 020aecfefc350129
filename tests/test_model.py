import math
import random

import pytest

from cfnmc.ideal import MarkedBinomial, construct_generators
from cfnmc.model import (
    ClockParams,
    LeafDistribution,
    TransformError,
    _class_table,
    _sign_transform,
    fourier_transform,
    invariant_check,
    leaf_distribution,
    sample_clock_params,
)
from cfnmc.tree import TreeError, enumerate_topologies, parse_newick

from helpers import (
    FIG_TREE,
    caterpillar,
    class_monomial_value,
    class_table_by_labelings,
    leaf_distribution_bruteforce,
    leaf_distribution_by_assignment,
    sign_transform_in_place,
)

PARAM_TREE = "(((1,2),(3,4)),(5,6));"


class TestClockParams:
    def test_validation(self):
        t = parse_newick("((1,2),3);")
        root, cherry = t.node_at_index(0), t.node_at_index(1)
        ClockParams(1.0, {root: 2.0, cherry: 1.0}).validate(t)
        with pytest.raises(TreeError):
            ClockParams(1.0, {root: 1.0, cherry: 2.0}).validate(t)
        with pytest.raises(TreeError):
            ClockParams(-1.0, {root: 2.0, cherry: 1.0}).validate(t)

    def test_sampling_valid(self):
        rng = random.Random(1)
        for t in enumerate_topologies(6):
            sample_clock_params(t, rng).validate(t)


class TestLeafDistribution:
    def test_stationary_limit(self):
        t = parse_newick("(1,2);")
        d = leaf_distribution(t, ClockParams(1.0, {t.root: 50.0}))
        assert all(abs(p - 0.25) < 1e-9 for p in d.probs.values())

    def test_sums_to_one(self):
        rng = random.Random(2)
        for t in enumerate_topologies(5):
            d = leaf_distribution(t, sample_clock_params(t, rng))
            assert abs(sum(d.probs.values()) - 1.0) < 1e-12

    def test_three_leaf_symmetries(self):
        t = parse_newick("((1,2),3);")
        root, cherry = t.node_at_index(0), t.node_at_index(1)
        d = leaf_distribution(t, ClockParams(1.0, {root: 2.0, cherry: 1.0}))
        assert abs(d.probs[(0, 0, 0)] - d.probs[(1, 1, 1)]) < 1e-15
        for k, v in d.probs.items():
            flip = tuple(1 - x for x in k)
            assert abs(v - d.probs[flip]) < 1e-15

    def test_pruning_equals_bruteforce(self):
        rng = random.Random(3)
        shapes = [t for n in range(2, 7) for t in enumerate_topologies(n)]
        for t in shapes + [caterpillar(7)]:  # the caterpillar is the deepest shape
            p = sample_clock_params(t, rng)
            d1 = leaf_distribution(t, p)
            d2 = leaf_distribution_bruteforce(t, p)
            assert d1.probs.keys() == d2.probs.keys()
            for k in d1.probs:
                assert abs(d1.probs[k] - d2.probs[k]) < 1e-12, t.to_newick()

    def test_tabulated_pruning_equals_per_assignment_pass(self):
        # the same float operations in the same order: equal to the bit
        rng = random.Random(5)
        shapes = [t for n in range(2, 9) for t in enumerate_topologies(n)]
        for t in shapes + [caterpillar(10)]:
            p = sample_clock_params(t, rng)
            d1 = leaf_distribution(t, p).probs
            d2 = leaf_distribution_by_assignment(t, p).probs
            assert list(d1) == list(d2)
            assert d1 == d2, t.to_newick()


class TestFourier:
    def test_two_leaf_closed_form(self):
        t = parse_newick("(1,2);")
        h = 0.7
        fp = fourier_transform(t, leaf_distribution(t, ClockParams(1.0, {t.root: h})))
        assert abs(fp.qhat[(1, 1)] - math.exp(-4.0 * h)) < 1e-12

    def test_uniform_gives_indicator(self):
        # enormous heights push the distribution to uniform
        t = parse_newick("((1,2),3);")
        root, cherry = t.node_at_index(0), t.node_at_index(1)
        fp = fourier_transform(
            t, leaf_distribution(t, ClockParams(1.0, {root: 60.0, cherry: 30.0})),
            tol=1e-6,
        )
        assert abs(fp.qhat[(0, 0, 0)] - 1.0) < 1e-9
        assert all(
            abs(v) < 1e-6 for k, v in fp.qhat.items() if k != (0, 0, 0)
        )

    def test_param_example_monomial(self):
        t = parse_newick(PARAM_TREE)
        rng = random.Random(5)
        p = sample_clock_params(t, rng)
        fp = fourier_transform(t, leaf_distribution(t, p))
        v1, v3 = t.node_at_index(0), t.node_at_index(2)
        want = math.exp(-4.0 * p.heights[v1]) * math.exp(-4.0 * p.heights[v3])
        assert abs(fp.qhat[(1, 1, 1, 0, 1, 0)] - want) < 1e-9

    def test_monomial_reconstruction(self):
        rng = random.Random(6)
        for n in range(2, 7):
            for t in enumerate_topologies(n):
                p = sample_clock_params(t, rng)
                fp = fourier_transform(t, leaf_distribution(t, p))
                for key, val in fp.rcoords.items():
                    assert abs(val - class_monomial_value(t, p, key)) < 1e-9

    def test_all_zero_class_is_exactly_one(self):
        # the all-zero class is the empty monomial: exactly 1 in the exact
        # parametrization; the float transform recovers it to 1e-12
        rng = random.Random(9)
        for t in enumerate_topologies(5):
            p = sample_clock_params(t, rng)
            assert class_monomial_value(t, p, "0" * 4) == 1.0
            fp = fourier_transform(t, leaf_distribution(t, p))
            assert abs(fp.rcoords["0" * 4] - 1.0) < 1e-12

    def test_constant_geometry_equals_in_place_butterflies(self):
        # bit-equal, on random floats and on leaf distributions
        rng = random.Random(12)
        for n in range(0, 9):
            values = [rng.uniform(-1.0, 1.0) for _ in range(1 << n)]
            assert _sign_transform(values) == sign_transform_in_place(values)
        for n in range(2, 8):
            for t in enumerate_topologies(n):
                dist = leaf_distribution(t, sample_clock_params(t, rng))
                values = list(dist.probs.values())
                got = fourier_transform(t, dist).qhat
                assert list(got) == list(dist.probs)
                assert list(got.values()) == sign_transform_in_place(values)

    def test_transform_errors_name_the_labeling_or_class(self):
        t = parse_newick("((1,2),3);")
        dist = leaf_distribution(t, sample_clock_params(t, random.Random(1)))
        skewed = dict(dist.probs)
        skewed[(0, 1, 1)] += 0.25  # odd entries pick up +-0.25
        with pytest.raises(TreeError, match=r"odd-parity transform entry \(0, 0, 1\)") as exc:
            fourier_transform(t, LeafDistribution(skewed))
        assert isinstance(exc.value, TransformError)
        assert exc.value.detail["labeling"] == [0, 0, 1]
        # the transform is its own inverse up to 2^n, exactly on dyadic
        # values: a point whose even labelings 011 and 101 (one top-set,
        # the root) disagree
        qhat = [1.0, 0.0, 0.0, 0.5, 0.0, 0.75, 0.25, 0.0]
        probs = [v / 8 for v in sign_transform_in_place(qhat)]
        split = LeafDistribution(dict(zip(sorted(dist.probs), probs)))
        with pytest.raises(TreeError, match="equal top-set disagree: 10: 0.5 vs 0.75") as exc:
            fourier_transform(t, split)
        assert exc.value.detail == {"class": "10", "values": [0.5, 0.75]}

    @pytest.mark.parametrize(
        "n", [*range(2, 10), pytest.param(10, marks=pytest.mark.slow)]
    )
    def test_class_table_equals_labeling_walk(self, n):
        for t in enumerate_topologies(n):
            assert _class_table(t) == class_table_by_labelings(t), t.to_newick()

    def test_double_transform(self):
        t = parse_newick(FIG_TREE)
        rng = random.Random(7)
        d = leaf_distribution(t, sample_clock_params(t, rng))
        fp = fourier_transform(t, d)
        n = t.n_leaves
        labs = sorted(d.probs)
        for j in labs:
            back = (
                sum(
                    (-1) ** sum(a * b for a, b in zip(j, g)) * fp.qhat[g]
                    for g in labs
                )
                / 2 ** n
            )
            assert abs(back - d.probs[j]) < 1e-12


class TestInvariantCheck:
    def test_fig_tree_vanishes(self):
        t = parse_newick(FIG_TREE)
        gens, _ = construct_generators(t)
        report = invariant_check(t, gens, samples=100, seed=11, tol=1e-9)
        assert report["pass"]
        assert len(report["binomials"]) == 6
        assert report["max_residual"] <= 1e-9

    def test_injected_non_kernel_fails(self):
        t = parse_newick(FIG_TREE)
        gens, _ = construct_generators(t)
        bad = MarkedBinomial(("0000", "0000"), ("1000", "0100"), "oracle")
        report = invariant_check(t, list(gens) + [bad], samples=5, seed=3)
        assert not report["pass"]

    def test_empty_gens_vacuous(self):
        t = parse_newick("((1,2),3);")
        report = invariant_check(t, [], samples=3, seed=0)
        assert report["pass"] and report["binomials"] == []

    def test_residuals_match_fourier_transform(self):
        # each sample is collapsed onto the class coordinates exactly as
        # fourier_transform collapses it
        t = parse_newick(PARAM_TREE)
        gens, _ = construct_generators(t)
        report = invariant_check(t, gens, samples=5, seed=4)
        rng = random.Random(4)
        worst = [0.0] * len(gens)
        for _ in range(5):
            dist = leaf_distribution(t, sample_clock_params(t, rng))
            point = fourier_transform(t, dist).rcoords
            for i, g in enumerate(gens):
                plus = math.prod(point[k] for k in g.plus)
                minus = math.prod(point[k] for k in g.minus)
                worst[i] = max(worst[i], abs(plus - minus))
        assert [b["max_residual"] for b in report["binomials"]] == worst

    def test_deterministic_given_seed(self):
        t = parse_newick(FIG_TREE)
        gens, _ = construct_generators(t)
        r1 = invariant_check(t, gens, samples=10, seed=42)
        r2 = invariant_check(t, gens, samples=10, seed=42)
        assert r1 == r2
