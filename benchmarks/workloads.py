"""The benchmark's workloads: seeded job lists and the check for each job.

A job is one ``cfnmc`` command line (``--json`` is appended).  Its check
takes the parsed JSON output and raises ``oracle.CheckError`` when the
output is wrong or shows less work than the command asked for.  A probe is
a malformed command whose documented outcome is exit 2; it has no check.

The seed picks the 7- and 8-leaf shapes, relabels their leaves and shuffles
the child order of the Newick text, and sets ``model-check --seed``.  The
shapes come from lists of shapes with exactly one cluster node, which share
their facet count (14 at eight leaves) and have 85 or 87 generators at
seven leaves, so the work in a job list varies little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle as ref
from oracle import require

# The workloads BENCHMARK.json lists.
WORKLOADS = ("ehrhart-survey", "ideal-cert", "per-tree-checks")


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: Optional[Callable] = None  # payload -> None; None marks a probe

    @property
    def probe(self) -> bool:
        return self.check is None

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def one_cluster_shapes(n: int) -> list:
    return [s for s in ref.shapes(n) if _cluster_nodes(s) == 1]


def _cluster_nodes(s, root=True) -> int:
    if s == ():
        return 0
    a, b = s
    own = 0 if root or a == () or b == () else 1
    return own + _cluster_nodes(a, False) + _cluster_nodes(b, False)


def _size(s) -> int:
    return 1 if s == () else _size(s[0]) + _size(s[1])


def random_newick(tree_shape, rng: random.Random) -> str:
    """A tree of the given shape with shuffled leaf labels and child order."""
    labels = list(range(1, _size(tree_shape) + 1))
    rng.shuffle(labels)
    it = iter(labels)

    def render(s):
        if s == ():
            return str(next(it))
        a, b = render(s[0]), render(s[1])
        return f"({b},{a})" if rng.random() < 0.5 else f"({a},{b})"

    return render(tree_shape) + ";"


# -- checks shared by several jobs ---------------------------------------------------


def _single_tree(payload, newick: str) -> dict:
    trees = payload["trees"]
    require(len(trees) == 1, f"expected one tree, got {len(trees)}")
    got = ref.parse_newick(trees[0]["tree"])
    require(got == ref.parse_newick(newick), f"tree {trees[0]['tree']} is not {newick}")
    return trees[0]


def _all_shapes(trees: list, n: int) -> None:
    """One entry per shape on n leaves, every shape present."""
    want = ref.wedderburn_etherington(n)
    got = [ref.shape(ref.parse_newick(t)) for t in trees]
    require(len(got) == want, f"{len(got)} shapes on {n} leaves, expected {want}")
    require(sorted(got) == list(ref.shapes(n)), f"the shapes on {n} leaves are not all covered")


def _check_polynomial(where: str, coeffs: list, d: int) -> None:
    """Ascending coefficients of the Ehrhart polynomial of a d-dimensional polytope."""
    require(len(coeffs) == d + 1, f"{where}: degree {len(coeffs) - 1}, expected {d}")
    poly = [Fraction(c) for c in coeffs]
    for m in range(d + 2):
        val = sum(c * m**k for k, c in enumerate(poly))
        require(val == ref.zigzag_count(d, m), f"{where}: L({m}) = {val}, expected {ref.zigzag_count(d, m)}")


# -- per-command checks -------------------------------------------------------------


def check_survey(n: int):
    def check(payload):
        d, f, e = n - 1, ref.fibonacci(n), ref.euler_zigzag(n - 1)
        require(payload["leaves"] == n, "survey leaves")
        require(payload["shapes"] == ref.wedderburn_etherington(n), "survey shape count")
        require(payload["vertices"] == f and payload["volume"] == e, "survey F_n / E_n-1")
        require(payload["ehrhart_identical"] is True, "survey ehrhart_identical")
        _all_shapes([r["tree"] for r in payload["trees"]], n)
        for r in payload["trees"]:
            where = f"survey {r['tree']}"
            require(r["vertices"] == f, f"{where}: {r['vertices']} vertices, expected F_{n} = {f}")
            require(r["volume"] == e, f"{where}: volume {r['volume']}, expected E_{d} = {e}")
            require(r["hull_agrees"] is True, f"{where}: hull disagrees")
            _check_polynomial(where, r["ehrhart"], d)

    return check


def check_ehrhart(newick: str, n: int):
    def check(payload):
        entry, d = _single_tree(payload, newick), n - 1
        where = f"ehrhart {newick}"
        _check_polynomial(where, entry["polynomial"], d)
        want = [{"m": m, "count": ref.zigzag_count(d, m)} for m in range(d + 2)]
        require(entry["counts"] == want, f"{where}: counts {entry['counts']} != {want}")
        e = ref.euler_zigzag(d)
        require(entry["normalized_volume"] == e, f"{where}: volume {entry['normalized_volume']} != E_{d} = {e}")
        hs = entry["h_star"]
        require(all(h >= 0 for h in hs) and sum(hs) == e, f"{where}: h* {hs} not >= 0 summing to {e}")
        require(hs == ref.h_star(d, [c["count"] for c in want]), f"{where}: h* {hs} differs")

    return check


def check_volume(newick: str, n: int):
    def check(payload):
        entry, e = _single_tree(payload, newick), ref.euler_zigzag(n - 1)
        require(entry["volume"] == e and entry["euler_zigzag"] == e, f"volume {newick}: {entry} != E = {e}")

    return check


def check_vertices(n: int):
    def check(payload):
        _all_shapes([t["tree"] for t in payload["trees"]], n)
        f = ref.fibonacci(n)
        for t in payload["trees"]:
            want = ref.top_vectors(ref.parse_newick(t["tree"]))
            require(len(want) == f, f"reference top-vector count {len(want)} != F_{n}")
            require(t["count"] == f and t["fibonacci"] == f, f"vertices {t['tree']}: count {t['count']}")
            require(t["vertices"] == want, f"vertices {t['tree']}: top-vectors differ from the parity rule")

    return check


def check_gens(n: int):
    def check(payload):
        _all_shapes([t["tree"] for t in payload["trees"]], n)
        for t in payload["trees"]:
            columns = ref.top_vectors(ref.parse_newick(t["tree"]))
            ref.check_quadratic_binomials(f"gens {t['tree']}", columns, t["generators"], marked=True)
            require(isinstance(t["reduced"], bool), f"gens {t['tree']}: no reducedness verdict")

    return check


def check_groebner(newick: str):
    def check(payload):
        entry = _single_tree(payload, newick)
        dim = ref.dim_I2(ref.top_vectors(ref.parse_newick(newick)))
        require(entry["groebner"] is True, f"groebner-check {newick}: not certified")
        require(entry["generators"] >= dim, f"groebner-check {newick}: {entry['generators']} < dim I2 = {dim}")

    return check


def check_markov(n: int, degree: int):
    def check(payload):
        _all_shapes([t["tree"] for t in payload["trees"]], n)
        for t in payload["trees"]:
            require(t["degree_cap"] == degree, f"markov-check {t['tree']}: degree cap {t['degree_cap']}")
            require(t["connected"] is True, f"markov-check {t['tree']}: fibers not connected")

    return check


def check_model(n: int, samples: int, seed: int, tol: float):
    def check(payload):
        _all_shapes([t["tree"] for t in payload["trees"]], n)
        for t in payload["trees"]:
            where = f"model-check {t['tree']}"
            require((t["samples"], t["seed"], t["tol"]) == (samples, seed, tol), f"{where}: ran {t['samples']} samples")
            require(t["pass"] is True and t["max_residual"] <= tol, f"{where}: residual {t['max_residual']}")
            require(all(b["max_residual"] <= tol for b in t["binomials"]), f"{where}: a residual exceeds tol")
            columns = ref.top_vectors(ref.parse_newick(t["tree"]))
            ref.check_quadratic_binomials(where, columns, t["binomials"], marked=False)

    return check


def check_nni(n: int, dilate: int):
    def check(payload):
        pairs = payload["pairs"]
        trees = sorted({p["tree"] for p in pairs})
        _all_shapes(trees, n)
        want = sum(2 * ref.interior_edges(ref.parse_newick(t)) for t in trees)
        require(len(pairs) == want, f"nni-check: {len(pairs)} NNI pairs, expected {want}")
        for p in pairs:
            where = f"nni-check {p['tree']} -> {p['other']}"
            tree, other = ref.parse_newick(p["tree"]), ref.parse_newick(p["other"])
            require(sorted(ref.leaves(tree)) == sorted(ref.leaves(other)), f"{where}: leaf sets differ")
            require(len(ref.clusters(tree) - ref.clusters(other)) == 1, f"{where}: not one NNI move apart")
            require(p["counts_equal_up_to"] == dilate, f"{where}: counts checked to {p['counts_equal_up_to']}")
            require(p["df_audit_up_to"] == min(dilate, 3), f"{where}: audit to {p['df_audit_up_to']}")

    return check


# -- job lists ------------------------------------------------------------------------


def jobs(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "ehrhart-survey":
        eh_tree = random_newick(rng.choice(one_cluster_shapes(8)), rng)
        vol_tree = random_newick(rng.choice(one_cluster_shapes(8)), rng)
        return [
            Job(("survey", "--leaves", "7"), check_survey(7)),
            Job(("ehrhart", "--tree", eh_tree), check_ehrhart(eh_tree, 8)),
            Job(("volume", "--tree", vol_tree), check_volume(vol_tree, 8)),
        ]
    if workload == "ideal-cert":
        picks = rng.sample(one_cluster_shapes(7), 2)
        trees = [random_newick(s, rng) for s in picks]
        return [Job(("groebner-check", "--tree", t), check_groebner(t)) for t in trees] + [
            Job(("gens", "--leaves", "8"), check_gens(8)),
            Job(("markov-check", "--leaves", "6", "--degree", "4"), check_markov(6, 4)),
        ]
    if workload == "per-tree-checks":
        model_seed = rng.randrange(1 << 16)
        return [
            Job(("nni-check", "--leaves", "6", "--dilate", "3"), check_nni(6, 3)),
            Job(
                ("model-check", "--leaves", "7", "--samples", "20", "--seed", str(model_seed)),
                check_model(7, 20, model_seed, 1e-9),
            ),
            Job(("vertices", "--leaves", "10"), check_vertices(10)),
            # Malformed input; each should exit 2 and does not yet.
            Job(("rti-facets", "--tree", "((1,2),3);", "--ideal", "7")),
            Job(("model-check", "--tree", "((1,2),3);", "--samples", "0")),
            Job(("nni-check", "--tree", "((1,2),(3,4));", "--dilate", "0")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
