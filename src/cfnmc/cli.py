"""Command-line front end: verifications and exports for every module.

Exit codes: 0 all assertions passed, 1 an assertion failed (a minimal
counterexample is printed), 2 malformed input.  --json emits deterministic
machine output; identical requests print byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from . import ehrhart as eh
from . import ideal as id_
from . import model as md
from . import polytope as pt
from .paths import enumerate_topsets, topset_key, vertex_bijection
from .tree import (
    MAX_LEAVES,
    NewickError,
    TreeError,
    apply_nni,
    enumerate_topologies,
    nni_triples,
    parse_newick,
)


class CheckFailure(Exception):
    """An assertion failed; payload is the minimal counterexample."""

    def __init__(self, payload):
        super().__init__(json.dumps(payload, sort_keys=True))
        self.payload = payload


def _emit(args, payload: dict) -> None:
    if args.json:
        try:
            text = _dumps(payload)
        except _NotPlain:
            text = json.dumps(payload, sort_keys=True, indent=2)
        print(text)
    else:
        _human(payload)


class _NotPlain(Exception):
    """A payload _dumps leaves to json.dumps, such as a non-str dict key."""


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) with pad the newline and
    indent of value's own line.  The indent makes json use its pure-Python
    encoder; this writes the same text with only scalars going to json."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(k, str) for k in value):
            raise _NotPlain()
        inner = pad + "  "
        items = (
            encode_basestring_ascii(k) + ": " + _dumps(v, inner)
            for k, v in sorted(value.items())
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = (_dumps(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _human(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _human(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    print(f"{pad}  -")
                    _human(item, indent + 2)
                else:
                    print(f"{pad}  - {item}")
        else:
            print(f"{pad}{key}: {value}")


def _trees_for(args) -> list:
    if args.tree is not None:
        tree = parse_newick(args.tree)
        if tree.n_leaves > MAX_LEAVES:
            raise TreeError(
                f"--tree has {tree.n_leaves} leaves, at most {MAX_LEAVES} allowed"
            )
        return [tree]
    return enumerate_topologies(args.leaves)


# -- subcommands -----------------------------------------------------------------


def cmd_vertices(args) -> dict:
    out = []
    for tree in _trees_for(args):
        keys = sorted(topset_key(tree, s) for s in enumerate_topsets(tree))
        want = eh.fibonacci(tree.n_leaves)
        if len(keys) != want:
            raise CheckFailure(
                {"tree": tree.to_newick(), "count": len(keys), "expected": want}
            )
        out.append(
            {
                "tree": tree.to_newick(),
                "count": len(keys),
                "fibonacci": want,
                "vertices": keys,
            }
        )
    return {"trees": out}


def cmd_facets(args) -> dict:
    out = []
    for tree in _trees_for(args):
        P = pt.build_RT(tree)
        entry = {"tree": tree.to_newick(), "polytope": P.to_json_dict()}
        out.append(_verify_hull(args, tree, P, entry))
    return {"trees": out}


def _verify_hull(args, tree, P, entry: dict) -> dict:
    """With --verify-hull, record whether the closed-form facets equal the
    hull oracle's in entry, and fail the check when they do not."""
    if args.verify_hull:
        entry["hull_agrees"] = pt.h_reps_match(P)
        if not entry["hull_agrees"]:
            raise CheckFailure({"tree": tree.to_newick(), "hull_agrees": False})
    return entry


def _parse_ideal(tree, spec: str) -> frozenset:
    if spec.strip() == "":
        return frozenset()
    try:
        idxs = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise NewickError(f"bad --ideal list {spec!r}") from exc
    return frozenset(tree.node_at_index(i) for i in idxs)


def cmd_rti_facets(args) -> dict:
    (tree,) = _trees_for(args)
    ideal = _parse_ideal(tree, args.ideal)
    P = pt.build_RTI(tree, ideal)
    entry = {"tree": tree.to_newick(), "ideal": sorted(
        tree.interior_index(v) for v in ideal
    ), "polytope": P.to_json_dict()}
    return _verify_hull(args, tree, P, entry)


def cmd_ehrhart(args) -> dict:
    out = []
    for tree in _trees_for(args):
        P = pt.build_RT(tree)
        poly = eh.ehrhart_polynomial(P)
        out.append(
            {
                "tree": tree.to_newick(),
                "polynomial": poly.as_strings(),
                "normalized_volume": poly.normalized_volume,
                "h_star": list(poly.h_star_vector()),
                "counts": [{"m": m, "count": c} for m, c in enumerate(poly.counts)],
            }
        )
    return {"trees": out}


def cmd_volume(args) -> dict:
    out = []
    for tree in _trees_for(args):
        vol = eh.normalized_volume(pt.build_RT(tree))
        want = eh.euler_zigzag(tree.n_leaves - 1)
        if vol != want:
            raise CheckFailure(
                {"tree": tree.to_newick(), "volume": vol, "expected": want}
            )
        out.append({"tree": tree.to_newick(), "volume": vol, "euler_zigzag": want})
    return {"trees": out}


def cmd_gens(args) -> dict:
    out = []
    for tree in _trees_for(args):
        gens, order = id_.construct_generators(tree)
        out.append(
            {
                "tree": tree.to_newick(),
                "generators": [g.to_json_dict() for g in gens],
                "reduced": id_.reducedness_report(gens)["reduced"],
                "order": {
                    "block_kind": order.block_kind,
                    "block_tag": dict(sorted(order.block_tag.items())),
                    "weight": {k: str(v) for k, v in sorted(order.weight.items())},
                },
            }
        )
    return {"trees": out}


def cmd_groebner_check(args) -> dict:
    out = []
    for tree in _trees_for(args):
        M = id_.build_matrix(tree)
        gens, order = id_.construct_generators(tree)
        ok = id_.groebner_verify(M, gens, order)
        sq = all(g.initial_squarefree() for g in gens)
        if not (ok and sq):
            raise CheckFailure(
                {"tree": tree.to_newick(), "groebner": ok, "squarefree": sq}
            )
        out.append(
            {"tree": tree.to_newick(), "generators": len(gens), "groebner": True}
        )
    return {"trees": out}


def cmd_markov_check(args) -> dict:
    if args.degree < 1:
        raise TreeError("--degree must be >= 1")
    out = []
    for tree in _trees_for(args):
        M = id_.build_matrix(tree)
        gens, _ = id_.construct_generators(tree)
        ok = id_.fiber_connectivity(M, gens, args.degree)
        if not ok:
            raise CheckFailure({"tree": tree.to_newick(), "connected": False})
        out.append(
            {"tree": tree.to_newick(), "degree_cap": args.degree, "connected": True}
        )
    return {"trees": out}


def cmd_model_check(args) -> dict:
    if args.samples < 1:
        raise TreeError("--samples must be >= 1")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise TreeError("--tol must be finite and >= 0")
    out = []
    for tree in _trees_for(args):
        gens, _ = id_.construct_generators(tree)
        report = md.invariant_check(
            tree, gens, samples=args.samples, seed=args.seed, tol=args.tol
        )
        report["tree"] = tree.to_newick()
        if not report["pass"]:
            worst = max(report["binomials"], key=lambda b: b["max_residual"], default=None)
            raise CheckFailure({"tree": tree.to_newick(), "worst": worst})
        out.append(report)
    return {"trees": out}


def cmd_nni_check(args) -> dict:
    if args.dilate < 1:
        raise TreeError("--dilate must be >= 1")
    out = []
    memo = {}
    for tree in _trees_for(args):
        for triple in nni_triples(tree):
            other = apply_nni(tree, triple)
            e = triple.e
            e_name = (
                f"L{tree.leaf_label(e)}" if tree.is_leaf(e) else str(tree.interior_index(e))
            )
            entry = {
                "tree": tree.to_newick(),
                "triple": [
                    tree.interior_index(triple.b),
                    tree.interior_index(triple.c),
                    e_name,
                ],
                "other": other.to_newick(),
            }
            fmap = vertex_bijection(tree, triple)
            if set(fmap.values()) != set(enumerate_topsets(other)):
                raise CheckFailure({**entry, "vertex_bijection": False})
            for m in range(1, args.dilate + 1):
                res = eh.nni_count_check(tree, triple, m, memo)
                if not res["equal"]:
                    raise CheckFailure({**entry, "m": m, **res})
            entry["counts_equal_up_to"] = args.dilate
            audit_memo = {}
            for m in range(1, min(args.dilate, 3) + 1):
                audit = eh.df_compression_audit(tree, triple, m, audit_memo)
                if not audit["all_compressed"]:
                    raise CheckFailure({**entry, "m": m, **audit})
            entry["df_audit_up_to"] = min(args.dilate, 3)
            out.append(entry)
    return {"pairs": out}


def cmd_survey(args) -> dict:
    trees = enumerate_topologies(args.leaves)
    want_f = eh.fibonacci(args.leaves)
    want_e = eh.euler_zigzag(args.leaves - 1)

    def one(tree):
        P = pt.build_RT(tree)
        poly = eh.ehrhart_polynomial(P)
        return {
            "tree": tree.to_newick(),
            "vertices": len(P.vertices),
            "volume": poly.normalized_volume,
            "ehrhart": poly.as_strings(),
            "hull_agrees": pt.h_reps_match(P),
        }

    rows = [one(tree) for tree in trees]
    polys = {tuple(r["ehrhart"]) for r in rows}
    for r in rows:
        if r["vertices"] != want_f:
            raise CheckFailure({"tree": r["tree"], "vertices": r["vertices"], "expected": want_f})
        if r["volume"] != want_e:
            raise CheckFailure({"tree": r["tree"], "volume": r["volume"], "expected": want_e})
        if not r["hull_agrees"]:
            raise CheckFailure({"tree": r["tree"], "hull_agrees": False})
    if len(polys) != 1:
        raise CheckFailure({"ehrhart_polynomials": sorted(polys)})
    return {
        "leaves": args.leaves,
        "shapes": len(rows),
        "vertices": want_f,
        "volume": want_e,
        "ehrhart_identical": True,
        "trees": rows,
    }


# -- argument plumbing --------------------------------------------------------------


def _add_common(sub, tree_input=True):
    if tree_input:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--tree", help="Newick string, e.g. '(((1,2),(3,4)),5);'")
        group.add_argument("--leaves", type=int, help="run over all shapes on n leaves")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cfnmc",
        description="Toric geometry of the clocked two-state model on rooted binary trees",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("vertices", help="top-vectors and the Fibonacci count")
    _add_common(s)
    s.set_defaults(fn=cmd_vertices)

    s = sub.add_parser("facets", help="closed-form facets of the model polytope")
    _add_common(s)
    s.add_argument("--verify-hull", action="store_true")
    s.set_defaults(fn=cmd_facets)

    s = sub.add_parser("rti-facets", help="facets of the mixed polytope for an order ideal")
    s.add_argument("--tree", required=True)
    s.add_argument("--ideal", required=True, help="comma-separated interior indices")
    s.add_argument("--verify-hull", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_rti_facets, leaves=None)

    s = sub.add_parser("ehrhart", help="dilate counts and the Ehrhart polynomial")
    _add_common(s)
    s.set_defaults(fn=cmd_ehrhart)

    s = sub.add_parser("volume", help="normalized volume and the zig-zag assertion")
    _add_common(s)
    s.set_defaults(fn=cmd_volume)

    s = sub.add_parser("gens", help="quadratic generating set with provenance")
    _add_common(s)
    s.set_defaults(fn=cmd_gens)

    s = sub.add_parser("groebner-check", help="marked S-pair certification")
    _add_common(s)
    s.set_defaults(fn=cmd_groebner_check)

    s = sub.add_parser("markov-check", help="fiber connectivity up to a degree cap")
    _add_common(s)
    s.add_argument("--degree", type=int, default=3)
    s.set_defaults(fn=cmd_markov_check)

    s = sub.add_parser("model-check", help="numeric vanishing of the invariants")
    _add_common(s)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-9)
    s.set_defaults(fn=cmd_model_check)

    s = sub.add_parser("nni-check", help="dilate counts across NNI moves")
    _add_common(s)
    s.add_argument("--dilate", type=int, default=2)
    s.set_defaults(fn=cmd_nni_check)

    s = sub.add_parser("survey", help="all shapes on n leaves: counts, volume, Ehrhart, hulls")
    s.add_argument("--leaves", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_survey, tree=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.fn(args)
    except CheckFailure as exc:
        sys.stderr.write("FAIL " + json.dumps(exc.payload, sort_keys=True) + "\n")
        return 1
    except (NewickError, TreeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
