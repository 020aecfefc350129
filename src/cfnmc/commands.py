"""The subcommands of the ``cfnmc`` command line and their output.

``cli.main`` imports this module only once a command line has parsed, and
calls ``cmd_<name>`` for the subcommand ``<name>``, a dash read as an
underscore.  Each command returns its payload or raises CheckFailure with a
minimal counterexample; _emit prints the payload.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

# Only the standard library is imported here: each command imports the
# layers it reads.


class CheckFailure(Exception):
    """An assertion failed; the message is the minimal counterexample,
    payload, as sorted JSON."""

    def __init__(self, payload):
        super().__init__(json.dumps(payload, sort_keys=True))


def _emit(args, payload: dict) -> None:
    """Print payload, as JSON with --json and as indented lines without.

    A payload value may be a lazy iterator, which prints as the list it
    yields.  The JSON is json.dumps(payload, sort_keys=True, indent=2) and a
    newline, written as it is encoded: each element of the payload and of
    its top-level containers goes through _dumps and straight to stdout, so
    no string of the whole document is built, and a lazy list's items are
    garbage once their text is written."""
    if args.json:
        _write(payload, sys.stdout.write)
        sys.stdout.write("\n")
    else:
        _human(payload)


def _write(value, write, pad: str = "\n", depth: int = 2) -> None:
    """write(_dumps(value, pad)) in pieces: a dict, list, tuple or iterator
    in the top depth levels is written one element at a time."""
    if depth and isinstance(value, dict):
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(value.items()))
        brackets = "{}"
    elif depth and isinstance(value, (list, tuple, Iterator)):
        items = (("", v) for v in value)
        brackets = "[]"
    else:
        write(_dumps(value, pad))
        return
    inner = pad + "  "
    sep = brackets[0] + inner
    for key, v in items:
        write(sep + key)
        _write(v, write, inner, depth - 1)
        sep = "," + inner
    write(pad + brackets[1] if sep[0] == "," else brackets)  # empty: "{}" or "[]"


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for str-keyed dicts, with
    pad the newline and indent of value's own line.  The indent makes json
    use its pure-Python encoder; this writes the same text with only
    non-string scalars going to json.  Strings are encoded in place: a
    dict's string values inline, and a list of strings only in one join."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = (
            encode_basestring_ascii(k)
            + ": "
            + (encode_basestring_ascii(v) if isinstance(v, str) else _dumps(v, inner))
            for k, v in sorted(value.items())
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if all(isinstance(v, str) for v in value):
            items = map(encode_basestring_ascii, value)
        else:
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
        elif isinstance(value, (list, Iterator)):
            items = iter(value)
            head = list(islice(items, 1))
            if not (head and isinstance(head[0], (dict, list))):
                print(f"{pad}{key}: {head + list(items)}")
                continue
            print(f"{pad}{key}:")
            for item in chain(head, items):
                if isinstance(item, dict):
                    print(f"{pad}  -")
                    _human(item, indent + 2)
                else:
                    print(f"{pad}  - {item}")
        else:
            print(f"{pad}{key}: {value}")


# Leaf budget of ``ehrhart`` and ``volume``: the tree pass counts every
# dilate of a 12-leaf shape in milliseconds.  Every other command keeps
# MAX_LEAVES.
COUNT_MAX_LEAVES = 12


def _trees_for(args, max_leaves: int | None = None) -> list:
    """The requested trees; ``max_leaves`` is the command's leaf budget,
    MAX_LEAVES when not given."""
    from .tree import MAX_LEAVES, TreeError, enumerate_topologies, parse_newick

    if max_leaves is None:
        max_leaves = MAX_LEAVES
    if args.tree is not None:
        tree = parse_newick(args.tree)
        if tree.n_leaves > max_leaves:
            raise TreeError(
                f"--tree has {tree.n_leaves} leaves, at most {max_leaves} allowed"
            )
        return [tree]
    return enumerate_topologies(args.leaves, max_leaves)


# -- subcommands -----------------------------------------------------------------


def cmd_vertices(args) -> dict:
    from . import ehrhart as eh
    from .paths import enumerate_topsets, topset_key

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
    from . import polytope as pt

    out = []
    for tree in _trees_for(args):
        P = pt.build_RT(tree)
        entry = {"tree": tree.to_newick(), "polytope": P.to_json_dict()}
        out.append(_verify_hull(args, tree, P, entry))
    return {"trees": out}


def _verify_hull(args, tree, P, entry: dict) -> dict:
    """With --verify-hull, record whether the closed-form facets equal the
    hull oracle's in entry, and fail the check when they do not."""
    from . import polytope as pt

    if args.verify_hull:
        entry["hull_agrees"] = pt.h_reps_match(P)
        if not entry["hull_agrees"]:
            raise CheckFailure({"tree": tree.to_newick(), "hull_agrees": False})
    return entry


def _parse_ideal(tree, spec: str) -> frozenset:
    from .tree import NewickError

    if spec.strip() == "":
        return frozenset()
    try:
        idxs = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise NewickError(f"bad --ideal list {spec!r}") from exc
    return frozenset(tree.node_at_index(i) for i in idxs)


def cmd_rti_facets(args) -> dict:
    from . import polytope as pt

    (tree,) = _trees_for(args)
    ideal = _parse_ideal(tree, args.ideal)
    P = pt.build_RTI(tree, ideal)
    entry = {"tree": tree.to_newick(), "ideal": sorted(
        tree.interior_index(v) for v in ideal
    ), "polytope": P.to_json_dict()}
    return _verify_hull(args, tree, P, entry)


def cmd_ehrhart(args) -> dict:
    from . import ehrhart as eh

    out = []
    for tree in _trees_for(args, COUNT_MAX_LEAVES):
        poly = eh.ehrhart_polynomial(tree)
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
    from . import ehrhart as eh

    out = []
    for tree in _trees_for(args, COUNT_MAX_LEAVES):
        vol = eh.normalized_volume(tree)
        want = eh.euler_zigzag(tree.n_leaves - 1)
        if vol != want:
            raise CheckFailure(
                {"tree": tree.to_newick(), "volume": vol, "expected": want}
            )
        out.append({"tree": tree.to_newick(), "volume": vol, "euler_zigzag": want})
    return {"trees": out}


def cmd_gens(args) -> dict:
    """Each tree's entry is built only as it is printed.  _trees_for raises
    every malformed-input error, so nothing is printed before one."""
    from . import ideal as id_

    def entry(tree) -> dict:
        gens, order = id_.construct_generators(tree)
        return {
            "tree": tree.to_newick(),
            "generators": [g.to_json_dict() for g in gens],
            "reduced": id_.reducedness_report(gens)["reduced"],
            "order": {
                "block_kind": order.block_kind,
                "block_tag": dict(sorted(order.block_tag.items())),
                "weight": {k: str(v) for k, v in sorted(order.weight.items())},
            },
        }

    return {"trees": map(entry, _trees_for(args))}


def cmd_groebner_check(args) -> dict:
    from . import ehrhart as eh
    from . import ideal as id_

    out = []
    for tree in _trees_for(args):
        M = id_.build_matrix(tree)
        gens, order = id_.construct_generators(tree)
        if not id_.groebner_verify(M, gens, order, eh.normalized_volume(tree)):
            sq = all(g.initial_squarefree() for g in gens)
            raise CheckFailure({"tree": tree.to_newick(), "groebner": False, "squarefree": sq})
        out.append(
            {"tree": tree.to_newick(), "generators": len(gens), "groebner": True}
        )
    return {"trees": out}


def cmd_markov_check(args) -> dict:
    from . import ideal as id_
    from .tree import TreeError

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
    from . import ideal as id_
    from . import model as md
    from .tree import TreeError

    if args.samples < 1:
        raise TreeError("--samples must be >= 1")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise TreeError("--tol must be finite and >= 0")
    out = []
    for tree in _trees_for(args):
        gens, _ = id_.construct_generators(tree)
        try:
            report = md.invariant_check(
                tree, gens, samples=args.samples, seed=args.seed, tol=args.tol
            )
        except md.TransformError as exc:
            raise CheckFailure({"tree": tree.to_newick(), "tol": args.tol, **exc.detail})
        report["tree"] = tree.to_newick()
        if not report["pass"]:
            worst = max(report["binomials"], key=lambda b: b["max_residual"], default=None)
            raise CheckFailure({"tree": tree.to_newick(), "worst": worst})
        out.append(report)
    if not any(report["binomials"] for report in out):
        raise TreeError("no binomial to check: no requested tree has a generator")
    return {"trees": out}


def cmd_nni_check(args) -> dict:
    from . import ehrhart as eh
    from .paths import enumerate_topsets, vertex_bijection
    from .tree import TreeError, apply_nni, nni_triples

    if args.dilate < 1:
        raise TreeError("--dilate must be >= 1")
    out = []
    memo = {}
    for tree in _trees_for(args):
        triples = nni_triples(tree)
        bound = tree.n_leaves - 1
        if triples and args.dilate > bound:
            raise TreeError(
                f"--dilate must be <= n - 1 = {bound} for {tree.to_newick()}: "
                f"the counts at m = 1..{bound} fix both Ehrhart polynomials, "
                f"of degree {bound}"
            )
        for triple in triples:
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
    if not out:
        raise TreeError("no NNI move to check: no requested tree has one")
    return {"pairs": out}


def cmd_survey(args) -> dict:
    from . import ehrhart as eh
    from . import polytope as pt
    from .tree import enumerate_topologies

    trees = enumerate_topologies(args.leaves)
    want_f = eh.fibonacci(args.leaves)
    want_e = eh.euler_zigzag(args.leaves - 1)

    def one(tree):
        P = pt.build_RT(tree)
        poly = eh.ehrhart_polynomial(tree)
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
