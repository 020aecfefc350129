"""Command-line front end: the parser and the dispatch to ``commands``.

Exit codes: 0 all assertions passed, 1 an assertion failed (a minimal
counterexample is printed), 2 malformed input, 141 (128 + SIGPIPE) the
reader closed stdout before the output was written.  --json emits
deterministic machine output; identical requests print byte-identical JSON.

The command bodies, in ``cfnmc.commands``, load only after the command line
has parsed, so --help and a command line argparse rejects load neither
them nor any layer.
"""

from __future__ import annotations

import argparse
import os
import sys


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

    s = sub.add_parser("facets", help="closed-form facets of the model polytope")
    _add_common(s)
    s.add_argument("--verify-hull", action="store_true")

    s = sub.add_parser("rti-facets", help="facets of the mixed polytope for an order ideal")
    s.add_argument("--tree", required=True)
    s.add_argument("--ideal", required=True, help="comma-separated interior indices")
    s.add_argument("--verify-hull", action="store_true")
    s.add_argument("--json", action="store_true")
    s.set_defaults(leaves=None)

    s = sub.add_parser("ehrhart", help="dilate counts and the Ehrhart polynomial")
    _add_common(s)

    s = sub.add_parser("volume", help="normalized volume and the zig-zag assertion")
    _add_common(s)

    s = sub.add_parser("gens", help="quadratic generating set with provenance")
    _add_common(s)

    s = sub.add_parser("groebner-check", help="Groebner basis certified by counting facets")
    _add_common(s)

    s = sub.add_parser("markov-check", help="fiber connectivity up to a degree cap")
    _add_common(s)
    s.add_argument("--degree", type=int, default=3)

    s = sub.add_parser("model-check", help="numeric vanishing of the invariants")
    _add_common(s)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--tol", type=float, default=1e-9)

    s = sub.add_parser("nni-check", help="dilate counts across NNI moves")
    _add_common(s)
    s.add_argument("--dilate", type=int, default=2)

    s = sub.add_parser("survey", help="all shapes on n leaves: counts, volume, Ehrhart, hulls")
    s.add_argument("--leaves", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(tree=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import commands

    try:
        payload = getattr(commands, "cmd_" + args.command.replace("-", "_"))(args)
    except commands.CheckFailure as exc:
        sys.stderr.write(f"FAIL {exc}\n")
        return 1
    except ValueError as exc:  # NewickError and TreeError among them
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        commands._emit(args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at devnull, as the signal module's
        # docs advise, so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
