"""Span tracing of cfnmc from outside the package, for the traced run.

``Tracer.install`` wraps every public module-level function of the layer
modules (methods are not wrapped) and ``cli.main``, the root span of each
job, and rebinds each wrapper under every name a ``cfnmc`` module holds it
by.  A span is ``[name, start, end, parent, note]``; spans stay in memory
and ``layer_metrics`` turns one round of them into the per-layer metrics.
A function the metrics name but the package lacks is reported by
``missing``; it only leaves its metrics at zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("tree", "paths", "polytope", "hull", "ehrhart", "ideal", "model")

ENUMERATE = ("paths.enumerate_topsets", "paths.enumerate_top_vectors")
PREDICATES = (
    "paths.is_valid_top_vector",
    "paths.is_blocked",
    "paths.traversability",
    "paths.classify_maintaining",
)
COUNT = ("ehrhart.count_lattice_points",)
NAMED = {
    "cli.main": ("cli.main",),
    "paths.enumerate": ENUMERATE,
    "paths.predicates": PREDICATES,
    "ehrhart.count": COUNT,
    "ehrhart.audit": ("ehrhart.df_compression_audit",),
    "ideal.construct": ("ideal.construct_generators",),
    "ideal.verify": ("ideal.groebner_verify",),
    "ideal.reducedness": ("ideal.reducedness_report",),
    "ideal.fiber": ("ideal.fiber_connectivity",),
    "model.leaf_distribution": ("model.leaf_distribution",),
    "model.fourier": ("model.fourier_transform",),
    "model.invariant": ("model.invariant_check",),
}

# Per-layer metric names and units, in the order they are reported.
METRICS = {
    "cli.self_s": "s",
    "tree.self_s": "s",
    "paths.self_s": "s",
    "paths.enumerate_s": "s",
    "paths.enumerate_calls": "count",
    "paths.enumerate_repeats": "count",
    "paths.predicates_s": "s",
    "polytope.self_s": "s",
    "hull.self_s": "s",
    "ehrhart.self_s": "s",
    "ehrhart.count_s": "s",
    "ehrhart.count_calls": "count",
    "ehrhart.count_repeats": "count",
    "ehrhart.points_per_s": "1/s",
    "ehrhart.audit_s": "s",
    "ideal.self_s": "s",
    "ideal.construct_s": "s",
    "ideal.verify_s": "s",
    "ideal.spairs_per_s": "1/s",
    "ideal.reducedness_s": "s",
    "ideal.fiber_s": "s",
    "model.self_s": "s",
    "model.leaf_distribution_s": "s",
    "model.fourier_s": "s",
    "model.samples_per_s": "1/s",
    "trace.overhead_s": "s",
}


def _tree_key(args, kwargs, result):
    tree = args[0] if args else kwargs["tree"]
    return (tree.to_newick(), tuple(tree.interior_nodes))


def _count_key(args, kwargs, result):
    poly = args[0] if args else kwargs["polytope"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return (repr(poly.facets), m), result


def _generator_count(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["gens"])


def _samples(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs.get("samples", 100)


# What each noted span records after it returns.
NOTES = {
    "paths.enumerate_topsets": _tree_key,
    "paths.enumerate_top_vectors": _tree_key,
    "ehrhart.count_lattice_points": _count_key,
    "ideal.groebner_verify": _generator_count,
    "model.invariant_check": _samples,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._rebound = []  # (module, attribute, original)

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules.get("cfnmc." + layer)
                for attr, fn in vars(mod).items() if mod else ():
                    if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                        self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            main = sys.modules["cfnmc.cli"].main
            self._wrappers[id(main)] = (main, self._wrap("cli.main", main))
        for modname, mod in list(sys.modules.items()):
            if modname != "cfnmc" and not modname.startswith("cfnmc."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def missing(self) -> list:
        have = {w.__qualname__ for _, w in self._wrappers.values()}
        need = {name for names in NAMED.values() for name in names}
        return sorted(need - have)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn):
        stack, clock, note = self._stack, time.perf_counter, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                try:
                    span[4] = note(args, kwargs, result)
                except Exception:  # a changed signature leaves the note empty, not the job failed
                    pass
            return result

        wrapper.__qualname__ = name
        return wrapper


def _outer_time(spans, names) -> float:
    """Total duration of spans named in ``names`` that no such span encloses."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0] in names
        if name in names and not inside[i]:
            total += end - start
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round of spans (all but trace.overhead_s)."""
    self_time = {}
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - children[i]

    job = [0] * len(spans)
    seen_trees, seen_counts = set(), set()
    enum_calls = enum_repeats = count_calls = count_repeats = points = pairs = samples = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        job[i] = i if parent < 0 else job[parent]
        if name in ENUMERATE:
            enum_calls += 1
            enum_repeats += (job[i], note) in seen_trees
            seen_trees.add((job[i], note))
        elif name in COUNT and note is not None:
            key, result = note
            count_calls += 1
            count_repeats += (job[i], key) in seen_counts
            seen_counts.add((job[i], key))
            points += result
        elif name == "ideal.groebner_verify" and note is not None:
            pairs += note * (note + 1) // 2
        elif name == "model.invariant_check" and note is not None:
            samples += note

    t = {key: _outer_time(spans, set(names)) for key, names in NAMED.items()}
    out = {f"{layer}.self_s": self_time.get(layer, 0.0) for layer in ("cli",) + LAYERS}
    out.update(
        {
            "paths.enumerate_s": t["paths.enumerate"],
            "paths.enumerate_calls": enum_calls,
            "paths.enumerate_repeats": enum_repeats,
            "paths.predicates_s": t["paths.predicates"],
            "ehrhart.count_s": t["ehrhart.count"],
            "ehrhart.count_calls": count_calls,
            "ehrhart.count_repeats": count_repeats,
            "ehrhart.points_per_s": points / t["ehrhart.count"] if t["ehrhart.count"] else 0.0,
            "ehrhart.audit_s": t["ehrhart.audit"],
            "ideal.construct_s": t["ideal.construct"],
            "ideal.verify_s": t["ideal.verify"],
            "ideal.spairs_per_s": pairs / t["ideal.verify"] if t["ideal.verify"] else 0.0,
            "ideal.reducedness_s": t["ideal.reducedness"],
            "ideal.fiber_s": t["ideal.fiber"],
            "model.leaf_distribution_s": t["model.leaf_distribution"],
            "model.fourier_s": t["model.fourier"],
            "model.samples_per_s": samples / t["model.invariant"] if t["model.invariant"] else 0.0,
        }
    )
    return out


def write_spans(path, spans) -> None:
    """First line: the span names.  Then one JSON array per span: name
    index, start and end in microseconds from the first span, parent index."""
    names = sorted({s[0] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps(names) + "\n")
        for name, start, end, parent, _ in spans:
            fh.write(f"[{index[name]},{round((start - t0) * 1e6)},{round((end - t0) * 1e6)},{parent}]\n")
