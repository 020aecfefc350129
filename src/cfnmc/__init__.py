"""Toric geometry of the two-state molecular-clock model on rooted binary trees.

The package builds the polytope of top-vectors of a tree, its facet
description, Ehrhart data, the quadratic Gröbner basis of the associated
toric ideal, and numeric checks that the binomials vanish on the probability
model.  See the README for the CLI.

``import cfnmc`` loads no layer.  The public names below resolve on first
access: ``cfnmc.X`` or ``from cfnmc import X`` imports the one submodule
that defines X.
"""

from importlib import import_module

_NAMES = {
    "ehrhart": "EhrhartPolynomial count_lattice_points df_compression_audit"
    " ehrhart_polynomial euler_zigzag fibonacci nni_count_check normalized_volume",
    "ideal": "LiftableOrder MarkedBinomial ToricMatrix build_matrix"
    " construct_generators fiber_connectivity groebner_verify kernel_member",
    "model": "ClockParams FourierPoint LeafDistribution TransformError"
    " fourier_transform invariant_check leaf_distribution sample_clock_params",
    "paths": "classify_maintaining enumerate_topsets is_blocked"
    " is_valid_top_vector path_systems traversability",
    "polytope": "Inequality Polytope build_RT build_RTI facets_RTI",
    "tree": "Cluster LeafMasks NewickError NniTriple RootedBinaryTree TreeError"
    " apply_nni enumerate_clusters enumerate_topologies parse_newick",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
