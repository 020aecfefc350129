"""Toric geometry of the two-state molecular-clock model on rooted binary trees.

The package builds the polytope of top-vectors of a tree, its facet
description, Ehrhart data, the quadratic Gröbner basis of the associated
toric ideal, and numeric checks that the binomials vanish on the probability
model.  See the README for the CLI.
"""

from .ehrhart import (
    EhrhartPolynomial,
    count_lattice_points,
    df_compression_audit,
    ehrhart_polynomial,
    euler_zigzag,
    fibonacci,
    nni_count_check,
    normalized_volume,
)
from .ideal import (
    LiftableOrder,
    MarkedBinomial,
    ToricMatrix,
    build_matrix,
    construct_generators,
    fiber_connectivity,
    groebner_verify,
    kernel_member,
)
from .model import (
    ClockParams,
    FourierPoint,
    LeafDistribution,
    TransformError,
    fourier_transform,
    invariant_check,
    leaf_distribution,
    sample_clock_params,
)
from .paths import (
    classify_maintaining,
    enumerate_topsets,
    is_blocked,
    is_valid_top_vector,
    path_systems,
    traversability,
)
from .polytope import (
    Inequality,
    Polytope,
    build_RT,
    build_RTI,
    facets_RTI,
)
from .tree import (
    Cluster,
    LeafMasks,
    NewickError,
    NniTriple,
    RootedBinaryTree,
    TreeError,
    apply_nni,
    enumerate_clusters,
    enumerate_topologies,
    parse_newick,
)

__version__ = "0.1.0"
