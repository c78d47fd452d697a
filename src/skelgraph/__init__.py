"""Exact potential theory, weight functions and skeleta on weighted
dual graphs of degenerating curves over a discretely valued field."""

from .divisors import GraphDivisor
from .errors import (
    DegreeMismatchError,
    DivisorMismatchError,
    GraphStructureError,
    HorizontalEdgeError,
    InvalidPointError,
    LoopsPresentError,
    MinimumNotAttainedError,
    MissingDataError,
    NonIntegralError,
    PipelineError,
    SkelgraphError,
    UnknownElementError,
)
from .graphs import (
    Edge,
    GraphPoint,
    MetricKind,
    Ray,
    Refinement,
    VertexLabel,
    WeightedDualGraph,
    as_point,
    distance,
    curve_genus,
    graph_genus,
    refine,
    resolve_loops,
    subdivide_edge_at,
    vertex_distances,
)
from .loci import SubgraphLocus, full_locus, union_loci, vertex_locus
from .models import (
    BlowUpStep,
    InvarianceReport,
    apply_blowups,
    base_change_subdivide,
    blow_up_interior_point,
    blow_up_node,
    verify_metric_invariance,
)
from .plfunction import PLFunction, differ_by_constant
from .potential import (
    BridgeChain,
    LemmaReport,
    all_spanning_trees,
    bridges,
    canonical_divisor,
    check_bridge_lemma,
    check_min_locus_lemma,
    div,
    fundamental_cycle,
    is_spanning_tree,
    laplacian,
    maximal_bridge_chains,
    min_locus,
    reduce_divisor,
    solve_poisson,
    spanning_tree,
)
from .skeleton import (
    CanonicalLocusReport,
    WitnessBundle,
    canonical_form_locus,
    combinatorial_skeleton,
    essential_skeleton,
    find_maximal_tails,
    strip_genus,
    verify_canonical_locus,
    witness_bridge_chain,
    witness_cycle,
)
from .weight import (
    LaplacianReport,
    PluricanonicalModelData,
    blow_up_interior_with_data,
    blow_up_node_with_data,
    ks_skeleton,
    pushforward_divisor,
    verify_laplacian_theorem,
    weight_function,
)
from . import fixtures, sampling

__version__ = "0.1.0"
