"""Tails, combinatorial and essential skeleta, the canonical-form
locus, and the potential-theoretic witness constructions.

A tail is a chain of genus-0 vertices ending in a 1-valent one; a
maximal tail starts at a vertex of valency at least 3 or of positive
genus.  The combinatorial skeleton contracts every maximal tail to its
starting point, exactly once.  For the minimal model of a curve of
positive total genus this computes the essential skeleton.

The witness constructions realize, by exact chip-firing and Poisson
solving, the effective divisors whose associated tropical functions
have as minimum locus a prescribed fundamental cycle (``witness_cycle``,
D ~ K) or a maximal bridge chain (``witness_bridge_chain``, D ~ 2K).
Both check their inputs and then run one recipe, ``_witness``: a point
in the interior of the non-tree edges (plus K - (v1) - (v2) for a
chain), completed to an effective D ~ mK by a q-reduced divisor, the
Poisson solution of div(f) = D - mK, and the lemma that pins min_locus(f).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

from .divisors import GraphDivisor
from .errors import GraphStructureError, PipelineError, SkelgraphError
from .graphs import (
    VertexLabel,
    WeightedDualGraph,
    curve_genus,
    graph_genus,
)
from .loci import SubgraphLocus, union_loci, vertex_locus
from .plfunction import PLFunction
from .potential import (
    BridgeChain,
    bridges,
    canonical_divisor,
    check_bridge_lemma,
    check_min_locus_lemma,
    is_spanning_tree,
    maximal_bridge_chains,
    reduce_divisor,
    solve_poisson,
    spanning_tree,
)


# -- tails and skeleta ---------------------------------------------------------


def find_maximal_tails(graph: WeightedDualGraph) -> list[tuple[str, ...]]:
    """All maximal tails, each reported starting-point first.  Rays are
    ignored for valency; the graph must be loop-free."""
    if not graph.is_loop_free():
        raise GraphStructureError("tails are defined on loop-free graphs")

    def val(v):
        return graph.valency(v, include_rays=False)

    tails = []
    for v in graph.vertex_ids:
        if val(v) != 1 or graph.vertex(v).genus != 0:
            continue
        chain = [v]
        prev_edge = graph.edges_at(v)[0]
        cur = prev_edge.b if prev_edge.a == v else prev_edge.a
        while val(cur) == 2 and graph.vertex(cur).genus == 0:
            chain.append(cur)
            nxt = next(e for e in graph.edges_at(cur) if e.id != prev_edge.id)
            prev_edge = nxt
            cur = nxt.b if nxt.a == cur else nxt.a
        if val(cur) >= 3 or graph.vertex(cur).genus > 0:
            tails.append(tuple([cur] + list(reversed(chain))))
    return tails


def combinatorial_skeleton(graph: WeightedDualGraph) -> WeightedDualGraph:
    """Contract every maximal tail of the input to its starting point,
    exactly once; tails created by the contraction are kept."""
    tails = find_maximal_tails(graph)
    removed = set()
    for tail in tails:
        removed.update(tail[1:])
    if not removed:
        return graph
    survivors = [v for v in graph.vertices if v.id not in removed]
    for r in graph.rays:
        if r.attach in removed:
            raise GraphStructureError(
                f"ray {r.label!r} attaches to the contracted vertex {r.attach!r}")
    edges = [e for e in graph.edges if e.a not in removed and e.b not in removed]
    return graph.replace(vertices=survivors, edges=edges)


def _lint_minimality(graph: WeightedDualGraph) -> None:
    """Warn on genus-0 leaves that look like contractible exceptional
    components: a leaf whose single neighbour has the same multiplicity
    has self-intersection -1, so the model is presumably not minimal."""
    for v in graph.vertices:
        if v.genus != 0 or graph.valency(v.id, include_rays=False) != 1:
            continue
        e = graph.edges_at(v.id)[0]
        other = e.b if e.a == v.id else e.a
        if graph.vertex(other).multiplicity == v.multiplicity:
            warnings.warn(
                f"leaf {v.id!r} looks like a contractible exceptional "
                "component; is this really the minimal model?",
                stacklevel=3,
            )


def essential_skeleton(graph: WeightedDualGraph) -> WeightedDualGraph:
    """The combinatorial skeleton of the minimal model's dual graph.

    The input is assumed to be the dual graph of the minimal model; a
    warning is emitted when a leaf pattern suggests otherwise.  The
    total genus must be positive.  When the input has no tails, the
    result is the input itself."""
    if curve_genus(graph) < 1:
        raise GraphStructureError(
            "essential skeleton needs a curve of genus >= 1; "
            f"the graph models genus {curve_genus(graph)}"
        )
    _lint_minimality(graph)
    return combinatorial_skeleton(graph)


def canonical_form_locus(graph: WeightedDualGraph) -> SubgraphLocus:
    """Union of all closed non-bridge edges and all positive-genus
    vertices of a reduced, loop-free, minimal-semistable-shaped graph."""
    if not graph.is_reduced():
        raise GraphStructureError("canonical-form locus is defined for reduced graphs")
    if not graph.is_loop_free():
        raise GraphStructureError("canonical-form locus needs a loop-free graph")
    if graph_genus(graph) < 1:
        raise GraphStructureError("canonical-form locus needs total genus >= 1")
    for v in graph.vertices:
        if v.genus == 0 and graph.valency(v.id, include_rays=False) == 1:
            raise GraphStructureError(
                f"1-valent genus-0 vertex {v.id!r}: not the shape of a minimal "
                "semistable model"
            )
    cut_edges = bridges(graph)
    non_bridges = [e.id for e in graph.edges if e.id not in cut_edges]
    vertices = set()
    for eid in non_bridges:
        e = graph.edge(eid)
        vertices.update((e.a, e.b))
    vertices.update(v.id for v in graph.vertices if v.genus > 0)
    return SubgraphLocus(graph, vertices=vertices, whole_edges=non_bridges)


def strip_genus(graph: WeightedDualGraph) -> WeightedDualGraph:
    """Forget the vertex genera (for running the genus-free witness
    machinery on the underlying metric graph): a new derived view of the
    graph on every call, which shares its edges, rays and kept values
    (see ``WeightedDualGraph._derive``)."""
    return graph._derive({v: VertexLabel(v, x.multiplicity, 0)
                          for v, x in graph._vertices.items()},
                         graph.rays, graph.pair_model)


# -- witnesses -------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessBundle:
    tree: frozenset[str]
    divisor: GraphDivisor
    function: PLFunction
    locus: SubgraphLocus


def _require_maximally_degenerate(graph: WeightedDualGraph, what: str) -> None:
    if not graph.is_maximally_degenerate():
        raise GraphStructureError(
            f"{what} needs a maximally degenerate graph "
            "(reduced, all genera zero, loop-free)"
        )


def _witness(graph, T, skip, mK, fixed, q, lemma, what) -> WitnessBundle:
    """The recipe both witnesses run: D = D0 + E, where D0 is ``fixed``
    plus the midpoints of the non-tree edges but ``skip`` and E is the
    q-reduced form of mK - D0, at the graph's own point of vertex q; f
    solves div(f) = D - mK, checked by lemma."""
    q = graph._vertex_points()[q]
    D0 = GraphDivisor({graph.midpoint(e.id): 1 for e in graph.edges
                       if e.id not in T and e.id != skip}) + fixed
    E, _ = reduce_divisor(graph, mK - D0, q)
    if not E.is_effective():
        raise PipelineError(f"no effective representative: reduced divisor is {E}")
    D = D0 + E
    f = solve_poisson(graph, mK - D, anchor=q)
    report = lemma(D, f)
    if not report:
        raise PipelineError(f"{what}: hypotheses {report.failed_hypotheses}, "
                            f"conclusion {report.conclusion_holds}")
    return WitnessBundle(tree=T, divisor=D, function=f, locus=report.computed_locus)


def witness_cycle(graph: WeightedDualGraph, eid: str,
                  tree: Optional[Iterable[str]] = None) -> WitnessBundle:
    """Construct (T, D, f) realizing the fundamental cycle Z(T, e) as a
    minimum locus: D is effective, equivalent to K, and carries a point
    in the interior of every non-tree edge other than e; f solves
    div(f) = D - K.  Asserts min_locus(f) = Z(T, e); a given T must
    span, and is checked in the order given."""
    _require_maximally_degenerate(graph, "witness_cycle")
    if eid in bridges(graph):
        raise GraphStructureError(f"edge {eid!r} is a bridge; no cycle contains it")
    if tree is not None and iter(tree) is tree:  # an iterator, read once
        tree = tuple(tree)
    T = frozenset(tree) if tree is not None else spanning_tree(graph, avoid=[eid])
    if eid in T:
        raise GraphStructureError(f"the spanning tree must avoid {eid!r}")
    if tree is not None and not is_spanning_tree(graph, tree):
        raise GraphStructureError(f"tree {sorted(T)} is not a spanning tree")
    return _witness(graph, T, eid, canonical_divisor(graph, 1), GraphDivisor(),
                    graph.edge(eid).a,
                    lambda D, f: check_min_locus_lemma(graph, T, eid, D, f),
                    f"cycle witness failed for {eid!r}")


def witness_bridge_chain(graph: WeightedDualGraph,
                         chain: Optional[BridgeChain] = None,
                         tree: Optional[Iterable[str]] = None) -> WitnessBundle:
    """Construct (T, D, f) realizing a maximal bridge chain B as a
    minimum locus: D is effective, equivalent to 2K, dominates
    K - (v1) - (v2), and has a point in the interior of every non-tree
    edge; f solves div(f) = D - 2K.  Asserts min_locus(f) = B; a given
    T must span, and is checked in the order given."""
    _require_maximally_degenerate(graph, "witness_bridge_chain")
    g = graph_genus(graph)
    if g <= 1:
        raise GraphStructureError(
            f"genus {g}: a genus-one skeleton is a cycle and has no bridges")
    if any(graph.valency(v, include_rays=False) == 1 for v in graph.vertex_ids):
        raise GraphStructureError("witness_bridge_chain needs no 1-valent vertices")
    chains = maximal_bridge_chains(graph)
    if chain is None:
        if not chains:
            raise GraphStructureError("graph has no bridges")
        chain = chains[0]
    else:
        matched = [c for c in chains if set(chain.edges) == set(c.edges)
                   and set(chain.endpoints) == set(c.endpoints)]
        if not matched:
            raise GraphStructureError(f"{chain} is not a maximal bridge chain here")
        chain = matched[0]

    # K(v) = val(v) - 2 here, and a maximal chain's endpoints are
    # distinct and of valency >= 3, so D1 is effective
    if tree is not None and iter(tree) is tree:  # an iterator, read once
        tree = tuple(tree)
    T = frozenset(tree) if tree is not None else spanning_tree(graph)
    if tree is not None and not is_spanning_tree(graph, tree):
        raise GraphStructureError(f"tree {sorted(T)} is not a spanning tree")
    K = canonical_divisor(graph, 1)
    v1, v2 = chain.endpoints
    D1 = K - GraphDivisor.at(v1) - GraphDivisor.at(v2)
    return _witness(graph, T, None, 2 * K, D1, v1,
                    lambda D, f: check_bridge_lemma(graph, chain, T, D, f),
                    f"bridge witness failed for {chain.edges}")


@dataclass(frozen=True)
class CanonicalLocusReport:
    ok: bool
    expected: SubgraphLocus
    witness_union: SubgraphLocus
    failed_edge: Optional[str] = None
    error: Optional[SkelgraphError] = None


def verify_canonical_locus(graph: WeightedDualGraph) -> CanonicalLocusReport:
    """Compare the canonical-form locus with the union of the genus
    vertices and the witness_cycle loci of the non-bridge edges of the
    genus-stripped graph; the first failed witness stops the check."""
    expected = canonical_form_locus(graph)
    work = strip_genus(graph)
    loci = [vertex_locus(work, *(v.id for v in graph.vertices if v.genus > 0))]
    failed_edge = error = None
    cut_edges = bridges(work)
    for eid in sorted(e.id for e in work.edges if e.id not in cut_edges):
        try:
            loci.append(witness_cycle(work, eid).locus)
        except SkelgraphError as exc:
            failed_edge, error = eid, exc
            break
    union = union_loci(work, loci)
    return CanonicalLocusReport(ok=error is None and union == expected,
                                expected=expected, witness_union=union,
                                failed_edge=failed_edge, error=error)
