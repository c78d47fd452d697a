"""Tails, combinatorial and essential skeleta, the canonical-form
locus, and the potential-theoretic witness constructions.

A tail is a chain of genus-0 vertices, 2-valent but for its 1-valent
end (rays ignored); a maximal tail starts at a vertex of valency at
least 3 or of positive genus.  ``find_maximal_tails`` walks each from
its leaf with ``graphs._bivalent_run``, the walk that
``potential.maximal_bridge_chains`` runs along bridges.  The
combinatorial skeleton contracts every maximal tail to its starting
point, exactly once.  For the minimal model of a curve of positive
genus this computes the essential skeleton; at such a genus every
genus-0 leaf ends a maximal tail, so the minimality lint and the
canonical-form locus read their leaves off ``find_maximal_tails``.

The witness constructions realize, by exact chip-firing and Poisson
solving, the effective divisors whose associated tropical functions
have as minimum locus a prescribed fundamental cycle (``witness_cycle``,
D ~ K) or a maximal bridge chain (``witness_bridge_chain``, D ~ 2K).
Both check their inputs and then run one recipe, ``_witness``, which
reads and checks a given tree once: a point in the interior of the
non-tree edges (plus K - (v1) - (v2) for a chain), completed to an
effective D ~ mK by a q-reduced divisor, the Poisson solution of
div(f) = D - mK, and the lemma that pins min_locus(f).
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
    _bivalent_run,
    curve_genus,
    graph_genus,
)
from .loci import SubgraphLocus, union_loci, vertex_locus
from .plfunction import PLFunction
from .potential import (
    BridgeChain,
    _edge_set,
    _kept_tree,
    _maximal_chain,
    bridges,
    canonical_divisor,
    check_bridge_lemma,
    check_min_locus_lemma,
    maximal_bridge_chains,
    reduce_divisor,
    solve_poisson,
    spanning_tree,
)


# -- tails and skeleta ---------------------------------------------------------


def find_maximal_tails(graph: WeightedDualGraph) -> list[tuple[str, ...]]:
    """All maximal tails, in their leaves' order, each reported from its
    starting point.  Rays are ignored for valency; the graph must be loop-free."""
    if not graph.is_loop_free():
        raise GraphStructureError("tails are defined on loop-free graphs")

    tails = []
    for v in graph.vertex_ids:
        if graph.valency(v, include_rays=False) == 1 and graph.vertex(v).genus == 0:
            passed, _, end = _bivalent_run(graph, v, graph.edges_at(v)[0],
                                           lambda w: graph.vertex(w).genus == 0)
            if graph.valency(end, include_rays=False) >= 3 or graph.vertex(end).genus > 0:
                tails.append((end, *reversed(passed), v))
    return tails


def combinatorial_skeleton(graph: WeightedDualGraph) -> WeightedDualGraph:
    """Contract every maximal tail of the input to its starting point,
    exactly once; tails created by the contraction are kept."""
    return _contract_tails(graph, find_maximal_tails(graph))


def _contract_tails(graph: WeightedDualGraph,
                    tails: list[tuple[str, ...]]) -> WeightedDualGraph:
    """The graph with each of its maximal ``tails`` (as
    ``find_maximal_tails`` gives them) contracted to its starting point;
    the graph itself when there are none."""
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


def _lint_minimality(graph: WeightedDualGraph, tails: list[tuple[str, ...]]) -> None:
    """Warn on genus-0 leaves that look like contractible exceptional
    components (a leaf whose single neighbour has the same multiplicity
    has self-intersection -1), reading each leaf off the graph's maximal
    ``tails``.  At curve genus >= 1 each genus-0 leaf ends a maximal
    tail; else the graph would be a genus-0 path, of curve genus
    1 - (N_first + N_last)/2 <= 0."""
    for *_, other, leaf in tails:
        if graph.vertex(other).multiplicity == graph.vertex(leaf).multiplicity:
            warnings.warn(
                f"leaf {leaf!r} looks like a contractible exceptional "
                "component; is this really the minimal model?",
                stacklevel=3,
            )


def essential_skeleton(graph: WeightedDualGraph) -> WeightedDualGraph:
    """The combinatorial skeleton of the minimal model's dual graph.

    The input is assumed to be the dual graph of the minimal model; a
    warning is emitted when a leaf pattern suggests otherwise.  The
    total genus must be positive.  When the input has no tails, the
    result is the input itself.  The maximal tails are found once, for
    both the warning and the contraction."""
    genus = curve_genus(graph)
    if genus < 1:
        raise GraphStructureError(
            "essential skeleton needs a curve of genus >= 1; "
            f"the graph models genus {genus}"
        )
    tails = find_maximal_tails(graph)
    _lint_minimality(graph, tails)
    return _contract_tails(graph, tails)


def canonical_form_locus(graph: WeightedDualGraph) -> SubgraphLocus:
    """Union of all closed non-bridge edges and all positive-genus
    vertices of a reduced, loop-free, minimal-semistable-shaped graph.
    A genus-0 leaf is refused; each ends a maximal tail, as curve genus
    = graph genus >= 1 here (see ``_lint_minimality``)."""
    if not graph.is_reduced():
        raise GraphStructureError("canonical-form locus is defined for reduced graphs")
    if not graph.is_loop_free():
        raise GraphStructureError("canonical-form locus needs a loop-free graph")
    if graph_genus(graph) < 1:
        raise GraphStructureError("canonical-form locus needs total genus >= 1")
    tails = find_maximal_tails(graph)
    if tails:
        raise GraphStructureError(
            f"1-valent genus-0 vertex {tails[0][-1]!r}: not the shape of a minimal "
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


def _witness(graph, tree, skip, mK, fixed, q, lemma, what) -> WitnessBundle:
    """The recipe both witnesses run.  T is the given ``tree``, read by
    ``_edge_set``, which must avoid ``skip`` and span, or else the
    spanning tree that avoids ``skip``.  D = D0 + E, where D0 is
    ``fixed`` plus the midpoints of the non-tree edges but ``skip`` and
    E is the q-reduced form of mK - D0, at the graph's own point of
    vertex q; f solves div(f) = D - mK, checked by ``lemma(T, D, f)``."""
    if tree is None:
        T = spanning_tree(graph, avoid=() if skip is None else (skip,))
    else:
        T = _edge_set(graph, tree)
        if skip in T:
            raise GraphStructureError(f"the spanning tree must avoid {skip!r}")
        if not _kept_tree(graph, T):
            raise GraphStructureError(f"tree {sorted(T)} is not a spanning tree")
    q = graph._vertex_points()[q]
    D0 = GraphDivisor({graph.midpoint(e.id): 1 for e in graph.edges
                       if e.id not in T and e.id != skip}) + fixed
    E, _ = reduce_divisor(graph, mK - D0, q)
    if not E.is_effective():
        raise PipelineError(f"no effective representative: reduced divisor is {E}")
    D = D0 + E
    f = solve_poisson(graph, mK - D, anchor=q)
    report = lemma(T, D, f)
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
    avoid e and span (see ``_witness``)."""
    _require_maximally_degenerate(graph, "witness_cycle")
    graph.edge(eid)
    if eid in bridges(graph):
        raise GraphStructureError(f"edge {eid!r} is a bridge; no cycle contains it")
    return _witness(graph, tree, eid, canonical_divisor(graph, 1), GraphDivisor(),
                    graph.edge(eid).a,
                    lambda T, D, f: check_min_locus_lemma(graph, T, eid, D, f),
                    f"cycle witness failed for {eid!r}")


def witness_bridge_chain(graph: WeightedDualGraph,
                         chain: Optional[BridgeChain] = None,
                         tree: Optional[Iterable[str]] = None) -> WitnessBundle:
    """Construct (T, D, f) realizing a maximal bridge chain B as a
    minimum locus: D is effective, equivalent to 2K, dominates
    K - (v1) - (v2), and has a point in the interior of every non-tree
    edge; f solves div(f) = D - 2K.  Asserts min_locus(f) = B; a given
    T must span (see ``_witness``)."""
    _require_maximally_degenerate(graph, "witness_bridge_chain")
    g = graph_genus(graph)
    if g <= 1:
        raise GraphStructureError(
            f"genus {g}: a genus-one skeleton is a cycle and has no bridges")
    if any(graph.valency(v, include_rays=False) == 1 for v in graph.vertex_ids):
        raise GraphStructureError("witness_bridge_chain needs no 1-valent vertices")
    if chain is None:
        chains = maximal_bridge_chains(graph)
        if not chains:
            raise GraphStructureError("graph has no bridges")
        chain = chains[0]
    else:
        matched = _maximal_chain(graph, chain)
        if matched is None:
            raise GraphStructureError(f"{chain} is not a maximal bridge chain here")
        chain = matched

    # K(v) = val(v) - 2 here, and a maximal chain's endpoints are
    # distinct and of valency >= 3, so D1 is effective
    K = canonical_divisor(graph, 1)
    v1, v2 = chain.endpoints
    D1 = K - GraphDivisor.at(v1) - GraphDivisor.at(v2)
    return _witness(graph, tree, None, 2 * K, D1, v1,
                    lambda T, D, f: check_bridge_lemma(graph, chain, T, D, f),
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
