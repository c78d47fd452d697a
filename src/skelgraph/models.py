"""Blow-up transformations of dual graphs and base-change subdivision.

A node blow-up inserts a genus-0 vertex of multiplicity N1+N2 on an
edge; the identity 1/(N1*N2) = 1/(N1*(N1+N2)) + 1/((N1+N2)*N2) keeps
the model metric intact.  An interior-point blow-up hangs a genus-0
leaf of the same multiplicity at model distance 1/N^2.  Base change of
degree n subdivides every edge of a reduced graph into n equal pieces,
keeping lengths in the original normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import GraphStructureError, LoopsPresentError, UnknownElementError
from .graphs import (
    Edge,
    MetricKind,
    VertexLabel,
    WeightedDualGraph,
    _series_reduction,
    distance,
    edge_position,
    formula_length,
    fresh_id,
    split_edges,
    vertex_distances,
)


def _blow_up(graph: WeightedDualGraph, steps: Iterable[tuple]):
    """Apply ``(op, target)`` steps to working lists of vertex labels and
    ``(a, b, length, kept)`` edges, then assemble the graph once from
    the checked parent.  Returns the graph and the ids of the new
    vertices, one per step.

    Each target is read against the evolving graph: a node blow-up
    replaces edge e{i} by two edges at positions i and i+1, so later
    edge ids shift by one, exactly as if the graph were rebuilt after
    every step.  No steps returns the input graph itself.

    The result is assembled without the constructor's checks
    (``WeightedDualGraph._assemble``), since every rule they check
    still holds: ``fresh_id`` makes each new id distinct and non-empty;
    each new label is made without ``VertexLabel``'s checks
    (``VertexLabel._trusted``), as its genus is 0 and its multiplicity
    is a copy or a sum of checked integers >= 1; each new edge
    joins two known ids, sorted, and takes the formula length; a node
    blow-up replaces an edge by a path through the new vertex and an
    interior blow-up hangs a leaf, so the graph stays connected; the
    rays and the multiplicities they attach to are unchanged, so a pair
    model's ray degrees still hold.  The checks of this function stay:
    the target, loops, the metric and explicit lengths.  The parent's
    Edge (``kept``) is reused where it stays at its own position, so its
    id, endpoints and length are unchanged; a new Edge goes at each new
    or shifted position.
    Nothing the parent keeps is shared, since edge ids shift."""
    steps = list(steps)
    if not steps:
        return graph, []
    created = []
    vertices = dict(graph._vertices)
    edges = [(e.a, e.b, e.length, e) for e in graph.edges]
    for op, target in steps:
        if op == "node":
            i = edge_position(target, len(edges))
            a, b, length, _ = edges[i]
            if a == b:
                raise LoopsPresentError(f"edge {target!r} is a loop; resolve_loops first")
            if graph.metric is not MetricKind.MODEL:
                raise GraphStructureError("node blow-ups are defined in the model metric")
            n1, n2 = vertices[a].multiplicity, vertices[b].multiplicity
            if length is not None:
                expected = formula_length(n1, n2, MetricKind.MODEL)
                if length != expected:
                    raise GraphStructureError(
                        f"edge {target!r} carries an explicit length {length} "
                        f"!= 1/(N1*N2) = {expected}; not the edge of a model node"
                    )
            wid = fresh_id(vertices, f"{target}*")
            vertices[wid] = VertexLabel._trusted(wid, n1 + n2, 0)
            # endpoints sorted as the constructor sorts them: a later
            # blow-up of a piece orders its two halves by them
            edges[i:i + 1] = [(min(a, wid), max(a, wid), None, None),
                              (min(wid, b), max(wid, b), None, None)]
        else:
            if not isinstance(target, str) or target not in vertices:
                raise UnknownElementError(f"unknown vertex {target!r}")
            wid = fresh_id(vertices, f"{target}'")
            vertices[wid] = VertexLabel._trusted(wid, vertices[target].multiplicity, 0)
            edges.append((min(target, wid), max(target, wid), None, None))
        created.append(wid)
    # the parent's Edge at position i is the one with id e{i}
    parent = graph._edges
    assembled = tuple(kept if i < len(parent) and parent[i] is kept
                      else Edge(f"e{i}", a, b, length)
                      for i, (a, b, length, kept) in enumerate(edges))
    out = object.__new__(WeightedDualGraph)
    out._assemble({vid: vertices[vid] for vid in sorted(vertices)}, assembled,
                  graph.rays, graph.metric, graph.name, graph.pair_model)
    return out, created


def blow_up_node(graph: WeightedDualGraph, eid: str) -> WeightedDualGraph:
    """Blow up the node corresponding to a compact edge.

    Inserts a genus-0 vertex of multiplicity N1+N2; both new edges take
    their lengths from the model formula, so the total length of the
    replaced edge is preserved exactly.
    """
    return _blow_up(graph, [("node", eid)])[0]


def blow_up_interior_point(graph: WeightedDualGraph, vid: str) -> WeightedDualGraph:
    """Blow up a free point of the component at a vertex: attach a
    genus-0 leaf of the same multiplicity at model distance 1/N^2."""
    return _blow_up(graph, [("interior", vid)])[0]


def base_change_subdivide(graph: WeightedDualGraph, n: int,
                          residue_char: Optional[int] = None) -> WeightedDualGraph:
    """Subdivide every compact edge of a reduced graph into n equal
    pieces through new genus-0 multiplicity-1 vertices.

    Lengths stay in the original normalization, so the identity on old
    points is an isometry.
    """
    if type(n) is not int:
        raise GraphStructureError(f"base-change degree must be an integer, got {n!r:.80}")
    if n < 1:
        raise GraphStructureError(f"base-change degree must be >= 1, got {n}")
    if residue_char is not None and (type(residue_char) is not int or residue_char < 0):
        raise GraphStructureError(
            f"residue characteristic must be None or an integer >= 0, got {residue_char!r:.80}")
    if not graph.is_reduced():
        raise GraphStructureError("base_change_subdivide requires a reduced graph")
    if residue_char and math.gcd(n, residue_char) != 1:
        raise GraphStructureError(
            f"degree {n} is not coprime to the residue characteristic {residue_char}"
        )
    if n == 1:
        return graph
    stops = {}
    for e in graph.edges:
        piece = graph.edge_length(e.id) / n
        stops[e.id] = [(j * piece, VertexLabel(graph.fresh_vertex_id(f"{e.id}s{j}"), 1, 0))
                       for j in range(1, n)]
    return split_edges(graph, stops)


@dataclass(frozen=True)
class BlowUpStep:
    """One instruction of a blow-up sequence: op is 'node' (target an
    edge id) or 'interior' (target a vertex id).  Any other op, or a
    target that is not a non-empty string, raises GraphStructureError
    naming the value, so a bad step fails when it is made, not when it
    is applied."""

    op: str
    target: str

    def __post_init__(self):
        if self.op not in ("node", "interior"):
            raise GraphStructureError(f"unknown blow-up op {self.op!r}")
        if not isinstance(self.target, str) or not self.target:
            raise GraphStructureError(
                f"blow-up target must be a non-empty string, got {self.target!r:.80}")


def apply_blowups(graph: WeightedDualGraph,
                  steps: Iterable[BlowUpStep]) -> WeightedDualGraph:
    """Apply a blow-up sequence.  Each step's target is read against the
    graph left by the steps before it, as if every step were applied
    alone, but the graph is built once, at the end, from the checked
    input graph and without a second validation (see ``_blow_up``).  An
    empty sequence returns the input graph itself.  Steps that are not
    an iterable, and a step that is not a BlowUpStep, raise
    GraphStructureError naming the value, the step with its position."""
    try:
        numbered = enumerate(steps)
    except TypeError:
        raise GraphStructureError(
            f"blow-up steps must be an iterable of BlowUpSteps, got {steps!r:.80}") from None
    return _blow_up(graph, (_instruction(i, s) for i, s in numbered))[0]


def _instruction(i: int, step) -> tuple[str, str]:
    """The ``(op, target)`` of step i of a sequence, which must be a BlowUpStep."""
    if not isinstance(step, BlowUpStep):
        raise GraphStructureError(f"blow-up step {i} is not a BlowUpStep: {step!r:.80}")
    return step.op, step.target


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    checked_pairs: int
    discrepancies: tuple[str, ...]

    def __bool__(self):
        return self.ok


def verify_metric_invariance(graph: WeightedDualGraph,
                             steps: Sequence[BlowUpStep]) -> InvarianceReport:
    """Apply a blow-up sequence and check that all pairwise model
    distances among the original vertices are unchanged, exactly.

    The blow-ups come first, so a bad step raises before any distance
    is read.  The blown-up graph is then read through its series
    reduction (``graphs._series_reduction``) keeping the original
    vertices: the exceptional chains a node blow-up lays along an edge
    are smoothed back to one edge and the trees that interior blow-ups
    hang are pruned, and neither moves a distance among the kept
    vertices.  For each original vertex v but the last, the original
    graph's ``vertex_distances`` row from v gives each d(v, w) with w
    after v, and the reduced graph is asked ``distance`` for those pairs
    alone, in the same order, through its own vertex points."""
    try:
        transformed = apply_blowups(graph, steps)
    except UnknownElementError as exc:
        raise GraphStructureError(f"invalid instruction in sequence: {exc}") from exc
    originals = graph.vertex_ids
    reduced = _series_reduction(transformed, originals)
    at = reduced._vertex_points()
    n = len(originals)
    bad = []
    for i, v in enumerate(originals[:-1]):
        row = vertex_distances(graph, v)
        for w in originals[i + 1:]:
            d0, d1 = row[w], distance(reduced, at[v], at[w])
            if d1 != d0:
                bad.append(f"d({v},{w}): {d0} -> {d1}")
    return InvarianceReport(ok=not bad, checked_pairs=n * (n - 1) // 2,
                            discrepancies=tuple(bad))
