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
    MetricKind,
    VertexLabel,
    WeightedDualGraph,
    distance,
    edge_position,
    formula_length,
    fresh_id,
    split_edges,
)


def _blow_up(graph: WeightedDualGraph, steps: Iterable[tuple]):
    """Apply ``(op, target)`` steps to working lists of vertex
    labels and ``(a, b, length)`` edges, then construct the graph once.
    Returns the graph and the ids of the new vertices, one per step.

    Each target is read against the evolving graph: a node blow-up
    replaces edge e{i} by two edges at positions i and i+1, so later
    edge ids shift by one, exactly as if the graph were rebuilt after
    every step.  No steps returns the input graph itself."""
    steps = list(steps)
    if not steps:
        return graph, []
    created = []
    vertices = {v.id: v for v in graph.vertices}
    edges = [(e.a, e.b, e.length) for e in graph.edges]
    for op, target in steps:
        if op == "node":
            i = edge_position(target, len(edges))
            a, b, length = edges[i]
            if a == b:
                raise LoopsPresentError(f"edge {target!r} is a loop; resolve_loops first")
            if graph.metric is not MetricKind.MODEL:
                raise GraphStructureError("node blow-ups are defined in the model metric")
            n1, n2 = vertices[a].multiplicity, vertices[b].multiplicity
            expected = formula_length(n1, n2, MetricKind.MODEL)
            if length is not None and length != expected:
                raise GraphStructureError(
                    f"edge {target!r} carries an explicit length {length} "
                    f"!= 1/(N1*N2) = {expected}; not the edge of a model node"
                )
            wid = fresh_id(vertices, f"{target}*")
            vertices[wid] = VertexLabel(wid, n1 + n2, 0)
            # endpoints sorted as the constructor sorts them: a later
            # blow-up of a piece orders its two halves by them
            edges[i:i + 1] = [(min(a, wid), max(a, wid), None),
                              (min(wid, b), max(wid, b), None)]
        else:
            if target not in vertices:
                raise UnknownElementError(f"unknown vertex {target!r}")
            wid = fresh_id(vertices, f"{target}'")
            vertices[wid] = VertexLabel(wid, vertices[target].multiplicity, 0)
            edges.append((min(target, wid), max(target, wid), None))
        created.append(wid)
    return graph.replace(vertices=vertices.values(), edges=edges), created


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
    if not graph.is_reduced():
        raise GraphStructureError("base_change_subdivide requires a reduced graph")
    if residue_char is not None and residue_char > 0 and math.gcd(n, residue_char) != 1:
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
    edge id) or 'interior' (target a vertex id)."""

    op: str
    target: str

    def __post_init__(self):
        if self.op not in ("node", "interior"):
            raise GraphStructureError(f"unknown blow-up op {self.op!r}")


def apply_blowups(graph: WeightedDualGraph,
                  steps: Iterable[BlowUpStep]) -> WeightedDualGraph:
    """Apply a blow-up sequence.  Each step's target is read against the
    graph left by the steps before it, as if every step were applied
    alone, but the graph is constructed once, at the end.  An empty
    sequence returns the input graph itself.  A step that is not a
    BlowUpStep raises GraphStructureError naming its position."""
    return _blow_up(graph, (_instruction(i, s) for i, s in enumerate(steps)))[0]


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
    distances among the original vertices are unchanged, exactly."""
    originals = graph.vertex_ids
    before = {}
    for i, v in enumerate(originals):
        for w in originals[i + 1:]:
            before[(v, w)] = distance(graph, v, w)
    try:
        transformed = apply_blowups(graph, steps)
    except UnknownElementError as exc:
        raise GraphStructureError(f"invalid instruction in sequence: {exc}") from exc
    bad = []
    for (v, w), d0 in before.items():
        d1 = distance(transformed, v, w)
        if d1 != d0:
            bad.append(f"d({v},{w}): {d0} -> {d1}")
    return InvarianceReport(ok=not bad, checked_pairs=len(before),
                            discrepancies=tuple(bad))
