"""Test helper: the refined graph that ``graphs.refine`` lays out.

``refine`` returns only integer marks and segments; the Poisson solve
and the reduction run on those and never build a graph.  Oracles that
want a ``WeightedDualGraph`` build one here from the marks, through
``split_edges``, as skelgraph did before.
"""

from __future__ import annotations

from collections import defaultdict

from skelgraph import VertexLabel
from skelgraph.graphs import refine, split_edges


def refined_graph(graph, cuts):
    """The graph subdivided at ``cuts`` and the base point of each cut
    vertex.  The cut at offset o of edge e is the vertex ``e@o``, or the
    first free ``e@o.i`` when the graph already has that id; the pieces
    carry explicit lengths."""
    ref = refine(graph, cuts)
    stops = defaultdict(list)
    cut_points = {}
    for p in ref.marks[len(graph.vertex_ids):]:
        # the stems are distinct and dot-free, so no two fresh ids collide
        v = VertexLabel(graph.fresh_vertex_id(f"{p.where}@{p.offset}"))
        stops[p.where].append((p.offset, v))
        cut_points[v.id] = p
    return split_edges(graph, stops), cut_points
