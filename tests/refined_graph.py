"""Test helper: the refined graph that ``graphs.refine`` lays out.

``refine`` returns only integer marks and segments; the Poisson solve
and the reduction run on those and never build a graph.  Oracles that
want a ``WeightedDualGraph`` build one here from the marks, through
``split_edges``, as skelgraph did before.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

from skelgraph import VertexLabel
from skelgraph.graphs import refine, split_edges


def refined_graph(graph, points):
    """The graph subdivided at the edge points among ``points``, each
    strictly inside its edge, and the base point of each cut vertex.
    The cut at offset o of edge e is the vertex ``e@o``, or the first
    free ``e@o.i`` when the graph already has that id; the pieces carry
    explicit lengths."""
    stops = defaultdict(list)
    cut_points = {}
    for p in islice(refine(graph, points).marks, len(graph.vertex_ids), None):
        # the stems are distinct and dot-free, so no two fresh ids collide
        v = VertexLabel(graph.fresh_vertex_id(f"{p.where}@{p.offset}"))
        stops[p.where].append((p.offset, v))
        cut_points[v.id] = p
    return split_edges(graph, stops), cut_points
