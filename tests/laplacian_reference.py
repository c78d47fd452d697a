"""Differential oracle for ``laplacian``: per-segment accumulation.

This is the Laplacian skelgraph shipped before it moved to one pass per
edge: each edge's profile is sorted on every call, and every linear
piece adds its slope at its left end and subtracts it at its right end,
on GraphPoint keys, through the public ``GraphDivisor`` constructor.
It shares no code with ``PLFunction.edge_profile`` or the divisor
fast path, so it lives here, for tests only.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from skelgraph import GraphDivisor, GraphPoint


def laplacian_by_segments(graph, f):
    f.validate_on(graph)
    values = f.values
    acc = defaultdict(Fraction)
    for e in graph.edges:
        ell = graph.edge_length(e.id)
        profile = [(Fraction(0), values[GraphPoint.at_vertex(e.a)]),
                   (ell, values[GraphPoint.at_vertex(e.b)]),
                   *((p.offset, x) for p, x in values.items()
                     if p.kind == "edge" and p.where == e.id)]
        profile.sort(key=lambda t: t[0])

        def node(x):
            if x == 0:
                return GraphPoint.at_vertex(e.a)
            if x == ell:
                return GraphPoint.at_vertex(e.b)
            return GraphPoint.on_edge(e.id, x)

        for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
            s = (y1 - y0) / (x1 - x0)
            acc[node(x0)] += s
            acc[node(x1)] -= s
    for label, s in f.ray_slopes.items():
        acc[GraphPoint.at_vertex(graph.ray(label).attach)] += s
    return GraphDivisor(acc)
