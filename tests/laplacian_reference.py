"""Differential oracles for ``laplacian`` and ``min_locus``: per-segment
readings of each edge's profile.

These are the versions skelgraph shipped before both moved to one
validated walk per function and graph.  Each edge's profile is rebuilt
from the breakpoint values and sorted on every call.  The Laplacian
adds every linear piece's slope at its left end and subtracts it at its
right end, on GraphPoint keys, through the public ``GraphDivisor``
constructor; the minimum locus collects, piece by piece, the closed
segments and points where f is at its minimum and lets the public
``SubgraphLocus`` constructor merge them.  They share no code with
``PLFunction.edge_profile``, the walk or the divisor and locus fast
paths, so they live here, for tests only.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from skelgraph import GraphDivisor, GraphPoint, MinimumNotAttainedError, SubgraphLocus


def _profile(graph, values, e):
    ell = graph.edge_length(e.id)
    profile = [(Fraction(0), values[GraphPoint.at_vertex(e.a)]),
               (ell, values[GraphPoint.at_vertex(e.b)]),
               *((p.offset, x) for p, x in values.items()
                 if p.kind == "edge" and p.where == e.id)]
    profile.sort(key=lambda t: t[0])
    return ell, profile


def laplacian_by_segments(graph, f):
    f.validate_on(graph)
    values = f.values
    acc = defaultdict(Fraction)
    for e in graph.edges:
        ell, profile = _profile(graph, values, e)

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


def min_locus_by_segments(graph, f):
    f.validate_on(graph)
    for label, s in f.ray_slopes.items():
        if s < 0:
            raise MinimumNotAttainedError(
                f"ray {label!r} has negative slope {s}; no minimum is attained")
    values = f.values
    m = min(values.values())
    vertices = [v for v in graph.vertex_ids if values[GraphPoint.at_vertex(v)] == m]
    segments = defaultdict(list)
    for e in graph.edges:
        _, profile = _profile(graph, values, e)
        for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
            if y0 == m and y1 == m:
                segments[e.id].append((x0, x1))
            elif y0 == m:
                segments[e.id].append((x0, x0))
            elif y1 == m:
                segments[e.id].append((x1, x1))
    return SubgraphLocus(graph, vertices=vertices, segments=segments)
