"""Shared helpers: brute-force oracles and small random inputs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import skelgraph as sk


def brute_bridges(graph):
    """Oracle: an edge is a bridge iff deleting it disconnects the graph."""
    out = set()
    for e in graph.edges:
        if e.a == e.b:
            continue
        seen = {graph.vertex_ids[0]}
        stack = [graph.vertex_ids[0]]
        while stack:
            v = stack.pop()
            for t in graph.edges_at(v):
                if t.id == e.id:
                    continue
                w = t.b if t.a == v else t.a
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(graph.vertex_ids):
            out.add(e.id)
    return frozenset(out)


def brute_min_points(graph, f, samples_per_edge=8):
    """Oracle: sample vertices plus interior rational points and return
    the argmin set together with the sampled minimum."""
    pts = [sk.GraphPoint.at_vertex(v) for v in graph.vertex_ids]
    for e in graph.edges:
        ell = graph.edge_length(e.id)
        for k in range(1, samples_per_edge + 1):
            pts.append(sk.GraphPoint.on_edge(e.id, ell * k / (samples_per_edge + 1)))
    values = {p: f.evaluate(graph, p) for p in pts}
    m = min(values.values())
    return {p for p, x in values.items() if x == m}, m


def random_plfunction(rng, graph, max_cuts=2, denom=6, bound=4):
    """A random continuous PL function: rational values at the vertices
    and at a few random interior breakpoints (slopes can be any
    rationals)."""
    values = {}
    for v in graph.vertex_ids:
        values[sk.GraphPoint.at_vertex(v)] = Fraction(rng.randint(-bound, bound),
                                                      rng.randint(1, denom))
    for e in graph.edges:
        ell = graph.edge_length(e.id)
        for _ in range(rng.randint(0, max_cuts)):
            pos = ell * rng.randint(1, denom - 1) / denom
            values[sk.GraphPoint.on_edge(e.id, pos)] = Fraction(
                rng.randint(-bound, bound), rng.randint(1, denom))
    return sk.PLFunction(values)


def random_lattice_tropical(rng, graph, L=2, bound=3):
    """A random tropical (integer-slope) function on the 1/L lattice of
    a graph whose edge lengths are multiples of 1/L."""
    cuts = {}
    for e in graph.edges:
        steps = graph.edge_length(e.id) * L
        assert steps.denominator == 1, "edge lengths must be multiples of 1/L"
        if steps > 1:
            cuts[e.id] = [Fraction(k, L) for k in range(1, int(steps))]
    ref = sk.refine(graph, cuts)
    values = {}
    for v in ref.graph.vertex_ids:
        values[ref.cut_vertex_points.get(v) or sk.GraphPoint.at_vertex(v)] = Fraction(
            rng.randint(-bound, bound), L)
    return sk.PLFunction(values)


def random_degree_zero_divisor(rng, graph, spread=3, interior=True):
    """A random integer divisor of total degree zero, optionally with
    some interior-point support at simple rational positions."""
    entries = []
    total = 0
    for v in graph.vertex_ids:
        c = rng.randint(-spread, spread)
        entries.append((sk.GraphPoint.at_vertex(v), c))
        total += c
    if interior and graph.edges:
        for _ in range(rng.randint(0, 2)):
            e = rng.choice(graph.edges)
            ell = graph.edge_length(e.id)
            pos = ell * rng.randint(1, 3) / 4
            c = rng.randint(-2, 2)
            entries.append((sk.GraphPoint.on_edge(e.id, pos), c))
            total += c
    entries.append((sk.GraphPoint.at_vertex(graph.vertex_ids[0]), -total))
    return sk.GraphDivisor(entries)


def random_multigraph(rng, max_vertices=5, extra=3, loops=2, rays=0, lengths=True):
    """A random connected graph with parallel edges and loops: a random
    tree plus up to ``extra`` edges (a parallel copy of a tree edge among
    them), up to ``loops`` loops and ``rays`` rays; random rational edge
    lengths unless ``lengths`` is false."""
    n = rng.randint(2, max_vertices)
    vs = [f"v{i}" for i in range(n)]
    pairs = [(vs[rng.randrange(i)], vs[i]) for i in range(1, n)]
    pairs.append(rng.choice(pairs))
    for _ in range(rng.randint(0, extra - 1)):
        pairs.append((rng.choice(vs), rng.choice(vs)))
    for _ in range(rng.randint(0, loops)):
        v = rng.choice(vs)
        pairs.append((v, v))
    edges = [(a, b, Fraction(rng.randint(1, 6), rng.randint(1, 4)) if lengths else None)
             for a, b in pairs]
    return sk.WeightedDualGraph(
        vertices=[sk.VertexLabel(v) for v in vs], edges=edges,
        rays=[sk.Ray(rng.choice(vs), f"r{i}", 1) for i in range(rays)])


def random_blowups(rng, graph, steps=50):
    """``steps`` random node and interior blow-ups, each drawn against the
    graph left by the ones before it.  Node steps pick among the edges a
    node blow-up accepts (no loops, model-formula length).  Returns the
    steps and the final graph, built one step at a time."""
    cur, seq = graph, []
    for _ in range(steps):
        nodes = [e for e in cur.edges if e.a != e.b and cur.edge_length(e.id) == Fraction(
            1, cur.vertex(e.a).multiplicity * cur.vertex(e.b).multiplicity)]
        if rng.random() < 0.5 and nodes:
            step = sk.BlowUpStep("node", rng.choice(nodes).id)
        else:
            step = sk.BlowUpStep("interior", rng.choice(cur.vertex_ids))
        seq.append(step)
        cur = sk.apply_blowups(cur, [step])
    return seq, cur


@pytest.fixture
def rng():
    return random.Random(20240817)
