"""Differential oracle for ``reduce_divisor``: the uniform 1/L lattice.

This is the reducer skelgraph shipped before reduction moved to marks
and segments: every multiple of 1/L is a node, stage 1 borrows node by
node, and stage 2 burns and fires the unburnt set one lattice step at a
time.  Its cost grows with L, so it lives here, for tests only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import skelgraph as sk
from skelgraph import GraphPoint, PLFunction, PipelineError
from skelgraph.potential import _MAX_DHAR_ROUNDS, _MAX_LATTICE_NODES


def _lattice(graph, points):
    """L, each node's base point (the vertices, then each edge's interior
    multiples of 1/L, edge by edge), each node's neighbours, and each
    edge's chain from e.a to e.b."""
    dens = [graph.edge_length(e.id).denominator for e in graph.edges]
    for e in graph.edges:
        if e.a == e.b:
            # force at least two segments so no lattice edge is a loop
            dens.append((graph.edge_length(e.id) / 2).denominator)
    for p in points:
        if p.kind == "edge":
            dens.append(p.offset.denominator)
    L = lcm(*dens) if dens else 1
    total = sum(int(graph.edge_length(e.id) * L) for e in graph.edges)
    if total > _MAX_LATTICE_NODES:
        raise PipelineError(
            f"lattice refinement would need {total} segments (> {_MAX_LATTICE_NODES}); "
            "edge-length denominators are too heterogeneous for chip-firing"
        )
    index = {v: i for i, v in enumerate(graph.vertex_ids)}
    where = [GraphPoint.at_vertex(v) for v in graph.vertex_ids]
    adj = [[] for _ in where]
    chains = {}
    for e in graph.edges:
        chain = [index[e.a]]
        for k in range(1, int(graph.edge_length(e.id) * L)):
            chain.append(len(where))
            where.append(GraphPoint.on_edge(e.id, Fraction(k, L)))
            adj.append([])
        chain.append(index[e.b])
        for a, b in zip(chain, chain[1:]):
            adj[a].append(b)
            adj[b].append(a)
        chains[e.id] = chain
    return L, where, adj, chains


def _burn(adj, chips, q):
    """Dhar: a node burns once more burning edges reach it than it has chips."""
    burnt = [False] * len(adj)
    burnt[q] = True
    arriving = [0] * len(adj)
    stack = [q]
    while stack:
        for w in adj[stack.pop()]:
            if not burnt[w]:
                arriving[w] += 1
                if arriving[w] > chips[w]:
                    burnt[w] = True
                    stack.append(w)
    return burnt


def _fire_set(adj, chips, u, burnt):
    """Fire the unburnt set: one chip crosses each edge out of it."""
    for v, b in enumerate(burnt):
        if not b:
            u[v] -= 1
            for w in adj[v]:
                if burnt[w]:
                    chips[v] -= 1
                    chips[w] += 1


def reduce_on_lattice(graph, divisor_in, q):
    """(reduced, f, rounds): the q-reduced divisor, f with
    D' = D - laplacian(f), and the number of lattice firings in stage 2."""
    if graph.rays:
        raise sk.GraphStructureError("reduce_divisor works on compact graphs; drop rays")
    divisor_in.require_integral("divisor to reduce")
    q_pt = graph.check_point(sk.as_point(q))
    support = [(graph.check_point(p), c) for p, c in divisor_in.items()]
    L, where, adj, chains = _lattice(graph, [p for p, _ in support] + [q_pt])

    def node(p):
        if p.kind == "vertex":
            return graph.vertex_ids.index(p.where)
        return chains[p.where][int(p.offset * L)]

    chips = [0] * len(where)
    for p, c in support:
        chips[node(p)] += c
    q_node = node(q_pt)
    u = [0] * len(where)

    # stage 1: every node off q in debt borrows until none is
    debt = [v for v, c in enumerate(chips) if v != q_node and c < 0]
    while debt:
        v = debt.pop()
        k = -(chips[v] // len(adj[v]))
        u[v] += k
        chips[v] += k * len(adj[v])
        for w in adj[v]:
            chips[w] -= k
            if w != q_node and chips[w] < 0 <= chips[w] + k:
                debt.append(w)

    # stage 2: Dhar burning with maximal unburnt firings, one lattice step each
    rounds = 0
    while True:
        burnt = _burn(adj, chips, q_node)
        if all(burnt):
            break
        _fire_set(adj, chips, u, burnt)
        rounds += 1
        if rounds > _MAX_DHAR_ROUNDS:
            raise PipelineError("Dhar reduction did not terminate")

    reduced = sk.GraphDivisor({where[v]: c for v, c in enumerate(chips) if c != 0})
    base_min = min(u)
    values = {where[v]: Fraction(u[v] - base_min, L) for v in range(len(graph.vertex_ids))}
    for chain in chains.values():
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            if u[a] + u[c] != 2 * u[b]:
                values[where[b]] = Fraction(u[b] - base_min, L)
    return reduced, PLFunction(values), rounds
