"""Seeded random generators for graphs and consistent weight data.

Random graphs are built as a random spanning tree plus extra edges.
Random snc-pair fixtures start from hand-verified seed models and grow
by moves that provably preserve both Laplacian identities: node and
interior-point blow-ups (with divisor-multiplicity transport), pulls
of a marked point onto a fresh exceptional component, and zero-sum ray
packs at a vertex.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from .fixtures import _size, cycle_graph, kodaira_type_ii, kodaira_type_ii_data
from .graphs import Ray, VertexLabel, WeightedDualGraph
from .weight import (
    PluricanonicalModelData,
    blow_up_interior_with_data,
    blow_up_node_with_data,
)


def _connect(rng: random.Random, vertices: list[VertexLabel],
             extra_edges: Optional[int], allow_leaves: bool) -> WeightedDualGraph:
    """A random tree on the vertices plus ``extra_edges`` (possibly
    parallel) edges, 0-3 when None; without leaves, each 1-valent vertex
    in turn gains an edge to a random other vertex, which raises b1 and
    keeps the graph reduced."""
    ids = [v.id for v in vertices]
    n = len(ids)
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n)]
    k = extra_edges if extra_edges is not None else rng.randint(0, 3)
    for _ in range(k):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            j = (j + 1) % n
        edges.append((ids[i], ids[j]))
    g = WeightedDualGraph(vertices=vertices, edges=edges)
    if not allow_leaves:
        while True:
            leaves = [v for v in g.vertex_ids if g.valency(v, include_rays=False) == 1]
            if not leaves:
                break
            v = leaves[0]
            others = [w for w in g.vertex_ids if w != v]
            g = g.replace(edges=list(g.edges) + [(v, rng.choice(others))])
    return g


def random_graph(rng: random.Random, max_vertices: int = 10,
                 max_multiplicity: int = 8, max_genus: int = 0,
                 extra_edges: Optional[int] = None,
                 allow_leaves: bool = True) -> WeightedDualGraph:
    """Random connected loop-free multigraph: a random tree plus a few
    extra (possibly parallel) edges.  Each size is checked before the
    first draw: ``max_vertices`` must be an integer >= 2,
    ``max_multiplicity`` >= 1, and ``max_genus`` and ``extra_edges``
    (when given) >= 0."""
    _size(max_vertices, "max_vertices", 2)
    _size(max_multiplicity, "max_multiplicity", 1)
    _size(max_genus, "max_genus", 0)
    if extra_edges is not None:
        _size(extra_edges, "extra_edges", 0)
    n = rng.randint(2, max_vertices)
    vertices = [VertexLabel(f"v{i}", rng.randint(1, max_multiplicity),
                            rng.randint(0, max_genus)) for i in range(n)]
    return _connect(rng, vertices, extra_edges, allow_leaves)


def random_reduced_graph(rng: random.Random, max_vertices: int = 8,
                         genus: Optional[int] = None,
                         max_genus_label: int = 0,
                         allow_leaves: bool = True) -> WeightedDualGraph:
    """Random reduced loop-free graph whose first Betti number is
    ``genus`` when it is given and leaves are allowed (removing leaves
    adds edges).  Each size is checked before the first draw:
    ``max_vertices`` must be an integer >= 2, and ``genus`` (when given)
    and ``max_genus_label`` >= 0."""
    _size(max_vertices, "max_vertices", 2)
    if genus is not None:
        _size(genus, "genus", 0)
    _size(max_genus_label, "max_genus_label", 0)
    n = rng.randint(2, max_vertices)
    vertices = [VertexLabel(f"v{i}", 1, rng.randint(0, max_genus_label))
                for i in range(n)]
    return _connect(rng, vertices, genus, allow_leaves)


# -- consistent snc-pair fixtures ---------------------------------------------


def _seed_fixture(rng: random.Random, m: int):
    """A hand-verified (graph, data) seed satisfying both identities."""
    kind = rng.choice(("type-ii", "cycle", "good-elliptic", "rational", "good-genus"))
    if kind == "type-ii":
        return kodaira_type_ii(), kodaira_type_ii_data(m)
    if kind == "cycle":
        n = rng.randint(2, 5)
        g = cycle_graph(n)
        return g, PluricanonicalModelData(m=m, nu={v: 0 for v in g.vertex_ids})
    if kind == "good-elliptic":
        g = WeightedDualGraph(vertices=[VertexLabel("o", 1, 1)])
        return g, PluricanonicalModelData(m=m, nu={"o": 0})
    if kind == "rational":
        # projective line with the marked double pole at infinity
        g = WeightedDualGraph(vertices=[VertexLabel("o", 1, 0)],
                              rays=[Ray("o", "x_inf", 1)], pair_model=True)
        return g, PluricanonicalModelData(m=m, nu={"o": m},
                                          ray_degrees={"x_inf": -2 * m})
    # good reduction of a genus-h curve, h >= 2, with a regular form
    # vanishing at 2h-2 marked rational points to order 1 each
    h = rng.randint(2, 3)
    rays = [Ray("o", f"x{i}", 1) for i in range(2 * h - 2)]
    g = WeightedDualGraph(vertices=[VertexLabel("o", 1, h)], rays=rays,
                          pair_model=True)
    data = PluricanonicalModelData(
        m=m, nu={"o": 0}, ray_degrees={f"x{i}": m for i in range(2 * h - 2)})
    return g, data


def _sprout_ray_pack(rng: random.Random, graph: WeightedDualGraph,
                     data: PluricanonicalModelData):
    """Attach rays with divisor coefficients summing to zero at a random
    vertex; both identities gain equal amounts on both sides.

    The result is a pair model and a derived view of ``graph``
    (``WeightedDualGraph._derive``), not a new graph, since every ray
    rule holds: each new ray attaches at an existing vertex, under a
    label no ray has, with degree its multiplicity, and on every graph
    ``random_pair_fixture`` makes each ray's degree already equals its
    attachment's multiplicity (seeds, blow-ups and the moves keep it)."""
    vid = rng.choice(graph.vertex_ids)
    n = graph.vertex(vid).multiplicity
    count = rng.choice((1, 2, 3))
    coeffs = [rng.randint(-2, 2) for _ in range(count - 1)]
    coeffs.append(-sum(coeffs))  # a single ray gets 0
    existing = {r.label for r in graph.rays}
    rays = list(graph.rays)
    degrees = data.ray_degrees.copy()
    for i, c in enumerate(coeffs):
        label = f"x{len(existing)}_{i}"
        while label in existing:
            label += "'"
        existing.add(label)
        rays.append(Ray(vid, label, n))
        degrees[label] = c
    out = graph._derive(graph._vertices, tuple(rays), True)
    return out, replace(data, ray_degrees=degrees)


def random_pair_fixture(rng: random.Random, m: int, moves: int = 8):
    """Grow a random consistent (graph, data) fixture from a seed by
    ``moves`` moves, an integer >= 0; any other value raises
    GraphStructureError."""
    _size(moves, "moves", 0)
    graph, data = _seed_fixture(rng, m)
    for _ in range(moves):
        op = rng.random()
        if op < 0.3 and graph.edges:
            eid = rng.choice(graph.edges).id
            graph, data = blow_up_node_with_data(graph, data, eid)
        elif op < 0.55:
            vid = rng.choice(graph.vertex_ids)
            graph, data = blow_up_interior_with_data(graph, data, vid)
        elif op < 0.75 and graph.rays:
            ray = rng.choice(graph.rays)
            graph, data = blow_up_interior_with_data(
                graph, data, ray.attach, toward_ray=ray.label)
        else:
            graph, data = _sprout_ray_pack(rng, graph, data)
    return graph, data
