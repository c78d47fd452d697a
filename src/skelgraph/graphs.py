"""Weighted dual graphs with exact rational metrics.

The central value type is :class:`WeightedDualGraph`: a connected
multigraph whose vertices carry a positive multiplicity N and a
non-negative genus g, whose compact edges carry exact rational lengths,
and which may have marked-point rays of infinite length attached at
vertices.

Two metrics are supported.  In the model metric an edge between
vertices of multiplicities N1, N2 has length 1/(N1*N2); in the stable
metric it has length 1/lcm(N1, N2).  Lengths may also be stored
explicitly (subdivision writes explicit lengths, after which the
multiplicity formula no longer applies to the pieces).  Every length,
distance and slope is measured in the graph's own metric, set only at
construction and by ``replace(metric=...)``, which refuses to change it
while an edge has an explicit length: that has no counterpart in the
other metric.

Everything is immutable after construction; operations are pure
functions returning new graphs.  All arithmetic is fractions.Fraction.
So a graph keeps what it derives on first read: each edge's length;
one integer network, the edge lengths as integer steps over the lcm of
their denominators, on which ``vertex_distances`` runs each source's
Dijkstra; the ``vertex_distances`` of each source asked for, which
``distance`` reads in place for a pair of vertices and for every
anchor of its first point (callers of ``vertex_distances`` get
copies); one ``GraphPoint`` per vertex, with which ``refine``, the
function walk, ``laplacian``, ``min_locus``, ``canonical_divisor``
and, in ``weight``, the weight function and the pushforward divisor
key their vertices, so lookups among their results match by identity;
and, in ``potential``, ``canonical_divisor`` for each m asked for and
``bridges``, both immutable.  A new graph, ``replace``'s and a copy's
included, starts with none of them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    GraphStructureError,
    InvalidPointError,
    NonRationalError,
    UnknownElementError,
)

Rational = Union[Fraction, int]


def as_rational(x, what: str) -> Rational:
    """``x`` itself when it is an int or a Fraction; anything else (a
    float, a string, a bool) raises NonRationalError naming ``what``."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    raise NonRationalError(f"{what} must be an int or a Fraction, got {x!r:.80}")


class MetricKind(Enum):
    MODEL = "model"
    STABLE = "stable"

    @classmethod
    def coerce(cls, value) -> "MetricKind":
        """``value`` itself when it is a MetricKind, else the kind whose
        value is ``str(value)`` in lower case; GraphStructureError names
        any other value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            known = ", ".join(kind.value for kind in cls)
            raise GraphStructureError(f"unknown metric {value!r:.80}; known: {known}") from None


@dataclass(frozen=True)
class VertexLabel:
    """A vertex of a dual graph: id plus (multiplicity, genus) labels."""

    id: str
    multiplicity: int = 1
    genus: int = 0

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise GraphStructureError("vertex id must be a non-empty string")
        for name, least in (("multiplicity", 1), ("genus", 0)):
            x = getattr(self, name)
            if type(x) is not int:
                raise GraphStructureError(
                    f"vertex {self.id!r}: {name} must be an integer, got {x!r}")
            if x < least:
                raise GraphStructureError(
                    f"vertex {self.id!r}: {name} must be >= {least}, got {x}")


@dataclass(frozen=True)
class Ray:
    """A marked-point branch of infinite length attached at a vertex.

    ``degree`` is the degree of the marked point over the base field;
    on a model of a pair it equals the multiplicity of the attachment
    vertex.
    """

    attach: str
    label: str
    degree: int = 1

    def __post_init__(self):
        if type(self.degree) is not int:
            raise GraphStructureError(
                f"ray {self.label!r}: degree must be an integer, got {self.degree!r}")
        if self.degree < 1:
            raise GraphStructureError(
                f"ray {self.label!r}: degree must be >= 1, got {self.degree}"
            )


@dataclass(frozen=True)
class Edge:
    """A compact edge.  ``length`` None means: use the metric formula.

    Endpoints are normalized so that a <= b; interior positions are
    measured from endpoint ``a``.
    """

    id: str
    a: str
    b: str
    length: Optional[Fraction] = None


class GraphPoint:
    """A point of the metric realization: a vertex, an interior edge
    point at an exact rational position, or a point on a ray at an
    exact positive distance from the attachment."""

    __slots__ = ("kind", "where", "offset", "_hash")

    def __init__(self, kind: str, where: str, offset: Optional[Fraction]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "where", where)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_hash", hash((kind, where, offset)))

    def __setattr__(self, *args):
        raise AttributeError("GraphPoint is immutable")

    def __reduce__(self):
        return GraphPoint, (self.kind, self.where, self.offset)

    @staticmethod
    def at_vertex(vertex_id: str) -> "GraphPoint":
        return GraphPoint("vertex", vertex_id, None)

    @staticmethod
    def on_edge(edge_id: str, position: Rational) -> "GraphPoint":
        if type(position) is not Fraction:
            position = Fraction(as_rational(position, "edge position"))
        return GraphPoint("edge", edge_id, position)

    @staticmethod
    def on_ray(ray_label: str, distance: Rational) -> "GraphPoint":
        d = Fraction(as_rational(distance, "ray distance"))
        if d <= 0:
            raise InvalidPointError("ray point distance must be positive")
        return GraphPoint("ray", ray_label, d)

    def __eq__(self, other):
        return self is other or (isinstance(other, GraphPoint) and self.kind == other.kind
                                 and self.where == other.where and self.offset == other.offset)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.kind, self.where, self.offset if self.offset is not None else Fraction(0))

    def __repr__(self):
        if self.kind == "vertex":
            return f"GraphPoint.at_vertex({self.where!r})"
        if self.kind == "edge":
            return f"GraphPoint.on_edge({self.where!r}, {str(self.offset)!r})"
        return f"GraphPoint.on_ray({self.where!r}, {str(self.offset)!r})"


PointLike = Union[GraphPoint, str]


def as_point(p: PointLike) -> GraphPoint:
    """Coerce a vertex id to a vertex point; pass GraphPoints through."""
    if isinstance(p, GraphPoint):
        return p
    return GraphPoint.at_vertex(p)


def _check_raw(p: GraphPoint) -> None:
    """Raise unless p, not a vertex point, is an edge or ray point whose
    offset is an int or a Fraction: its builders check both, the raw
    constructor neither."""
    if p.kind != "edge" and p.kind != "ray":
        raise InvalidPointError(f"unknown point kind {p.kind!r:.80}")
    if type(p.offset) is not Fraction and type(p.offset) is not int:
        raise InvalidPointError(
            f"{p.kind} point offset must be an int or a Fraction, got {p.offset!r:.80}")


def fresh_id(taken, stem: str) -> str:
    """``stem`` if it is not in ``taken``, else the first free ``stem.i``."""
    if stem not in taken:
        return stem
    i = 0
    while f"{stem}.{i}" in taken:
        i += 1
    return f"{stem}.{i}"


def edge_position(eid, count: int) -> int:
    """Position of edge ``eid`` among ``count`` edges: edge ids are
    ``e0, e1, ...`` in construction order."""
    digits = eid[1:] if isinstance(eid, str) and eid[:1] == "e" else ""
    if digits.isascii() and digits.isdigit() and eid == f"e{int(digits)}" \
            and int(digits) < count:
        return int(digits)
    raise UnknownElementError(f"unknown edge {eid!r}")


def formula_length(n1: int, n2: int, metric: MetricKind) -> Fraction:
    if metric is MetricKind.MODEL:
        return Fraction(1, n1 * n2)
    return Fraction(1, math.lcm(n1, n2))


class WeightedDualGraph:
    """Connected weighted multigraph with rays and exact edge lengths.

    Edges are given as ``(a, b)`` pairs or ``(a, b, length)`` triples
    (or Edge objects); they receive ids ``e0, e1, ...`` in input order.
    A missing length means the metric formula applies.
    """

    __slots__ = ("name", "metric", "pair_model", "_vertices", "_edges",
                 "_rays", "_adjacency", "_edge_index", "_ray_index", "_lengths",
                 "_distances", "_network", "_points", "_canonical", "_bridges")

    def __init__(self, vertices: Iterable[VertexLabel],
                 edges: Iterable = (),
                 rays: Iterable[Ray] = (),
                 metric: MetricKind = MetricKind.MODEL,
                 name: str = "",
                 pair_model: bool = False):
        vlist = sorted(vertices, key=lambda v: v.id)
        if not vlist:
            raise GraphStructureError("graph needs at least one vertex")
        self_vertices = {}
        for v in vlist:
            if v.id in self_vertices:
                raise GraphStructureError(f"duplicate vertex id {v.id!r}")
            self_vertices[v.id] = v

        metric = MetricKind.coerce(metric)
        edge_objs = []
        for i, e in enumerate(edges):
            if isinstance(e, Edge):
                a, b, length = e.a, e.b, e.length
            else:
                a, b = e[0], e[1]
                length = e[2] if len(e) > 2 else None
            if a not in self_vertices or b not in self_vertices:
                raise UnknownElementError(f"edge endpoints ({a!r}, {b!r}) not in graph")
            if b < a:
                a, b = b, a
            if length is not None:
                if type(length) is not Fraction:
                    length = Fraction(as_rational(length, "edge length"))
                if length <= 0:
                    raise GraphStructureError("edge lengths must be positive")
            edge_objs.append(Edge(f"e{i}", a, b, length))

        ray_objs = []
        seen_labels = set()
        for r in rays:
            if r.attach not in self_vertices:
                raise UnknownElementError(f"ray {r.label!r} attaches to unknown vertex {r.attach!r}")
            if r.label in seen_labels:
                raise GraphStructureError(f"duplicate ray label {r.label!r}")
            seen_labels.add(r.label)
            if pair_model and r.degree != self_vertices[r.attach].multiplicity:
                raise GraphStructureError(
                    f"pair model: ray {r.label!r} degree {r.degree} != multiplicity "
                    f"{self_vertices[r.attach].multiplicity} of {r.attach!r}"
                )
            ray_objs.append(r)

        adjacency = {vid: [] for vid in self_vertices}
        for e in edge_objs:
            adjacency[e.a].append(e.id)
            if e.b != e.a:
                adjacency[e.b].append(e.id)

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "pair_model", pair_model)
        object.__setattr__(self, "_vertices", self_vertices)
        object.__setattr__(self, "_edges", tuple(edge_objs))
        object.__setattr__(self, "_rays", tuple(ray_objs))
        object.__setattr__(self, "_adjacency", {k: tuple(v) for k, v in adjacency.items()})
        object.__setattr__(self, "_edge_index", {e.id: e for e in edge_objs})
        object.__setattr__(self, "_ray_index", {r.label: r for r in ray_objs})
        object.__setattr__(self, "_lengths", {})  # edge id -> length, filled on first read
        object.__setattr__(self, "_distances", {})  # source -> vertex_distances, likewise
        object.__setattr__(self, "_network", None)  # (scale, integer adjacency), on first use
        object.__setattr__(self, "_points", {})  # vertex id -> its one GraphPoint, all at once
        object.__setattr__(self, "_canonical", {})  # m -> canonical_divisor(self, m)
        object.__setattr__(self, "_bridges", None)  # bridges(self), on first call

        if not self._is_connected():
            raise GraphStructureError("graph must be connected")

    def __setattr__(self, *args):
        raise AttributeError("WeightedDualGraph is immutable")

    def __reduce__(self):
        return WeightedDualGraph, (self.vertices, self.edges, self.rays, self.metric,
                                   self.name, self.pair_model)

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexLabel, ...]:
        return tuple(self._vertices.values())

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(self._vertices.keys())

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def rays(self) -> tuple[Ray, ...]:
        return self._rays

    def vertex(self, vid: str) -> VertexLabel:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownElementError(f"unknown vertex {vid!r}") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_index[eid]
        except KeyError:
            raise UnknownElementError(f"unknown edge {eid!r}") from None

    def ray(self, label: str) -> Ray:
        try:
            return self._ray_index[label]
        except KeyError:
            raise UnknownElementError(f"unknown ray {label!r}") from None

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vertices

    def edges_at(self, vid: str) -> tuple[Edge, ...]:
        self.vertex(vid)
        return tuple(self._edge_index[eid] for eid in self._adjacency[vid])

    def rays_at(self, vid: str) -> tuple[Ray, ...]:
        return tuple(r for r in self._rays if r.attach == vid)

    def valency(self, vid: str, include_rays: bool = True) -> int:
        """Number of edge ends at the vertex; loops count twice."""
        n = 0
        for e in self.edges_at(vid):
            n += 2 if e.a == e.b else 1
        if include_rays:
            n += len(self.rays_at(vid))
        return n

    def edge_length(self, eid: str) -> Fraction:
        """Exact length of an edge: its explicit length if it has one,
        else the formula of the graph's metric."""
        ell = self._lengths.get(eid)
        if ell is None:
            e = self.edge(eid)
            ell = e.length
            if ell is None:
                n1 = self.vertex(e.a).multiplicity
                n2 = self.vertex(e.b).multiplicity
                ell = formula_length(n1, n2, self.metric)
            self._lengths[eid] = ell
        return ell

    def loops(self) -> tuple[Edge, ...]:
        return tuple(e for e in self._edges if e.a == e.b)

    def is_loop_free(self) -> bool:
        return not self.loops()

    def is_reduced(self) -> bool:
        return all(v.multiplicity == 1 for v in self._vertices.values())

    def is_maximally_degenerate(self) -> bool:
        return self.is_reduced() and all(v.genus == 0 for v in self._vertices.values()) \
            and self.is_loop_free()

    def _is_connected(self) -> bool:
        ids = list(self._vertices)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            v = stack.pop()
            for eid in self._adjacency[v]:
                e = self._edge_index[eid]
                w = e.b if e.a == v else e.a
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(ids)

    # -- construction helpers -------------------------------------------

    def replace(self, vertices=None, edges=None, rays=None, metric=None,
                name=None, pair_model=None) -> "WeightedDualGraph":
        """A copy with the given parts swapped in; see the module notes on metrics."""
        out = WeightedDualGraph(
            vertices=self.vertices if vertices is None else vertices,
            edges=self._edges if edges is None else edges,
            rays=self._rays if rays is None else rays,
            metric=self.metric if metric is None else metric,
            name=self.name if name is None else name,
            pair_model=self.pair_model if pair_model is None else pair_model,
        )
        if out.metric is not self.metric and any(e.length is not None for e in out.edges):
            raise GraphStructureError(
                f"explicit edge lengths have no {out.metric.value}-metric counterpart")
        return out

    def without_rays(self) -> "WeightedDualGraph":
        """The compact graph: this one without its rays, and not a pair
        model.  A graph that is already both is its own compact graph;
        any other gets a new one, cold, on every call."""
        if not self._rays and not self.pair_model:
            return self
        return self.replace(rays=(), pair_model=False)

    def fresh_vertex_id(self, stem: str) -> str:
        return fresh_id(self._vertices, stem)

    # -- points ----------------------------------------------------------

    def _vertex_points(self) -> dict[str, GraphPoint]:
        """Vertex id -> the graph's own point of that vertex, all built on
        first read.  The readers key their results with these points, so
        later lookups among them match by identity."""
        points = self._points
        if not points:
            points.update((v, GraphPoint("vertex", v, None)) for v in self._vertices)
        return points

    def check_point(self, p: PointLike) -> GraphPoint:
        """Validate a point and normalize edge endpoints to vertex points.
        A vertex point comes back as given; a point the raw constructor
        made is checked for its kind and offset too."""
        p = as_point(p)
        if p.kind == "vertex":
            self.vertex(p.where)
            return p
        _check_raw(p)
        if p.kind == "edge":
            e = self.edge(p.where)
            ell = self.edge_length(p.where)
            if p.offset < 0 or p.offset > ell:
                raise InvalidPointError(
                    f"position {p.offset} outside [0, {ell}] on edge {p.where!r}"
                )
            if p.offset == 0:
                return GraphPoint.at_vertex(e.a)
            if p.offset == ell:
                return GraphPoint.at_vertex(e.b)
            return p
        self.ray(p.where)
        if p.offset <= 0:
            raise InvalidPointError("ray point distance must be positive")
        return p

    def midpoint(self, eid: str) -> GraphPoint:
        return GraphPoint.on_edge(eid, self.edge_length(eid) / 2)

    # -- equality ---------------------------------------------------------

    def _key(self):
        return (tuple(self._vertices.values()), self._edges, self._rays, self.metric)

    def __eq__(self, other):
        return isinstance(other, WeightedDualGraph) and self._key() == other._key()

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (f"<WeightedDualGraph{tag}: {len(self._vertices)} vertices, "
                f"{len(self._edges)} edges, {len(self._rays)} rays, {self.metric.value}>")


# -- module-level operations ----------------------------------------------


def graph_genus(graph: WeightedDualGraph) -> int:
    """First Betti number plus the sum of the vertex genera.  Rays are
    ignored.  For reduced graphs this is the genus of the modeled
    curve."""
    b1 = len(graph.edges) - len(graph.vertex_ids) + 1
    return b1 + sum(v.genus for v in graph.vertices)


def curve_genus(graph: WeightedDualGraph) -> Fraction:
    """Genus of the curve the graph models, from adjunction on the
    special fiber: the self-intersection of each component is pinned by
    the fiber squaring to zero, E_i^2 = -(1/N_i) sum of the neighbour
    multiplicities over the nodes on E_i.  Agrees with graph_genus on
    reduced graphs; integral whenever the labels come from an actual
    model.  Loops are resolved first."""
    if not graph.is_loop_free():
        return curve_genus(resolve_loops(graph))
    crossing = {v: Fraction(0) for v in graph.vertex_ids}
    for e in graph.edges:
        crossing[e.a] += graph.vertex(e.b).multiplicity
        crossing[e.b] += graph.vertex(e.a).multiplicity
    total = Fraction(0)
    for v in graph.vertices:
        self_int = -crossing[v.id] / v.multiplicity
        total += v.multiplicity * (2 * v.genus - 2 - self_int)
    return 1 + total / 2


def vertex_distances(graph: WeightedDualGraph, source: str) -> dict[str, Fraction]:
    """Exact single-source shortest-path distances to all vertices.

    The graph keeps one integer network, built on the first call: every
    edge length scaled by the lcm L of the length denominators, as an
    adjacency of integer steps.  Each source then runs only Dijkstra's
    heap on it, and each distance d*L comes back as Fraction(d, L),
    which is still exact.  The result is kept on the graph for that
    source, so each source costs one Dijkstra per graph; every call
    returns a fresh copy."""
    graph.vertex(source)
    known = graph._distances.get(source)
    if known is not None:
        return dict(known)
    network = graph._network
    if network is None:
        lengths = [(e.a, e.b, graph.edge_length(e.id)) for e in graph.edges if e.a != e.b]
        scale = math.lcm(*(ell.denominator for _, _, ell in lengths))
        adjacency = {v: [] for v in graph.vertex_ids}
        for a, b, ell in lengths:
            step = ell.numerator * (scale // ell.denominator)
            adjacency[a].append((b, step))
            adjacency[b].append((a, step))
        network = (scale, adjacency)
        object.__setattr__(graph, "_network", network)
    scale, adjacency = network
    dist = {source: 0}
    heap = [(0, source)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, step in adjacency[v]:
            if w not in done and (w not in dist or d + step < dist[w]):
                dist[w] = d + step
                heapq.heappush(heap, (d + step, w))
    known = graph._distances[source] = {v: Fraction(d, scale) for v, d in dist.items()}
    return dict(known)


def _kept_distances(graph, source):
    """The table ``vertex_distances`` keeps for source, read in place;
    the first read of a source goes through ``vertex_distances``, which
    fills it.  Callers must not change it."""
    return graph._distances.get(source) or vertex_distances(graph, source)


def _anchors(graph, p):
    """(vertex, cost) pairs from which p is reached along its own edge."""
    if p.kind == "vertex":
        return ((p.where, Fraction(0)),)
    e = graph.edge(p.where)
    ell = graph.edge_length(p.where)
    return ((e.a, p.offset), (e.b, ell - p.offset))


def distance(graph: WeightedDualGraph, p: PointLike, q: PointLike) -> Fraction:
    """Shortest-path distance between two points, exact.

    Two vertices read the first one's kept ``vertex_distances`` table
    without copying it; an edge point goes through both ends of its
    edge, on the kept tables of those ends.  Points on rays may only
    be paired with points on the same ray or with its attachment vertex.
    """
    p = graph.check_point(p)
    q = graph.check_point(q)
    if p.kind == "ray" or q.kind == "ray":
        if p.kind == "ray" and q.kind == "ray":
            if p.where != q.where:
                raise InvalidPointError("points on distinct rays have no finite distance")
            return abs(p.offset - q.offset)
        ray_pt, other = (p, q) if p.kind == "ray" else (q, p)
        attach = graph.ray(ray_pt.where).attach
        if other.kind == "vertex" and other.where == attach:
            return ray_pt.offset
        raise InvalidPointError("ray point paired with a point off the ray's closure")

    if p == q:
        return Fraction(0)
    if p.kind == "vertex" and q.kind == "vertex":
        return _kept_distances(graph, p.where)[q.where]
    best = None
    if p.kind == "edge" and q.kind == "edge" and p.where == q.where:
        best = abs(p.offset - q.offset)
    for va, ca in _anchors(graph, p):
        row = _kept_distances(graph, va)
        for vb, cb in _anchors(graph, q):
            d = ca + row[vb] + cb
            if best is None or d < best:
                best = d
    return best


def resolve_loops(graph: WeightedDualGraph) -> WeightedDualGraph:
    """Replace every loop by a path through a new genus-0 vertex of
    twice the multiplicity; metric lengths are preserved."""
    if graph.is_loop_free():
        return graph
    vertices = list(graph.vertices)
    edges = []
    count = 0
    for e in graph.edges:
        if e.a != e.b:
            edges.append(e)
            continue
        v = graph.vertex(e.a)
        wid = graph.fresh_vertex_id(f"{e.a}^{count}")
        count += 1
        vertices.append(VertexLabel(wid, 2 * v.multiplicity, 0))
        if e.length is None:
            half = None  # formula 1/(N*2N) already halves the loop length 1/N^2
        else:
            half = e.length / 2
        edges.append((e.a, wid, half))
        edges.append((wid, e.a, half))
    return graph.replace(vertices=vertices, edges=edges)


def split_edges(graph: WeightedDualGraph, stops: Mapping[str, list]) -> WeightedDualGraph:
    """Replace each edge named in ``stops`` in place by the chain of
    explicit-length pieces through its ``(offset, VertexLabel)`` stops,
    which the caller gives sorted, interior and with fresh ids.  An
    unsplit edge is kept as it is."""
    vertices = list(graph.vertices)
    edges: list = []
    for e in graph.edges:
        cut = stops.get(e.id, ())
        if not cut:
            edges.append(e)
            continue
        start, a = Fraction(0), e.a
        for end, b in [*((o, v.id) for o, v in cut), (graph.edge_length(e.id), e.b)]:
            edges.append((a, b, end - start))
            start, a = end, b
        vertices.extend(v for _, v in cut)
    return graph.replace(vertices=vertices, edges=edges)


def subdivide_edge_at(graph: WeightedDualGraph, eid: str, position: Rational,
                      new_label: VertexLabel) -> WeightedDualGraph:
    """Split an edge at an interior position, inserting the given vertex.

    The two pieces carry explicit lengths summing to the original."""
    ell = graph.edge_length(eid)
    position = Fraction(as_rational(position, "subdivision position"))
    if not 0 < position < ell:
        raise InvalidPointError(
            f"subdivision position {position} not interior to (0, {ell})"
        )
    if graph.has_vertex(new_label.id):
        raise GraphStructureError(f"vertex id {new_label.id!r} already exists")
    return split_edges(graph, {eid: [(position, new_label)]})


# -- refinement: the integer layout of many cuts at once --------------------


@dataclass(frozen=True)
class Refinement:
    """A graph cut at many interior points at once, as an integer layout;
    no graph is built.

    ``marks`` maps each base point to its index, in mark order: the
    vertices in vertex order, then the cuts edge by edge in order of
    position.  ``segments`` are the stretches ``(edge index, mark a, mark
    b, steps)`` between consecutive stops of each edge, edge by edge and
    from ``e.a`` on; ``steps`` is the length in units of 1/L, with L the
    lcm of the edge-length and cut denominators.  A loop without cuts has
    no segment.  ``inc[x]`` lists the segments at mark x in segment
    order, so at an interior mark the one towards ``e.a`` comes first."""

    marks: dict[GraphPoint, int]
    segments: tuple[tuple[int, int, int, int], ...]
    inc: tuple[tuple[int, ...], ...]
    L: int


def refine(graph: WeightedDualGraph, points: Iterable[GraphPoint]) -> Refinement:
    """The layout of the graph cut at the edge points among ``points``,
    which ``graph.check_point`` produced, so each lies strictly inside
    its edge; the vertices are marks anyway."""
    stops: dict[str, set[GraphPoint]] = {}
    for p in points:
        if p.kind == "edge":
            stops.setdefault(p.where, set()).add(p)
    lengths = [graph.edge_length(e.id) for e in graph.edges]
    L = math.lcm(*(x.denominator for x in lengths),
                 *(p.offset.denominator for cut in stops.values() for p in cut))
    index = {v: i for i, v in enumerate(graph.vertex_ids)}
    marks = {p: i for i, p in enumerate(graph._vertex_points().values())}
    segments: list[tuple[int, int, int, int]] = []
    inc: list[list[int]] = [[] for _ in marks]
    for i, (e, ell) in enumerate(zip(graph.edges, lengths)):
        x, at = index[e.a], 0
        for p in [*sorted(stops.get(e.id, ()), key=lambda c: c.offset), None]:
            if p is None:
                y, k = index[e.b], ell.numerator * (L // ell.denominator)
            else:
                y, k = len(marks), p.offset.numerator * (L // p.offset.denominator)
                marks[p] = y
                inc.append([])
            if x != y:
                inc[x].append(len(segments))
                inc[y].append(len(segments))
                segments.append((i, x, y, k - at))
            x, at = y, k
    return Refinement(marks, tuple(segments), tuple(map(tuple, inc)), L)
