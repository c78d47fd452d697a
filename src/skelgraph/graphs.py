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
functions returning new graphs.  All arithmetic is exact: Fractions,
or integers counting a known unit.  So a graph keeps what it derives
on first read: the adjacency, the edge ids at each vertex, which
``edges_at`` and the depth-first search read; each edge's length; one
integer network, the edge lengths as integer steps over the lcm of
their denominators, read off each edge's numerator and denominator (a
formula edge's denominator comes from the helper behind
``formula_length``); for each source that ``vertex_distances`` or
``distance`` reads, its Dijkstra row of integer steps, from which
``vertex_distances`` builds a fresh ``Fraction`` per vertex and
``distance`` one ``Fraction`` per answer;
one ``GraphPoint`` per vertex, with which ``refine``, the function
walk, ``laplacian``, ``min_locus``, ``canonical_divisor``,
``check_point`` (for an edge end) and, in ``weight``, the weight
function and the pushforward divisor key their vertices; one midpoint
per edge that ``midpoint`` is asked for, with which the witnesses key
the points they put on edges, so lookups among all these results match
by identity; and, in ``potential``, ``canonical_divisor`` for each m
asked for and ``bridges``, both immutable.  A new graph, ``replace``'s,
a copy's, a blow-up's and a series reduction's included, starts with
none of them, but for the adjacency that the constructor's
connectivity check builds (a blow-up and a series reduction are
assembled without it), and ``_series_reduction`` keeps nothing on its
input: it reads the edge steps afresh.  The derived views are not new
graphs: ``without_rays()``, ``strip_genus``, the ray packs that
``sampling.random_pair_fixture`` sprouts and the graph of a
``toward_ray`` blow-up in ``weight`` each share their parent's edges,
vertex points and every kept value whose inputs they leave unchanged
(see ``WeightedDualGraph._derive``).
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

_ZERO = Fraction(0)  # shared by every reader that needs a zero position


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

    @classmethod
    def _trusted(cls, vid: str, multiplicity: int, genus: int) -> "VertexLabel":
        """A label kept as given, with no check: for callers whose parts
        already meet every rule above, and say why (see ``models._blow_up``)."""
        label = object.__new__(cls)
        label.__dict__.update(id=vid, multiplicity=multiplicity, genus=genus)
        return label


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
        if not isinstance(self.label, str) or not self.label:
            raise GraphStructureError(
                f"ray label must be a non-empty string, got {self.label!r:.80}")
        if not isinstance(self.attach, str) or not self.attach:
            raise GraphStructureError(
                f"ray {self.label!r}: attach must be a non-empty string, got {self.attach!r:.80}")
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
    exact positive distance from the attachment.

    The constructor checks every rule that does not need the graph: the
    kind is ``vertex``, ``edge`` or ``ray``; ``where`` is a string id; a
    vertex point has offset None; an edge or ray offset is an int or a
    Fraction and is kept as a Fraction; a ray offset is positive.  It
    raises InvalidPointError otherwise, so the readers only check a
    point against the graph."""

    __slots__ = ("kind", "where", "offset", "_hash")

    def __init__(self, kind: str, where: str, offset: Optional[Rational]):
        if kind == "vertex":
            if offset is not None:
                raise InvalidPointError(f"vertex point offset must be None, got {offset!r:.80}")
        elif kind == "edge" or kind == "ray":
            if type(offset) is not Fraction:
                if type(offset) is not int and not isinstance(offset, Fraction):
                    raise InvalidPointError(
                        f"{kind} point offset must be an int or a Fraction, got {offset!r:.80}")
                offset = Fraction(offset)
            if kind == "ray" and offset <= 0:
                raise InvalidPointError("ray point distance must be positive")
        else:
            raise InvalidPointError(f"unknown point kind {kind!r:.80}")
        if not isinstance(where, str):
            raise InvalidPointError(f"{kind} point location must be a string id, got {where!r:.80}")
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
        return GraphPoint("edge", edge_id, as_rational(position, "edge position"))

    @staticmethod
    def on_ray(ray_label: str, distance: Rational) -> "GraphPoint":
        return GraphPoint("ray", ray_label, as_rational(distance, "ray distance"))

    def __eq__(self, other):
        return self is other or (isinstance(other, GraphPoint) and self.kind == other.kind
                                 and self.where == other.where and self.offset == other.offset)

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.kind, self.where, self.offset if self.offset is not None else _ZERO)

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


def _formula_denominator(n1: int, n2: int, metric: MetricKind) -> int:
    """d in the formula length 1/d of an edge between multiplicities n1
    and n2: n1*n2 in the model metric, lcm(n1, n2) in the stable one."""
    return n1 * n2 if metric is MetricKind.MODEL else math.lcm(n1, n2)


def formula_length(n1: int, n2: int, metric: MetricKind) -> Fraction:
    """The metric's length of an edge between multiplicities n1 and n2:
    1/(n1*n2) in the model metric, 1/lcm(n1, n2) in the stable one."""
    return Fraction(1, _formula_denominator(n1, n2, metric))


class WeightedDualGraph:
    """Connected weighted multigraph with rays and exact edge lengths.

    Edges are given as ``(a, b)`` pairs or ``(a, b, length)`` triples
    (or Edge objects); they receive ids ``e0, e1, ...`` in input order.
    A missing length means the metric formula applies.
    """

    __slots__ = ("name", "metric", "pair_model", "_vertices", "_edges",
                 "_rays", "_adjacency", "_edge_index", "_ray_index", "_lengths",
                 "_distances", "_network", "_points", "_midpoints", "_canonical",
                 "_bridges")

    def __init__(self, vertices: Iterable[VertexLabel],
                 edges: Iterable = (),
                 rays: Iterable[Ray] = (),
                 metric: MetricKind = MetricKind.MODEL,
                 name: str = "",
                 pair_model: bool = False):
        given = {}
        for v in vertices:
            if not isinstance(v, VertexLabel):
                raise GraphStructureError(f"vertex must be a VertexLabel, got {v!r:.80}")
            if v.id in given:
                raise GraphStructureError(f"duplicate vertex id {v.id!r}")
            given[v.id] = v
        if not given:
            raise GraphStructureError("graph needs at least one vertex")
        self_vertices = {vid: given[vid] for vid in sorted(given)}

        metric = MetricKind.coerce(metric)
        edge_objs = []
        for i, e in enumerate(edges):
            if isinstance(e, Edge):
                a, b, length = e.a, e.b, e.length
            else:
                size = len(e) if isinstance(e, (tuple, list)) else 0
                if size == 2:
                    (a, b), length = e, None
                elif size == 3:
                    a, b, length = e
                else:
                    raise GraphStructureError(f"edge {i} must be an Edge or an (a, b) or "
                                              f"(a, b, length) tuple, got {e!r:.80}")
            try:
                known = a in self_vertices and b in self_vertices
            except TypeError:  # an unhashable endpoint
                known = False
            if not known:
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
            if not isinstance(r, Ray):
                raise GraphStructureError(f"ray must be a Ray, got {r!r:.80}")
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

        if not isinstance(name, str):
            raise GraphStructureError(f"graph name must be a string, got {name!r:.80}")
        if type(pair_model) is not bool:
            raise GraphStructureError(f"pair_model must be a bool, got {pair_model!r:.80}")

        self._assemble(self_vertices, tuple(edge_objs), tuple(ray_objs), metric, name,
                       pair_model)
        if not self._is_connected():
            raise GraphStructureError("graph must be connected")

    def _assemble(self, vertices: dict[str, VertexLabel], edges: tuple[Edge, ...],
                  rays: tuple[Ray, ...], metric: MetricKind, name: str,
                  pair_model: bool) -> None:
        """Set every slot from parts that already meet each rule the
        constructor checks: ``vertices`` maps each id to its label in
        sorted id order; ``edges`` are the Edges ``e0, e1, ...`` in order,
        each joining two of those ids with ``a <= b`` and a positive
        length or None, and together they connect the vertices; ``rays``
        attach to known vertices under distinct labels, with a pair
        model's degrees equal to the multiplicities.  Nothing is checked
        here.  Its callers: the constructor, which checks the parts
        before and connectivity after, and ``models._blow_up`` and
        ``_series_reduction``, which assemble a graph from a checked
        one and give their reasons instead.  Every kept value starts
        empty, the adjacency included."""
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "pair_model", pair_model)
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_edge_index", {e.id: e for e in edges})
        object.__setattr__(self, "_ray_index", {r.label: r for r in rays})
        # kept values, each filled on first use and named with the inputs
        # it reads; a derived view (see _derive) shares those it leaves unchanged
        # vertex id -> ids of the edges at it (see _adjacent): vertex ids, edges
        object.__setattr__(self, "_adjacency", None)
        # edge id -> length: edges, multiplicities, metric
        object.__setattr__(self, "_lengths", {})
        # source -> integer Dijkstra row: edges, multiplicities, metric
        object.__setattr__(self, "_distances", {})
        # (scale, integer adjacency): edges, multiplicities, metric
        object.__setattr__(self, "_network", None)
        # vertex id -> its one GraphPoint, all at once: vertex ids
        object.__setattr__(self, "_points", {})
        # edge id -> its one midpoint: edges, multiplicities, metric
        object.__setattr__(self, "_midpoints", {})
        # m -> canonical_divisor(self, m): edges, rays, multiplicities, genera
        object.__setattr__(self, "_canonical", {})
        # bridges(self): vertex ids, edges
        object.__setattr__(self, "_bridges", None)

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
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise UnknownElementError(f"unknown vertex {vid!r}") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_index[eid]
        except (KeyError, TypeError):
            raise UnknownElementError(f"unknown edge {eid!r}") from None

    def ray(self, label: str) -> Ray:
        try:
            return self._ray_index[label]
        except (KeyError, TypeError):
            raise UnknownElementError(f"unknown ray {label!r}") from None

    def has_vertex(self, vid: str) -> bool:
        return isinstance(vid, str) and vid in self._vertices

    def edges_at(self, vid: str) -> tuple[Edge, ...]:
        self.vertex(vid)
        return tuple(self._edge_index[eid] for eid in self._adjacent()[vid])

    def rays_at(self, vid: str) -> tuple[Ray, ...]:
        self.vertex(vid)
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
        try:
            ell = self._lengths.get(eid)
        except TypeError:  # an unhashable id, which self.edge names
            ell = None
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

    def _adjacent(self) -> dict[str, tuple[str, ...]]:
        """Vertex id -> the ids of the edges at it, in edge order, a loop
        listed once: built on the first read and kept.  The constructor's
        connectivity check is such a read."""
        adjacency = self._adjacency
        if adjacency is None:
            lists = {vid: [] for vid in self._vertices}
            for e in self._edges:
                lists[e.a].append(e.id)
                if e.b != e.a:
                    lists[e.b].append(e.id)
            adjacency = {vid: tuple(ids) for vid, ids in lists.items()}
            object.__setattr__(self, "_adjacency", adjacency)
        return adjacency

    def _is_connected(self) -> bool:
        return len(_search(self, next(iter(self._vertices)), self._edge_index)) \
            == len(self._vertices)

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
        any other gets a new derived view (see ``_derive``) on every
        call, which shares this graph's edges and kept values."""
        if not self._rays and not self.pair_model:
            return self
        return self._derive(self._vertices, (), False)

    def _derive(self, vertices: dict[str, VertexLabel], rays: tuple[Ray, ...],
                pair_model: bool) -> "WeightedDualGraph":
        """A view of this graph with ``vertices`` (id -> label, the same
        ids in the same order with the same multiplicities; the genera
        may differ), ``rays`` and ``pair_model`` swapped in.  The rays
        may be any that meet the constructor's ray rules on these
        vertices: each is a Ray attached to one of them, under a label no
        other ray has, and with ``pair_model`` each ray's degree equals
        its attachment's multiplicity.  The callers say why theirs do:
        ``without_rays`` gives none, ``skeleton.strip_genus`` this
        graph's own, and ``sampling._sprout_ray_pack`` and
        ``weight.blow_up_interior_with_data`` (``toward_ray``) new ones.

        It keeps this graph's metric, name and edges, so every other rule
        the constructor checks already holds: the ids are sorted, distinct
        and non-empty, each edge joins two of them with a positive
        length, and the edges connect them.  So nothing is checked again.
        The view shares the edges and the edge index, and each kept value
        whose inputs it leaves unchanged, as this graph holds it: the
        lengths, the integer network and rows and the midpoints (edges,
        multiplicities, metric) and the adjacency, the vertex points and
        the bridges (ids, edges).  Its ray index is this graph's when the
        rays are this graph's own tuple, else built from them.  Its
        canonical divisors start empty: K counts rays and reads the
        genera."""
        out = object.__new__(WeightedDualGraph)
        put = object.__setattr__
        for slot in ("name", "metric", "_edges", "_adjacency", "_edge_index", "_lengths",
                     "_distances", "_network", "_points", "_midpoints", "_bridges"):
            put(out, slot, getattr(self, slot))
        put(out, "pair_model", pair_model)
        put(out, "_vertices", vertices)
        put(out, "_rays", rays)
        put(out, "_ray_index",
            self._ray_index if rays is self._rays else {r.label: r for r in rays})
        put(out, "_canonical", {})
        return out

    def fresh_vertex_id(self, stem: str) -> str:
        if not isinstance(stem, str) or not stem:
            raise GraphStructureError(f"vertex id must be a non-empty string, got {stem!r:.80}")
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
        """Check a point against the graph and normalize edge endpoints to
        the graph's own vertex points.  A vertex id becomes its vertex
        point; a vertex point and any other edge or ray point come back
        as given.  The point's own rules were checked when it was made,
        so only its vertex, edge or ray and an edge offset's bounds are
        checked here."""
        p = as_point(p)
        if p.kind == "vertex":
            self.vertex(p.where)
            return p
        if p.kind == "edge":
            e = self.edge(p.where)
            ell = self.edge_length(p.where)
            if p.offset < 0 or p.offset > ell:
                raise InvalidPointError(
                    f"position {p.offset} outside [0, {ell}] on edge {p.where!r}"
                )
            if p.offset == 0:
                return self._vertex_points()[e.a]
            if p.offset == ell:
                return self._vertex_points()[e.b]
            return p
        self.ray(p.where)
        return p

    def midpoint(self, eid: str) -> GraphPoint:
        """The point halfway along an edge: the same object on every call,
        built on the first one and kept by the graph."""
        try:
            p = self._midpoints.get(eid)
        except TypeError:  # an unhashable id, which self.edge_length names
            p = None
        if p is None:
            p = self._midpoints[eid] = GraphPoint("edge", eid, self.edge_length(eid) / 2)
        return p

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
    """Genus of the curve the graph models, by adjunction on the special
    fiber: 2g - 2 = sum_v N_v (val_v + 2 g_v - 2), the sum of
    ``canonical_divisor``'s coefficients with the rays left out.  Agrees
    with graph_genus on reduced graphs; integral whenever the labels come
    from an actual model.  A loop meets its vertex twice, as its
    resolution by ``resolve_loops`` would, and both give the same genus."""
    total = sum(v.multiplicity * (graph.valency(v.id, include_rays=False) + 2 * v.genus - 2)
                for v in graph.vertices)
    return 1 + Fraction(total, 2)


def _search(graph: WeightedDualGraph, root: str, usable) -> dict:
    """``{w: (v, edge id)}`` for each vertex w reached from ``root`` along
    the edges whose ids are in ``usable`` (any container), with v the
    vertex w was first reached from, and ``root`` mapped to None.  The
    search is depth first, marks a vertex when it pushes it and takes
    each vertex's edges in id-string order (``e10`` before ``e2``)."""
    via = {root: None}
    stack = [root]
    index = graph._edge_index
    adjacency = graph._adjacent()
    while stack:
        v = stack.pop()
        for eid in sorted(adjacency[v]):
            if eid in usable:
                e = index[eid]
                w = e.b if e.a == v else e.a
                if w not in via:
                    via[w] = (v, eid)
                    stack.append(w)
    return via


def _bivalent_run(graph: WeightedDualGraph, v: str, e: Edge, through):
    """Cross the edge ``e`` from its end ``v``, then pass each vertex w with
    two edge ends (rays ignored, a loop counting twice) and ``through(w)``
    by its other edge.  Return the vertices passed, the edge ids taken from
    ``e.id`` on, and the stop vertex.  ``e`` is on no cycle of 2-valent
    vertices: a walk from a leaf cannot return, and one from a bridge meets
    only bridges (a 2-valent vertex's other edge), which form a forest."""
    passed, taken = [], [e.id]
    w = e.b if e.a == v else e.a
    while graph.valency(w, include_rays=False) == 2 and through(w):
        passed.append(w)
        e = next(t for t in graph.edges_at(w) if t.id != e.id)
        taken.append(e.id)
        w = e.b if e.a == w else e.a
    return passed, taken, w


def _steps(graph: WeightedDualGraph) -> tuple[int, list[tuple[str, str, int]]]:
    """(scale, ends): scale is the lcm of the edge-length denominators,
    and ends lists every edge but a loop as ``(a, b, steps)``, an edge of
    length n/d taking n*(scale//d) steps of 1/scale.  Each length is read
    off the edge's integers (a formula edge's from its denominator), so
    no length becomes a Fraction here.  A fresh list on every call."""
    ends = []
    for e in graph._edges:
        if e.a == e.b:
            continue
        if e.length is None:
            n, d = 1, _formula_denominator(graph._vertices[e.a].multiplicity,
                                           graph._vertices[e.b].multiplicity, graph.metric)
        else:
            n, d = e.length.numerator, e.length.denominator
        ends.append((e.a, e.b, n, d))
    scale = math.lcm(*(d for _, _, _, d in ends))
    return scale, [(a, b, n * (scale // d)) for a, b, n, d in ends]


def _row(graph: WeightedDualGraph, source: str):
    """(scale, row): row maps every vertex to its distance from source
    in steps of 1/scale, kept on the graph for that source; callers must
    not change it.  The graph's integer network, built from ``_steps`` on
    first use and kept too, is the adjacency of those steps."""
    network = graph._network
    if network is None:
        scale, ends = _steps(graph)
        adjacency = {v: [] for v in graph._vertices}
        for a, b, step in ends:
            adjacency[a].append((b, step))
            adjacency[b].append((a, step))
        network = (scale, adjacency)
        object.__setattr__(graph, "_network", network)
    scale, adjacency = network
    dist = graph._distances.get(source)
    if dist is None:
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
        graph._distances[source] = dist
    return scale, dist


def _series_reduction(graph: WeightedDualGraph, keep: Iterable[str]) -> WeightedDualGraph:
    """A graph with exactly the distances among the ``keep`` vertices
    (at least one vertex of ``graph``) that ``graph`` has, and no vertex
    off ``keep`` with fewer than three neighbours.

    It works on a fresh copy of the integer steps (see ``_steps``):
    loops are dropped and parallel edges merged into the shortest one.
    Then each vertex off ``keep`` with at most two neighbours goes, and
    each neighbour that falls to two or fewer is visited in turn.  A
    leaf is deleted: every edge is positive, so a shortest path between
    two other vertices never enters a leaf.  A vertex with two
    neighbours a and b is spliced into one edge a-b of the summed steps,
    the shorter one if a-b is already an edge: a path through it that is
    not one of its ends crosses from a to b, at exactly that cost.  So
    neither step moves a distance among the vertices left, a hanging
    tree is pruned to its root, and a chain is smoothed to one edge.

    The result is assembled (``WeightedDualGraph._assemble``) without
    the constructor's checks, since every rule they check holds: its
    vertices are the input's labels of the vertices left, in the
    input's sorted order; its edges are ``e0, e1, ...``, one per
    neighbour pair v < w, each with the explicit length
    ``Fraction(steps, scale)``, positive as a sum of positive steps; and
    dropping a loop, merging parallel edges, pruning a leaf and
    splicing a 2-neighbour vertex each keep the graph connected.  It
    has the input's metric, no rays, no name and is not a pair model.
    Nothing is kept on, or read from the kept values of, the input
    graph."""
    scale, ends = _steps(graph)
    nbrs: dict[str, dict[str, int]] = {v: {} for v in graph._vertices}
    for a, b, step in ends:
        if nbrs[a].get(b, step) >= step:
            nbrs[a][b] = nbrs[b][a] = step
    keep = set(keep)
    stack = [v for v, ws in nbrs.items() if len(ws) <= 2 and v not in keep]
    while stack:
        v = stack.pop()
        ws = nbrs.pop(v, None)
        if ws is None:  # already gone: pushed twice
            continue
        for w in ws:
            del nbrs[w][v]
        if len(ws) == 2:  # splice a-v-b into a-b
            (a, ka), (b, kb) = ws.items()
            k = ka + kb
            if nbrs[a].get(b, k) >= k:
                nbrs[a][b] = nbrs[b][a] = k
        for w in ws:
            if len(nbrs[w]) <= 2 and w not in keep:
                stack.append(w)
    labels = graph._vertices
    pairs = [(v, w, step) for v, ws in nbrs.items() for w, step in ws.items() if v < w]
    out = object.__new__(WeightedDualGraph)
    out._assemble({v: labels[v] for v in nbrs},
                  tuple(Edge(f"e{i}", v, w, Fraction(step, scale))
                        for i, (v, w, step) in enumerate(pairs)),
                  (), graph.metric, "", False)
    return out


def vertex_distances(graph: WeightedDualGraph, source: str) -> dict[str, Fraction]:
    """Exact single-source shortest-path distances to all vertices.

    The graph keeps one integer network, built on the first call: every
    edge length scaled by the lcm L of the length denominators, as an
    adjacency of integer steps.  Each source then runs only Dijkstra's
    heap on it, and the graph keeps the source's row of integer steps,
    so each source costs one Dijkstra per graph.  Every call returns a
    fresh dict in which each distance d*L is Fraction(d, L), still
    exact."""
    graph.vertex(source)
    scale, row = _row(graph, source)
    return {v: Fraction(d, scale) for v, d in row.items()}


def _anchors(graph, p):
    """(vertex, cost) pairs from which p is reached along its own edge."""
    if p.kind == "vertex":
        return ((p.where, Fraction(0)),)
    e = graph.edge(p.where)
    ell = graph.edge_length(p.where)
    return ((e.a, p.offset), (e.b, ell - p.offset))


def distance(graph: WeightedDualGraph, p: PointLike, q: PointLike) -> Fraction:
    """Shortest-path distance between two points, exact.

    Two vertices read the first one's kept row of integer steps (see
    ``vertex_distances``) and build one Fraction, the answer; an edge
    point goes through both ends of its edge, on the kept rows of those
    ends, one Fraction per pair of anchors.  Points on rays may only be
    paired with points on the same ray or with its attachment vertex;
    those answers are computed from the offsets, which every point
    keeps as Fractions.
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

    if p.kind == "vertex" and q.kind == "vertex":
        scale, row = _row(graph, p.where)
        return Fraction(row[q.where], scale)
    best = None
    if p.kind == "edge" and q.kind == "edge" and p.where == q.where:
        best = abs(p.offset - q.offset)
    for va, ca in _anchors(graph, p):
        scale, row = _row(graph, va)
        for vb, cb in _anchors(graph, q):
            d = ca + Fraction(row[vb], scale) + cb
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
    if not isinstance(new_label, VertexLabel):
        raise GraphStructureError(f"new vertex must be a VertexLabel, got {new_label!r:.80}")
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
