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
on first read: the adjacency, the edge lengths, the edge lengths in
integer steps and each source's Dijkstra row of integer steps,
``refine``'s uncut layout, one ``GraphPoint`` per vertex and one
midpoint per edge asked for (the readers key their results with these
points, so later lookups match by identity), ``canonical_divisor`` for
each m, ``bridges``, each spanning tree ``is_spanning_tree`` accepts,
and the compact graph of ``without_rays()``.  The table ``_KEPT`` gives
each one's empty value and the inputs it reads.  A new graph,
``replace``'s, a copy's, a blow-up's and a series reduction's included,
starts with every one empty but the adjacency, which the constructor's
connectivity check builds (the last two are assembled without it).  The
derived views, ``without_rays()``, ``strip_genus``, the ray packs of
``sampling.random_pair_fixture`` and the graph of a ``toward_ray``
blow-up in ``weight``, are not new graphs: each changes only the rays,
the genera or the pair flag, and shares every kept value that reads
none of them (see ``WeightedDualGraph._derive``).
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


def _restore_checked(value, state) -> None:
    """``__setstate__`` of a frozen dataclass that checks its fields in
    ``__post_init__``: ``pickle`` and ``copy`` restore the fields, then
    run the constructor's checks, so no copy holds a value the
    constructor refuses."""
    value.__dict__.update(state)
    value.__post_init__()


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

    __setstate__ = _restore_checked

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

    __setstate__ = _restore_checked


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

    @classmethod
    def _trusted(cls, eid: str, a: str, b: str, length: Optional[Fraction]) -> "Edge":
        """An edge kept as given, without the dataclass ``__init__``'s one
        ``object.__setattr__`` per field: for callers whose parts already
        meet every rule the graph constructor checks on an edge (``eid``
        is ``e{i}`` at its position, ``a <= b`` are two ids of the graph,
        ``length`` is a positive Fraction or None), and say why (see
        ``models._blow_up``)."""
        edge = object.__new__(cls)
        edge.__dict__.update(id=eid, a=a, b=b, length=length)
        return edge


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


# -- kept values ------------------------------------------------------------

# The inputs a kept value may read: the vertex ids, the edges, the
# multiplicities, the metric, the rays, the genera and the pair flag.  A
# derived view (see WeightedDualGraph._derive) may change the last three.
_IDS, _EDGES, _MULTIPLICITIES, _METRIC, _RAYS, _GENERA, _PAIR = range(7)

# One row per value a graph keeps once derived, filled by its reader on
# first use: (slot, dict when it starts as a fresh empty dict and None
# when it starts as None, the inputs it reads).  A new graph starts each
# one empty (see WeightedDualGraph._assemble), and a derived view shares
# its parent's when it reads none of the inputs the view may change.
_KEPT = (
    # vertex id -> (edge id, far end, edge index) of each edge at it, in
    # id-string order (see _adjacent)
    ("_adjacency", None, (_IDS, _EDGES)),
    # edge id -> length
    ("_lengths", dict, (_EDGES, _MULTIPLICITIES, _METRIC)),
    # source -> integer Dijkstra row (see _row)
    ("_distances", dict, (_EDGES, _MULTIPLICITIES, _METRIC)),
    # (scale, steps): each edge's length in integer steps, by edge index (see _steps)
    ("_network", None, (_EDGES, _MULTIPLICITIES, _METRIC)),
    # refine's uncut integer layout (see refine)
    ("_layout", None, (_IDS, _EDGES, _MULTIPLICITIES, _METRIC)),
    # vertex id -> its one GraphPoint, all built at once (see _vertex_points)
    ("_points", dict, (_IDS,)),
    # edge id -> its one midpoint (see midpoint)
    ("_midpoints", dict, (_EDGES, _MULTIPLICITIES, _METRIC)),
    # m -> potential.canonical_divisor(graph, m)
    ("_canonical", dict, (_IDS, _EDGES, _MULTIPLICITIES, _RAYS, _GENERA)),
    # potential.bridges(graph)
    ("_bridges", None, (_IDS, _EDGES)),
    # each spanning tree potential._kept_tree accepted, a frozenset key
    ("_trees", dict, (_IDS, _EDGES)),
    # without_rays(): the compact graph, with the canonical divisors it keeps
    ("_compact", None, (_IDS, _EDGES, _MULTIPLICITIES, _METRIC, _RAYS, _GENERA, _PAIR)),
)

# the kept values a derived view shares with its parent: those that read
# none of the inputs a view may change
_VIEW_SHARES = tuple(slot for slot, _, inputs in _KEPT
                     if {_RAYS, _GENERA, _PAIR}.isdisjoint(inputs))


class WeightedDualGraph:
    """Connected weighted multigraph with rays and exact edge lengths.

    Edges are given as ``(a, b)`` pairs or ``(a, b, length)`` triples
    (or Edge objects); they receive ids ``e0, e1, ...`` in input order.
    A missing length means the metric formula applies.
    """

    __slots__ = ("name", "metric", "pair_model", "_vertices", "_edges", "_rays",
                 "_edge_index", "_ray_index", *(slot for slot, _, _ in _KEPT))

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
        before and connectivity after, and ``_derive``,
        ``models._blow_up`` and ``_series_reduction``, which assemble a
        graph from a checked one and give their reasons instead.  Every
        kept value (see ``_KEPT``) starts empty, the adjacency included."""
        put = object.__setattr__
        put(self, "name", name)
        put(self, "metric", metric)
        put(self, "pair_model", pair_model)
        put(self, "_vertices", vertices)
        put(self, "_edges", edges)
        put(self, "_rays", rays)
        put(self, "_edge_index", {e.id: e for e in edges})
        put(self, "_ray_index", {r.label: r for r in rays})
        for slot, empty, _ in _KEPT:
            put(self, slot, None if empty is None else empty())

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
        """The edges at the vertex in edge order, a loop listed once."""
        self.vertex(vid)
        return tuple(self._edges[i] for i in sorted(i for _, _, i in self._adjacent()[vid]))

    def rays_at(self, vid: str) -> tuple[Ray, ...]:
        self.vertex(vid)
        return tuple(r for r in self._rays if r.attach == vid)

    def valency(self, vid: str, include_rays: bool = True) -> int:
        """Number of edge ends at the vertex; loops count twice."""
        self.vertex(vid)
        n = sum(2 if w == vid else 1 for _, w, _ in self._adjacent()[vid])
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

    def _adjacent(self) -> dict[str, tuple[tuple[str, str, int], ...]]:
        """Vertex id -> ``(edge id, far end, edge index)`` for each edge at
        it, in id-string order (``e10`` before ``e2``), a loop listed once
        with the vertex itself as its far end: built on the first read and
        kept.  The constructor's connectivity check is such a read, and
        every reader of the edges at a vertex reads this one adjacency."""
        adjacency = self._adjacency
        if adjacency is None:
            lists = {vid: [] for vid in self._vertices}
            for i, e in enumerate(self._edges):
                lists[e.a].append((e.id, e.b, i))
                if e.b != e.a:
                    lists[e.b].append((e.id, e.a, i))
            adjacency = {vid: tuple(sorted(entries)) for vid, entries in lists.items()}
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
        any other makes a derived view (see ``_derive``) on the first
        call, which shares this graph's edges and kept values, and keeps
        it, so every later call returns that same view and the canonical
        divisors it keeps."""
        if not self._rays and not self.pair_model:
            return self
        compact = self._compact
        if compact is None:
            compact = self._derive(self._vertices, (), False)
            object.__setattr__(self, "_compact", compact)
        return compact

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
        length, and the edges connect them.  So nothing is checked again:
        the view is assembled from these parts, every kept value empty,
        and then shares this graph's edges and each kept value that reads
        none of the rays, the genera and the pair flag (see ``_KEPT``)."""
        out = object.__new__(WeightedDualGraph)
        out._assemble(vertices, self._edges, rays, self.metric, self.name, pair_model)
        for slot in _VIEW_SHARES:
            object.__setattr__(out, slot, getattr(self, slot))
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
        checked here.

        A point that is this graph's own vertex point or kept midpoint
        (the object itself, not one equal to it) comes back at once: the
        graph built it from its own vertex id, or at half of its own
        edge's positive length, so every check would pass and return it
        as given.  Any other point takes the checks."""
        p = as_point(p)
        if p.kind == "vertex":
            if p is not self._points.get(p.where):
                self.vertex(p.where)
            return p
        if p.kind == "edge":
            if p is self._midpoints.get(p.where):
                return p
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
    adjacency = graph._adjacent()
    while stack:
        v = stack.pop()
        for eid, w, _ in adjacency[v]:
            if eid in usable and w not in via:
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
    eid = e.id
    passed, taken = [], [eid]
    w = e.b if e.a == v else e.a
    adjacency = graph._adjacent()
    while graph.valency(w, include_rays=False) == 2 and through(w):
        passed.append(w)
        eid, w, _ = next(t for t in adjacency[w] if t[0] != eid)
        taken.append(eid)
    return passed, taken, w


def _steps(graph: WeightedDualGraph) -> tuple[int, list[int]]:
    """(scale, steps): scale is the lcm of the edge-length denominators,
    and ``steps[i]`` is edge i's length in steps of 1/scale, loops
    included, an edge of length n/d taking n*(scale//d) steps.  Each
    length is read off the edge's integers (a formula edge's from its
    denominator), so no length becomes a Fraction here.  A fresh list on
    every call."""
    lengths = []
    for e in graph._edges:
        if e.length is None:
            lengths.append((1, _formula_denominator(graph._vertices[e.a].multiplicity,
                                                    graph._vertices[e.b].multiplicity,
                                                    graph.metric)))
        else:
            lengths.append((e.length.numerator, e.length.denominator))
    scale = math.lcm(*(d for _, d in lengths))
    return scale, [n * (scale // d) for n, d in lengths]


def _row(graph: WeightedDualGraph, source: str):
    """(scale, row): row maps every vertex to its distance from source
    in steps of 1/scale, in the order Dijkstra first reaches them, kept
    on the graph for that source; callers must not change it.  Dijkstra
    runs on the graph's adjacency (see ``_adjacent``) with the edge steps
    of ``_steps``, kept as ``_network`` on first use; a loop's entry at
    its own vertex is never relaxed, as that vertex is done."""
    network = graph._network
    if network is None:
        network = _steps(graph)
        object.__setattr__(graph, "_network", network)
    scale, steps = network
    dist = graph._distances.get(source)
    if dist is None:
        adjacency = graph._adjacent()
        dist = {source: 0}
        heap = [(0, source)]
        done = set()
        while heap:
            d, v = heapq.heappop(heap)
            if v in done:
                continue
            done.add(v)
            for _, w, i in adjacency[v]:
                if w not in done:
                    k = d + steps[i]
                    if w not in dist or k < dist[w]:
                        dist[w] = k
                        heapq.heappush(heap, (k, w))
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
    scale, steps = _steps(graph)
    nbrs: dict[str, dict[str, int]] = {v: {} for v in graph._vertices}
    for e, step in zip(graph._edges, steps):
        a, b = e.a, e.b
        if a != b and nbrs[a].get(b, step) >= step:
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

    The graph keeps its edge lengths as integer steps, built on the
    first call: every length scaled by the lcm L of the length
    denominators.  Each source then runs only Dijkstra's heap on the
    graph's adjacency with those steps, and the graph keeps the source's
    row of integer steps, so each source costs one Dijkstra per graph.
    Every call returns a fresh dict in which each distance d*L is
    Fraction(d, L), still exact, with its keys in the order the search
    first reaches the vertices, each vertex's edges taken in id-string
    order."""
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
    its edge; the vertices are marks anyway.

    The graph keeps its uncut layout, built from ``_steps`` on the first
    call: L0, the lcm of the edge-length denominators; each edge in
    order as (index, id, mark of ``e.a``, mark of ``e.b``, length in
    units of 1/L0); and the dict from each vertex point to its mark.  A call takes L, the
    lcm of L0 and the cut denominators, scales each edge's steps by
    L // L0 and copies the marks dict, so it reads no edge length."""
    layout = graph._layout
    if layout is None:
        L0, steps = _steps(graph)
        index = {v: i for i, v in enumerate(graph._vertices)}
        layout = (L0, tuple((i, e.id, index[e.a], index[e.b], n)
                            for i, (e, n) in enumerate(zip(graph._edges, steps))),
                  {p: i for i, p in enumerate(graph._vertex_points().values())})
        object.__setattr__(graph, "_layout", layout)
    L0, edges, base = layout
    stops: dict[str, set[GraphPoint]] = {}
    for p in points:
        if p.kind == "edge":
            stops.setdefault(p.where, set()).add(p)
    L = math.lcm(L0, *(p.offset.denominator for cut in stops.values() for p in cut))
    r = L // L0
    marks = dict(base)
    segments: list[tuple[int, int, int, int]] = []
    inc: list[list[int]] = [[] for _ in marks]
    for i, eid, x, b, n in edges:
        at = 0
        cut = stops.get(eid)
        for p in sorted(cut, key=lambda c: c.offset) if cut else ():
            y, k = len(marks), p.offset.numerator * (L // p.offset.denominator)
            marks[p] = y
            inc.append([])
            inc[x].append(len(segments))
            inc[y].append(len(segments))
            segments.append((i, x, y, k - at))
            x, at = y, k
        if x != b:
            inc[x].append(len(segments))
            inc[b].append(len(segments))
            segments.append((i, x, b, n * r - at))
    return Refinement(marks, tuple(segments), tuple(map(tuple, inc)), L)
