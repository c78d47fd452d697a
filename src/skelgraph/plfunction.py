"""Continuous piecewise-linear functions on the metric realization.

A PLFunction stores exact values at breakpoints (always including
every vertex once validated against a graph) and interpolates linearly
between consecutive breakpoints along each edge.  On a ray it is the
value at the attachment plus a single declared integer slope, oriented
away from the skeleton; rays never carry interior breakpoints.

Every reader that takes a graph (``evaluate``, ``edge_profile``,
``slopes_on_edge``, ``has_integer_slopes``, and the Laplacian and the
minimum locus in ``potential``) reads one walk: the function is
validated against the graph, then each edge's profile and slopes are
computed once, and kept on the function for that graph object.
Functions and graphs are immutable, so the walk cannot go stale; a
function that fails validation keeps nothing.  ``min_over_compact``
and ``shift`` take no graph and read the stored values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import InvalidPointError, NonIntegralError
from .graphs import (
    GraphPoint,
    PointLike,
    Rational,
    WeightedDualGraph,
    as_point,
)


_ZERO = Fraction(0)


def _check_normalized(graph: WeightedDualGraph, p: GraphPoint) -> None:
    if graph.check_point(p) != p:
        raise InvalidPointError(f"breakpoint {p!r} is not normalized")


def _integral_ray_slopes(ray_slopes: Mapping[str, int]) -> dict[str, int]:
    """The ray slopes as a dict of ints; raises unless each is an
    integer (an int or a Fraction with denominator 1)."""
    slopes = dict(ray_slopes.items() if hasattr(ray_slopes, "items") else ray_slopes)
    for label, s in slopes.items():
        if not isinstance(s, (int, Fraction)) or s.denominator != 1:
            raise NonIntegralError(f"ray slope for {label!r} must be an integer, got {s!r}")
    return {label: int(s) for label, s in slopes.items()}


class PLFunction:
    """Breakpoint values plus per-ray slopes."""

    __slots__ = ("_values", "_ray_slopes", "_on_edge", "_walked")

    def __init__(self, values: Mapping[PointLike, Rational],
                 ray_slopes: Mapping[str, int] = ()):
        vals = {}
        items = values.items() if hasattr(values, "items") else values
        for p, x in items:
            vals[as_point(p)] = Fraction(x)
        self._fill(vals, _integral_ray_slopes(ray_slopes))

    @classmethod
    def _trusted(cls, values: dict[GraphPoint, Fraction],
                 ray_slopes: dict[str, int]) -> "PLFunction":
        """A function from GraphPoint keys, Fraction values and int ray
        slopes, kept as given: no coercion and no slope check."""
        f = object.__new__(cls)
        f._fill(values, ray_slopes)
        return f

    def _fill(self, vals, ray_slopes):
        on_edge: dict[str, list[tuple[Fraction, Fraction]]] = {}
        for p, x in vals.items():
            if p.kind == "edge":
                on_edge.setdefault(p.where, []).append((p.offset, x))
        for pairs in on_edge.values():
            pairs.sort(key=lambda t: t[0])
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_ray_slopes", ray_slopes)
        object.__setattr__(self, "_on_edge", on_edge)  # edge id -> [(offset, value)] by offset
        object.__setattr__(self, "_walked", None)  # (graph, walk) of the last graph walked

    def __setattr__(self, *args):
        raise AttributeError("PLFunction is immutable")

    @staticmethod
    def constant(graph: WeightedDualGraph, value: Rational = 0,
                 ray_slopes: Mapping[str, int] = ()) -> "PLFunction":
        return PLFunction({v: value for v in graph.vertex_ids}, ray_slopes)

    @property
    def values(self) -> dict[GraphPoint, Fraction]:
        return dict(self._values)

    @property
    def ray_slopes(self) -> dict[str, int]:
        return dict(self._ray_slopes)

    # -- validation and geometry -----------------------------------------

    def validate_on(self, graph: WeightedDualGraph) -> "PLFunction":
        for v in graph.vertex_ids:
            self._vertex_value(v)
        for p in self._values:
            if p.kind == "ray":
                raise InvalidPointError("breakpoints on rays are not supported")
            _check_normalized(graph, p)
        for label in self._ray_slopes:
            graph.ray(label)
        return self

    def _vertex_value(self, v: str) -> Fraction:
        try:
            return self._values[GraphPoint.at_vertex(v)]
        except KeyError:
            raise InvalidPointError(f"no value at vertex {v!r}") from None

    def edge_profile(self, graph: WeightedDualGraph, eid: str):
        """Sorted (position, value) pairs along an edge, endpoints
        included; raises as ``validate_on`` does on a function that does
        not fit the graph."""
        graph.edge(eid)
        return list(self._walk(graph)[eid][1])

    def evaluate(self, graph: WeightedDualGraph, point: PointLike) -> Fraction:
        """The value at a point of the graph; raises as ``validate_on``
        does on a function that does not fit the graph."""
        p = graph.check_point(as_point(point))
        walk = self._walk(graph)
        if p.kind == "vertex":
            return self._values[p]
        if p.kind == "ray":
            attach = graph.ray(p.where).attach
            base = self._values[GraphPoint.at_vertex(attach)]
            return base + self._ray_slopes.get(p.where, 0) * p.offset
        if p in self._values:
            return self._values[p]
        profile = walk[p.where][1]
        for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
            if x0 <= p.offset <= x1:
                return y0 + (y1 - y0) * (p.offset - x0) / (x1 - x0)
        raise InvalidPointError(f"cannot evaluate at {p!r}")

    def slopes_on_edge(self, graph: WeightedDualGraph, eid: str):
        """Slopes of the maximal linear pieces along an edge, in order;
        raises as ``validate_on`` does on a function that does not fit
        the graph."""
        graph.edge(eid)
        return tuple(self._walk(graph)[eid][2])

    def has_integer_slopes(self, graph: WeightedDualGraph) -> bool:
        """Whether every linear piece has integer slope in the graph's
        metric; raises as ``validate_on`` does on a function that does
        not fit the graph."""
        return all(s.denominator == 1 for _, _, slopes in self._walk(graph).values()
                   for s in slopes)

    def _walk(self, graph: WeightedDualGraph):
        """``{edge id: (edge, profile, slopes)}`` for every edge of the
        graph, in edge order, after validating against it; computed once
        per graph object and kept until the function is walked on
        another one."""
        walked = self._walked
        if walked is not None and walked[0] is graph:
            return walked[1]
        self.validate_on(graph)
        at = {v: self._values[GraphPoint.at_vertex(v)] for v in graph.vertex_ids}
        walk = {}
        for e in graph.edges:
            profile = [(_ZERO, at[e.a]), *self._on_edge.get(e.id, ()),
                       (graph.edge_length(e.id), at[e.b])]
            slopes = [(y1 - y0) / (x1 - x0)
                      for (x0, y0), (x1, y1) in zip(profile, profile[1:])]
            walk[e.id] = (e, profile, slopes)
        object.__setattr__(self, "_walked", (graph, walk))
        return walk

    def min_over_compact(self) -> Fraction:
        """The least stored value.  Takes no graph and reads the stored
        values; validate with ``validate_on`` first."""
        return min(self._values.values())

    # -- arithmetic --------------------------------------------------------

    def shift(self, c: Rational) -> "PLFunction":
        c = Fraction(c)
        return PLFunction({p: x + c for p, x in self._values.items()}, self._ray_slopes)

    def without_rays(self) -> "PLFunction":
        return PLFunction(self._values, {})

    def __eq__(self, other):
        return (isinstance(other, PLFunction)
                and self._values == other._values
                and {r: s for r, s in self._ray_slopes.items() if s}
                == {r: s for r, s in other._ray_slopes.items() if s})

    def __repr__(self):
        n = len(self._values)
        return f"<PLFunction: {n} breakpoints, ray slopes {self._ray_slopes or '{}'}>"


def differ_by_constant(graph: WeightedDualGraph, f: PLFunction,
                       g: PLFunction) -> bool:
    """True iff f - g is a constant function (ray slopes included)."""
    if {r: s for r, s in f.ray_slopes.items() if s} != \
       {r: s for r, s in g.ray_slopes.items() if s}:
        return False
    points = set(f.values) | set(g.values)
    diffs = {f.evaluate(graph, p) - g.evaluate(graph, p) for p in points}
    return len(diffs) == 1
