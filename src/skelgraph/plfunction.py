"""Continuous piecewise-linear functions on the metric realization.

A PLFunction stores exact values at breakpoints (always including
every vertex once validated against a graph) and interpolates linearly
between consecutive breakpoints along each edge.  On a ray it is the
value at the attachment plus a single declared integer slope, oriented
away from the skeleton; rays never carry interior breakpoints.
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


class PLFunction:
    """Breakpoint values plus per-ray slopes."""

    __slots__ = ("_values", "_ray_slopes", "_on_edge")

    def __init__(self, values: Mapping[PointLike, Rational],
                 ray_slopes: Mapping[str, int] = ()):
        vals = {}
        items = values.items() if hasattr(values, "items") else values
        for p, x in items:
            vals[as_point(p)] = Fraction(x)
        on_edge: dict[str, list[tuple[Fraction, Fraction]]] = {}
        for p, x in vals.items():
            if p.kind == "edge":
                on_edge.setdefault(p.where, []).append((p.offset, x))
        for pairs in on_edge.values():
            pairs.sort(key=lambda t: t[0])
        slopes = dict(ray_slopes.items() if hasattr(ray_slopes, "items") else ray_slopes)
        for label, s in slopes.items():
            if not isinstance(s, (int, Fraction)) or s.denominator != 1:
                raise NonIntegralError(f"ray slope for {label!r} must be an integer, got {s!r}")
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_ray_slopes", {label: int(s) for label, s in slopes.items()})
        object.__setattr__(self, "_on_edge", on_edge)  # edge id -> [(offset, value)] by offset

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

    def breakpoints(self):
        return tuple(sorted(self._values, key=GraphPoint.sort_key))

    def ray_slope(self, label: str) -> int:
        return self._ray_slopes.get(label, 0)

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
        """Sorted (position, value) pairs along an edge, endpoints included."""
        e = graph.edge(eid)
        ell = graph.edge_length(eid)
        inner = self._on_edge.get(eid, ())
        if inner and not (inner[0][0] > 0 and inner[-1][0] < ell):
            for x in (inner[0][0], inner[-1][0]):
                _check_normalized(graph, GraphPoint.on_edge(eid, x))
        return [(_ZERO, self._vertex_value(e.a)), *inner, (ell, self._vertex_value(e.b))]

    def evaluate(self, graph: WeightedDualGraph, point: PointLike) -> Fraction:
        p = graph.check_point(as_point(point))
        if p.kind == "vertex":
            return self._vertex_value(p.where)
        if p.kind == "ray":
            attach = graph.ray(p.where).attach
            base = self._vertex_value(attach)
            return base + self.ray_slope(p.where) * p.offset
        if p in self._values:
            return self._values[p]
        profile = self.edge_profile(graph, p.where)
        for (x0, y0), (x1, y1) in zip(profile, profile[1:]):
            if x0 <= p.offset <= x1:
                return y0 + (y1 - y0) * (p.offset - x0) / (x1 - x0)
        raise InvalidPointError(f"cannot evaluate at {p!r}")

    def slopes_on_edge(self, graph: WeightedDualGraph, eid: str):
        """Slopes of the maximal linear pieces along an edge, in order."""
        profile = self.edge_profile(graph, eid)
        return tuple((y1 - y0) / (x1 - x0)
                     for (x0, y0), (x1, y1) in zip(profile, profile[1:]))

    def has_integer_slopes(self, graph: WeightedDualGraph) -> bool:
        """Whether every linear piece has integer slope in the graph's
        metric."""
        return all(s.denominator == 1 for e in graph.edges
                   for s in self.slopes_on_edge(graph, e.id))

    def min_over_compact(self) -> Fraction:
        return min(self._values.values())

    # -- arithmetic --------------------------------------------------------

    def shift(self, c: Rational) -> "PLFunction":
        c = Fraction(c)
        return PLFunction({p: x + c for p, x in self._values.items()}, self._ray_slopes)

    def min_zero_normalized(self) -> "PLFunction":
        return self.shift(-self.min_over_compact())

    def without_rays(self) -> "PLFunction":
        return PLFunction(self._values, {})

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if set(self._values) != set(other._values):
            raise InvalidPointError("breakpoint sets differ; align first")
        vals = {p: x + other._values[p] for p, x in self._values.items()}
        slopes = dict(self._ray_slopes)
        for r, s in other._ray_slopes.items():
            slopes[r] = slopes.get(r, 0) + s
        return PLFunction(vals, {r: s for r, s in slopes.items() if s})

    def __neg__(self) -> "PLFunction":
        return PLFunction({p: -x for p, x in self._values.items()},
                          {r: -s for r, s in self._ray_slopes.items()})

    def __eq__(self, other):
        return (isinstance(other, PLFunction)
                and self._values == other._values
                and {r: s for r, s in self._ray_slopes.items() if s}
                == {r: s for r, s in other._ray_slopes.items() if s})

    def __repr__(self):
        n = len(self._values)
        return f"<PLFunction: {n} breakpoints, ray slopes {self._ray_slopes or '{}'}>"


def align_breakpoints(graph: WeightedDualGraph, f: PLFunction,
                      g: PLFunction) -> tuple[PLFunction, PLFunction]:
    """Re-express both functions over the union of their breakpoints."""
    points = set(f.values) | set(g.values)
    fv = {p: f.evaluate(graph, p) for p in points}
    gv = {p: g.evaluate(graph, p) for p in points}
    return PLFunction(fv, f.ray_slopes), PLFunction(gv, g.ray_slopes)


def differ_by_constant(graph: WeightedDualGraph, f: PLFunction,
                       g: PLFunction) -> bool:
    """True iff f - g is a constant function (ray slopes included)."""
    if {r: s for r, s in f.ray_slopes.items() if s} != \
       {r: s for r, s in g.ray_slopes.items() if s}:
        return False
    points = set(f.values) | set(g.values)
    diffs = {f.evaluate(graph, p) - g.evaluate(graph, p) for p in points}
    return len(diffs) == 1
