"""Continuous piecewise-linear functions on the metric realization.

A PLFunction stores exact values at breakpoints (always including
every vertex once validated against a graph) and interpolates linearly
between consecutive breakpoints along each edge.  On a ray it is the
value at the attachment plus a single declared integer slope, oriented
away from the skeleton; rays never carry interior breakpoints.

Every reader that takes a graph (``validate_on``, ``evaluate``,
``edge_profile``, ``slopes_on_edge``, ``has_integer_slopes``, and the
Laplacian and the minimum locus in ``potential``) reads one walk, which
is also the validation: one pass checks the breakpoints against the
graph and computes each edge's profile, the slopes of its pieces, its
values scaled to integers and the function's own points of its
interior breakpoints, and the function keeps it for that graph object
and reads it on the graph's derived views too (``without_rays()`` and
``strip_genus``), which have the same vertex points, edges and lengths.
The slopes are unreduced integer pairs, computed from integer
coordinates without building a Fraction; ``slopes_on_edge`` turns them
into Fractions on demand.  Functions and graphs are immutable, so the
walk cannot go stale; a function that fails validation keeps nothing.
``min_over_compact`` and ``shift`` take no graph and read the stored values.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Mapping

from .errors import InvalidPointError, NonIntegralError
from .graphs import (
    GraphPoint,
    PointLike,
    Rational,
    WeightedDualGraph,
    _ZERO,
    as_point,
    as_rational,
)


def _integral_ray_slopes(ray_slopes: Mapping[str, int]) -> dict[str, int]:
    """The ray slopes as a dict of ints; raises unless each is an
    integer (an int that is not a bool, or a Fraction with denominator 1)."""
    slopes = dict(ray_slopes.items() if hasattr(ray_slopes, "items") else ray_slopes)
    for label, s in slopes.items():
        if isinstance(s, bool) or not isinstance(s, (int, Fraction)) or s.denominator != 1:
            raise NonIntegralError(f"ray slope for {label!r} must be an integer, got {s!r}")
    return {label: int(s) for label, s in slopes.items()}


class PLFunction:
    """Breakpoint values plus per-ray slopes."""

    __slots__ = ("_values", "_ray_slopes", "_walked")

    def __init__(self, values: Mapping[PointLike, Rational],
                 ray_slopes: Mapping[str, int] = ()):
        vals = {}
        items = values.items() if hasattr(values, "items") else values
        for p, x in items:
            p = as_point(p)
            if p in vals:
                raise InvalidPointError(f"breakpoint {p!r} is given two values")
            vals[p] = x if type(x) is Fraction else Fraction(as_rational(x, "function value"))
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
        object.__setattr__(self, "_values", vals)
        object.__setattr__(self, "_ray_slopes", ray_slopes)
        object.__setattr__(self, "_walked", None)  # (graph, walk, dy) of the last graph walked

    def __setattr__(self, *args):
        raise AttributeError("PLFunction is immutable")

    def __reduce__(self):
        return PLFunction, (self.values, self.ray_slopes)

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
        """This function, once checked against the graph; the check is
        the walk that every reader takes (see ``_walk``)."""
        self._walk(graph)
        return self

    def edge_profile(self, graph: WeightedDualGraph, eid: str):
        """Sorted (position, value) pairs along an edge, endpoints
        included; raises as ``validate_on`` does on a function that does
        not fit the graph."""
        graph.edge(eid)
        return list(self._walk(graph)[eid][1])

    def evaluate(self, graph: WeightedDualGraph, point: PointLike) -> Fraction:
        """The value at a point of the graph; raises as ``validate_on``
        does on a function that does not fit the graph."""
        p = graph.check_point(point)
        walk = self._walk(graph)
        if p.kind == "vertex":
            return self._values[p]
        if p.kind == "ray":
            attach = graph.ray(p.where).attach
            base = self._values[GraphPoint.at_vertex(attach)]
            return base + self._ray_slopes.get(p.where, 0) * p.offset
        profile = walk[p.where][1]
        # p is interior, so the piece [x0, x1] with x0 <= p < x1 exists
        i = bisect_right(profile, p.offset, key=itemgetter(0))
        (x0, y0), (x1, y1) = profile[i - 1], profile[i]
        return y0 + (y1 - y0) * (p.offset - x0) / (x1 - x0)

    def slopes_on_edge(self, graph: WeightedDualGraph, eid: str):
        """Slopes of the maximal linear pieces along an edge, in order;
        raises as ``validate_on`` does on a function that does not fit
        the graph."""
        graph.edge(eid)
        return tuple(Fraction(n, d) for n, d in self._walk(graph)[eid][2])

    def has_integer_slopes(self, graph: WeightedDualGraph) -> bool:
        """Whether every linear piece has integer slope in the graph's
        metric; raises as ``validate_on`` does on a function that does
        not fit the graph."""
        return all(n % d == 0 for entry in self._walk(graph).values()
                   for n, d in entry[2])

    def _walk(self, graph: WeightedDualGraph):
        """``{edge id: (edge, profile, pieces, keys, ys)}`` for every edge
        of the graph, in edge order; computed once per graph object and
        kept, with dy below, until the function is walked on a graph
        that is neither that one nor derived from the same one.

        The walk is the validation.  It raises on a vertex with no value;
        on each breakpoint, in stored order, that is on a ray or on an
        unknown vertex or edge; on an edge whose first or last sorted
        breakpoint is not in (0, ell); and on a slope for an unknown ray.
        A point's kind and offset were checked when it was made.

        ``profile`` lists the (position, value) pairs along the edge,
        endpoints included, and ``pieces`` the slope of each linear piece
        between them as an unreduced integer pair (n, d) with d > 0.
        Values are scaled to integers by dy, the lcm of all the value
        denominators, and positions by dx, the lcm of the edge's
        position denominators; a piece rising by Y over X scaled steps
        has slope Y dx / (X dy), and no Fraction is built.  ``ys`` are
        the profile's values so scaled, and ``keys`` the function's own
        points of the interior breakpoints, in profile order: empty on
        an edge without any, whose walk reads the scaled values at its
        ends and sorts and scales nothing else."""
        walked = self._walked
        if walked is not None and walked[0]._edges is graph._edges and graph._edges:
            # the walked graph, or a graph derived from the same one, as
            # only a derived view shares its parent's edge tuple: the same
            # vertex points, edges and lengths, so the same walk; only the
            # ray slopes are checked against this graph's own rays.  Every
            # edgeless graph holds the one empty tuple, so it walks afresh
            for label in self._ray_slopes:
                graph.ray(label)
            return walked[1]
        try:
            at = {v: self._values[p] for v, p in graph._vertex_points().items()}
        except KeyError as missing:
            raise InvalidPointError(f"no value at vertex {missing.args[0].where!r}") from None
        on_edge: dict[str, list[tuple[Fraction, Fraction, GraphPoint]]] = {}
        for p, y in self._values.items():
            if p.kind == "vertex":
                graph.vertex(p.where)
                continue
            if p.kind == "ray":
                raise InvalidPointError("breakpoints on rays are not supported")
            graph.edge(p.where)
            on_edge.setdefault(p.where, []).append((p.offset, y, p))
        dy = lcm(*(y.denominator for y in self._values.values()))
        scaled = {v: y.numerator * (dy // y.denominator) for v, y in at.items()}
        walk = {}
        for e in graph.edges:
            ell = graph.edge_length(e.id)
            inner = on_edge.get(e.id)
            ya, yb = scaled[e.a], scaled[e.b]
            if inner is None:
                walk[e.id] = (e, [(_ZERO, at[e.a]), (ell, at[e.b])],
                              [((yb - ya) * ell.denominator, ell.numerator * dy)], (), (ya, yb))
                continue
            inner.sort(key=itemgetter(0))
            offsets, values, keys = zip(*inner)
            dx = lcm(ell.denominator, *[x.denominator for x in offsets])
            xs = [0, *[x.numerator * (dx // x.denominator) for x in offsets],
                  ell.numerator * (dx // ell.denominator)]
            # the first and last breakpoints against (0, ell), scaled by dx
            if xs[1] <= 0 or xs[-2] >= xs[-1]:
                j, x = (1, offsets[0]) if xs[1] <= 0 else (-2, offsets[-1])
                if xs[j] in (0, xs[-1]):
                    raise InvalidPointError(
                        f"breakpoint {GraphPoint.on_edge(e.id, x)!r} is not normalized")
                raise InvalidPointError(f"position {x} outside [0, {ell}] on edge {e.id!r}")
            ys = [ya, *[y.numerator * (dy // y.denominator) for y in values], yb]
            pieces = [((y1 - y0) * dx, (x1 - x0) * dy)
                      for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])]
            walk[e.id] = (e, [(_ZERO, at[e.a]), *zip(offsets, values), (ell, at[e.b])],
                          pieces, keys, ys)
        for label in self._ray_slopes:
            graph.ray(label)
        object.__setattr__(self, "_walked", (graph, walk, dy))
        return walk

    def min_over_compact(self) -> Fraction:
        """The least stored value.  Takes no graph and reads the stored
        values; validate with ``validate_on`` first."""
        return min(self._values.values())

    # -- arithmetic --------------------------------------------------------

    def shift(self, c: Rational) -> "PLFunction":
        c = as_rational(c, "shift")
        return PLFunction._trusted({p: x + c for p, x in self._values.items()},
                                   self._ray_slopes)

    def without_rays(self) -> "PLFunction":
        """The same values with no ray slopes; the values were checked
        when this function was made, so they are shared, not copied,
        and so is the kept walk, which dropping slopes leaves valid."""
        f = PLFunction._trusted(self._values, {})
        object.__setattr__(f, "_walked", self._walked)
        return f

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
