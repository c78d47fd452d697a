"""Closed subsets of the compact part of a metric graph.

A SubgraphLocus is a finite union of whole vertices, whole edges and
closed rational subsegments of edges, kept in a canonical form: per
edge, maximal disjoint closed segments sorted by position; a segment
touching an endpoint forces that vertex into the locus (closedness),
and a segment spanning the whole edge is the whole edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .errors import InvalidPointError
from .graphs import PointLike, WeightedDualGraph, as_rational

Segment = Tuple[Fraction, Fraction]


def _merge(segments: Iterable[Segment]) -> tuple[Segment, ...]:
    segs = sorted(segments)
    out: list[Segment] = []
    for a, b in segs:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return tuple(out)


class SubgraphLocus:
    """Canonical closed locus bound to a specific graph."""

    __slots__ = ("graph", "_vertices", "_segments")

    def __init__(self, graph: WeightedDualGraph,
                 vertices: Iterable[str] = (),
                 whole_edges: Iterable[str] = (),
                 segments: Mapping[str, Iterable[Segment]] = ()):
        vset = set()
        for v in vertices:
            graph.vertex(v)
            vset.add(v)
        per_edge: dict[str, list[Segment]] = {}
        for eid in whole_edges:
            whole = (Fraction(0), graph.edge_length(eid))  # names a bad id before hashing it
            per_edge.setdefault(eid, []).append(whole)
        seg_items = segments.items() if hasattr(segments, "items") else segments
        for eid, segs in seg_items:
            for a, b in segs:
                a = Fraction(as_rational(a, "locus segment endpoint"))
                b = Fraction(as_rational(b, "locus segment endpoint"))
                if a > b:
                    a, b = b, a
                ell = graph.edge_length(eid)
                if a < 0 or b > ell:
                    raise InvalidPointError(
                        f"segment [{a}, {b}] outside [0, {ell}] on edge {eid!r}"
                    )
                per_edge.setdefault(eid, []).append((a, b))

        canon: dict[str, tuple[Segment, ...]] = {}
        for eid, segs in per_edge.items():
            e = graph.edge(eid)
            ell = graph.edge_length(eid)
            merged = []
            for a, b in _merge(segs):
                if a == 0:
                    vset.add(e.a)
                if b == ell:
                    vset.add(e.b)
                if a == b and (a == 0 or a == ell):
                    continue  # degenerate endpoint segment is just the vertex
                merged.append((a, b))
            if merged:
                canon[eid] = tuple(merged)

        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_vertices", frozenset(vset))
        object.__setattr__(self, "_segments", canon)

    @classmethod
    def _canonical(cls, graph: WeightedDualGraph, vertices: frozenset[str],
                   segments: dict[str, tuple[Segment, ...]]) -> "SubgraphLocus":
        """A locus from parts already in canonical form: known vertex
        ids, and per edge its merged, sorted, non-empty Fraction
        segments, whose vertices at the ends are in ``vertices``."""
        loc = object.__new__(cls)
        object.__setattr__(loc, "graph", graph)
        object.__setattr__(loc, "_vertices", vertices)
        object.__setattr__(loc, "_segments", segments)
        return loc

    def __setattr__(self, *args):
        raise AttributeError("SubgraphLocus is immutable")

    def __reduce__(self):
        return SubgraphLocus, (self.graph, self.vertices, (), self.segments)

    # -- queries -----------------------------------------------------------

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def segments(self) -> dict[str, tuple[Segment, ...]]:
        return dict(self._segments)

    def whole_edges(self) -> frozenset[str]:
        out = set()
        for eid, segs in self._segments.items():
            ell = self.graph.edge_length(eid)
            if segs == ((Fraction(0), ell),):
                out.add(eid)
        return frozenset(out)

    def partial_segments(self) -> dict[str, tuple[Segment, ...]]:
        whole = self.whole_edges()
        return {eid: segs for eid, segs in self._segments.items() if eid not in whole}

    def contains(self, point: PointLike) -> bool:
        p = self.graph.check_point(point)
        if p.kind == "vertex":
            return p.where in self._vertices
        if p.kind == "ray":
            return False
        for a, b in self._segments.get(p.where, ()):
            if a <= p.offset <= b:
                return True
        return False

    def _key(self):
        return (self._vertices, tuple(sorted(self._segments.items())))

    def __eq__(self, other):
        return isinstance(other, SubgraphLocus) and self._key() == other._key()

    def __le__(self, other: "SubgraphLocus") -> bool:
        if not self._vertices <= other._vertices:
            return False
        for eid, segs in self._segments.items():
            others = other._segments.get(eid, ())
            for a, b in segs:
                if not any(oa <= a and b <= ob for oa, ob in others):
                    return False
        return True

    def union(self, other: "SubgraphLocus") -> "SubgraphLocus":
        return union_loci(self.graph, (self, other))

    def __repr__(self):
        vs = ",".join(sorted(self._vertices))
        parts = []
        for eid in sorted(self._segments):
            for a, b in self._segments[eid]:
                parts.append(f"{eid}[{a},{b}]")
        return f"<SubgraphLocus vertices={{{vs}}} segments={' '.join(parts) or '-'}>"


def full_locus(graph: WeightedDualGraph) -> SubgraphLocus:
    """The whole compact part of the graph."""
    return SubgraphLocus(graph, vertices=graph.vertex_ids,
                         whole_edges=[e.id for e in graph.edges])


def vertex_locus(graph: WeightedDualGraph, *vertex_ids: str) -> SubgraphLocus:
    return SubgraphLocus(graph, vertices=vertex_ids)


def union_loci(graph: WeightedDualGraph, loci: Iterable[SubgraphLocus]) -> SubgraphLocus:
    """The union of the loci, canonicalised once from all their parts."""
    vertices: set[str] = set()
    segs: dict[str, list[Segment]] = {}
    for loc in loci:
        vertices |= loc._vertices
        for eid, ss in loc._segments.items():
            segs.setdefault(eid, []).extend(ss)
    return SubgraphLocus(graph, vertices=vertices, segments=segs)
