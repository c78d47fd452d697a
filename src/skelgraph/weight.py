"""Weight functions of pluricanonical forms on dual graphs.

The model data records, for an m-pluricanonical form on a model of a
pair: the vertical coefficients nu(v) of the form's divisor on the
model, the coefficient of each marked point in the divisor on the
curve (per ray), and which edges meet the horizontal part.  The weight
function takes the value nu(v)/N(v) at each vertex, is affine on every
compact edge of a pair model, and climbs each ray with slope
N * (m + d) where d is the ray's divisor coefficient.  The weight
function and the KS skeleton, with its minimum-locus cross-check, read
these values and slopes from one reader that validates the data once
per (graph, data).  The data's tables are read-only, so the data keeps
the reading until it is read on another graph object.

Two exact identities are verified: on the pair skeleton, the Laplacian
of the weight function equals the m-canonical divisor (rays counted in
the valency); after stripping the rays, the Laplacian of the
restriction equals the m-canonical divisor of the compact graph minus
the pushforward of the marked-point divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .divisors import GraphDivisor
from .errors import (
    GraphStructureError,
    HorizontalEdgeError,
    LoopsPresentError,
    MissingDataError,
    PipelineError,
    UnknownElementError,
)
from .graphs import GraphPoint, Ray, WeightedDualGraph, _restore_checked
from .loci import SubgraphLocus
from .models import _blow_up
from .plfunction import PLFunction
from .potential import _edge_set, canonical_divisor, laplacian, min_locus


@dataclass(frozen=True)
class PluricanonicalModelData:
    """Divisor data of an m-pluricanonical form on a model of a pair.

    ``nu`` and ``ray_degrees`` are read-only views of checked copies
    (``types.MappingProxyType``): an edit in place raises TypeError, and
    ``replace`` makes new data.  So the data keeps its last reading (see
    ``_weights``), the graph object it was read on and the values and
    slopes read.  Copies, pickles and ``replace`` carry the fields alone,
    the tables as plain dicts, and start with no reading."""

    m: int
    nu: Mapping[str, int]
    ray_degrees: Mapping[str, int] = field(default_factory=dict)
    horizontal_edges: frozenset = frozenset()

    def __post_init__(self):
        if type(self.m) is not int:
            raise GraphStructureError(f"m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise GraphStructureError(f"m must be >= 1, got {self.m}")
        for name, kind in (("nu", "vertex"), ("ray_degrees", "ray")):
            given = getattr(self, name)
            try:
                table = dict(given)
            except (TypeError, ValueError):
                raise GraphStructureError(
                    f"{name} must be a mapping of ids to integers, got {given!r:.80}") from None
            for key, x in table.items():
                if not isinstance(key, str):
                    raise UnknownElementError(f"unknown {kind} {key!r:.80}")
                if type(x) is not int:
                    raise GraphStructureError(f"{name}[{key!r}] must be an integer, got {x!r}")
            object.__setattr__(self, name, MappingProxyType(table))
        if isinstance(self.horizontal_edges, str):
            raise GraphStructureError(
                f"horizontal_edges must be a collection of edge ids, "
                f"not the string {self.horizontal_edges!r:.80}")
        try:
            horizontal = frozenset(self.horizontal_edges)
        except TypeError:
            raise GraphStructureError(
                f"horizontal_edges must be a collection of edge ids, "
                f"got {self.horizontal_edges!r:.80}") from None
        for eid in horizontal:
            if not isinstance(eid, str):
                raise UnknownElementError(f"unknown edge {eid!r:.80}")
        object.__setattr__(self, "horizontal_edges", horizontal)
        object.__setattr__(self, "_reading", None)

    def __getstate__(self):
        return {"m": self.m, "nu": self.nu.copy(), "ray_degrees": self.ray_degrees.copy(),
                "horizontal_edges": self.horizontal_edges}

    __setstate__ = _restore_checked

    def validate_on(self, graph: WeightedDualGraph) -> "PluricanonicalModelData":
        """The data, checked against the graph.  The horizontal edges are
        read by ``potential._edge_set``: a frozenset keeps no given order,
        so they are checked in sorted order."""
        for v in graph.vertex_ids:
            if v not in self.nu:
                raise MissingDataError(f"no nu entry for vertex {v!r}")
        for v in self.nu:
            graph.vertex(v)
        for r in graph.rays:
            if r.label not in self.ray_degrees:
                raise MissingDataError(f"no divisor coefficient for ray {r.label!r}")
            if r.degree != graph.vertex(r.attach).multiplicity:
                raise GraphStructureError(
                    f"ray {r.label!r}: degree {r.degree} != multiplicity of its "
                    f"attachment (pair-model condition)"
                )
        for label in self.ray_degrees:
            graph.ray(label)
        _edge_set(graph, self.horizontal_edges)
        return self


def _require_model_data(data) -> None:
    """GraphStructureError naming ``data`` unless it is PluricanonicalModelData."""
    if not isinstance(data, PluricanonicalModelData):
        raise GraphStructureError(
            f"model data must be a PluricanonicalModelData, got {data!r:.80}")


def _weights(graph, data, needs):
    """The value nu(v)/N(v) at each vertex, keyed by the graph's own
    point, and the slope N * (m + d) on each ray, read from validated
    data on a loop-free graph; ``needs`` opens the loop-free message, and
    data that is not PluricanonicalModelData raises GraphStructureError.

    The data keeps the reading: read again on the same graph object, it
    returns the kept dicts and validates nothing.  Every field of the
    data and of the graph is immutable, so the graph's identity alone
    says the reading still holds."""
    if not graph.is_loop_free():
        raise LoopsPresentError(f"{needs} a loop-free graph")
    _require_model_data(data)
    kept = data._reading
    if kept is not None and kept[0] is graph:
        return kept[1], kept[2]
    data.validate_on(graph)
    points = graph._vertex_points()
    values = {points[v.id]: Fraction(data.nu[v.id], v.multiplicity) for v in graph.vertices}
    slopes = {r.label: graph.vertex(r.attach).multiplicity
              * (data.m + data.ray_degrees[r.label]) for r in graph.rays}
    object.__setattr__(data, "_reading", (graph, values, slopes))
    return values, slopes


def weight_function(graph: WeightedDualGraph,
                    data: PluricanonicalModelData) -> PLFunction:
    """Value nu(v)/N(v) at every vertex, affine on compact edges, slope
    N*(m + d) on each ray, from the one reading of the data; its vertex
    keys are the graph's own points.  The function wraps the reading's
    kept dicts, not copies: a function never changes its values, and
    ``.values`` returns a copy.  Edges flagged as meeting the
    horizontal part are rejected: the function is only piecewise affine
    there and the caller must refine the model first."""
    values, slopes = _weights(graph, data, "weight functions need")
    if data.horizontal_edges:
        flagged = ", ".join(sorted(data.horizontal_edges))
        raise HorizontalEdgeError(
            f"edges [{flagged}] meet the horizontal part; the weight function "
            "is not affine there, pass a refined model"
        )
    return PLFunction._trusted(values, slopes)


def pushforward_divisor(graph: WeightedDualGraph,
                        data: PluricanonicalModelData) -> GraphDivisor:
    """Pushforward of the marked-point part of the form's divisor to the
    compact skeleton: each ray contributes deg(x) * d at its attachment,
    keyed by the graph's own point of that vertex.  Data that is not
    PluricanonicalModelData raises GraphStructureError."""
    _require_model_data(data)
    return _pushforward(graph, data.validate_on(graph))


def _pushforward(graph, data):
    """``pushforward_divisor`` of data already validated on the graph."""
    points = graph._vertex_points()
    acc: dict[GraphPoint, int] = {}
    for r in graph.rays:
        p = points[r.attach]
        acc[p] = acc.get(p, 0) + r.degree * data.ray_degrees[r.label]
    return GraphDivisor._clean(acc)


@dataclass(frozen=True)
class LaplacianReport:
    ok: bool
    pair_identity_holds: bool
    compact_identity_holds: bool
    pair_discrepancy: GraphDivisor
    compact_discrepancy: GraphDivisor

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "laplacian identities hold exactly"
        bits = []
        if not self.pair_identity_holds:
            bits.append(f"pair skeleton: Delta(wt) - mK = {self.pair_discrepancy}")
        if not self.compact_identity_holds:
            bits.append(
                f"compact: Delta(wt|) - (mK - pushforward) = {self.compact_discrepancy}")
        return "; ".join(bits)


def verify_laplacian_theorem(graph: WeightedDualGraph,
                             data: PluricanonicalModelData) -> LaplacianReport:
    """Check both exact identities for the weight function.

    On the pair skeleton (rays in the valency and in the Laplacian):
    Delta(wt) = m * K.  On the compact skeleton, ``without_rays()``:
    Delta(wt restricted) = m * K_norays - pushforward, computed there
    and not derived from the pair identity.  The data is validated
    once, by the weight function, and the pushforward reads it as
    validated; the graph keeps its compact view and that view its K,
    so a repeated check computes neither again."""
    wt = weight_function(graph, data)

    pair_lap = laplacian(graph, wt)
    pair_K = canonical_divisor(graph, data.m)
    pair_diff = pair_lap - pair_K

    stripped = graph.without_rays()
    compact_lap = laplacian(stripped, wt.without_rays())
    compact_rhs = canonical_divisor(stripped, data.m) - _pushforward(graph, data)
    compact_diff = compact_lap - compact_rhs

    ok_pair = not pair_diff
    ok_compact = not compact_diff
    return LaplacianReport(ok=ok_pair and ok_compact,
                           pair_identity_holds=ok_pair,
                           compact_identity_holds=ok_compact,
                           pair_discrepancy=pair_diff,
                           compact_discrepancy=compact_diff)


def ks_skeleton(graph: WeightedDualGraph,
                data: PluricanonicalModelData) -> SubgraphLocus:
    """Union of the essential faces: vertices attaining min nu/N, and
    edges whose endpoints both attain it and which do not meet the
    horizontal part.  When no edge is flagged and no ray slope is
    negative, the same values and slopes, as a function wrapping the
    reading's kept dicts, must have this locus as their minimum locus."""
    values, slopes = _weights(graph, data, "KS skeleton needs")
    lowest = min(values.values())
    vset = {p.where for p, r in values.items() if r == lowest}
    edges = [e.id for e in graph.edges
             if e.a in vset and e.b in vset and e.id not in data.horizontal_edges]
    locus = SubgraphLocus(graph, vertices=vset, whole_edges=edges)

    if not data.horizontal_edges and all(s >= 0 for s in slopes.values()):
        if min_locus(graph, PLFunction._trusted(values, slopes)) != locus:
            raise PipelineError(
                "KS skeleton disagrees with the weight function's minimum locus"
            )
    return locus


# -- data transport along blow-ups --------------------------------------------
#
# These extend blow-ups to (graph, data) pairs so that the new vertex
# carries the divisor multiplicity of the exceptional component.  The
# exactness of both Laplacian identities is preserved by each move.


def _entry(table, key, what):
    """``table[key]``, or MissingDataError naming what is missing."""
    try:
        return table[key]
    except KeyError:
        raise MissingDataError(f"no {what} {key!r}") from None


def blow_up_node_with_data(graph: WeightedDualGraph,
                           data: PluricanonicalModelData, eid: str):
    """Node blow-up: the exceptional component has nu' = nu1 + nu2 (the
    log-canonical bundle pulls back with no twist at a node).  Data
    that is not PluricanonicalModelData raises GraphStructureError."""
    _require_model_data(data)
    e = graph.edge(eid)
    out, (wid,) = _blow_up(graph, [("node", eid)])
    nu = data.nu.copy()
    nu[wid] = _entry(data.nu, e.a, "nu entry for vertex") + \
        _entry(data.nu, e.b, "nu entry for vertex")
    return out, replace(data, nu=nu)


def blow_up_interior_with_data(graph: WeightedDualGraph,
                               data: PluricanonicalModelData, vid: str,
                               toward_ray: Optional[str] = None):
    """Interior-point blow-up: nu' = nu + m, plus the ray coefficient if
    the blown-up point is the specialization of that marked point, in
    which case the ray moves to the new vertex.  Data that is not
    PluricanonicalModelData raises GraphStructureError.

    The moved ray is swapped into a derived view of the blown-up graph
    (``WeightedDualGraph._derive``), not a new graph, since every ray
    rule still holds: it keeps its label and degree, and the new vertex
    it moves to has its old vertex's multiplicity, so a pair model's
    degree still equals the multiplicity."""
    _require_model_data(data)
    out, (wid,) = _blow_up(graph, [("interior", vid)])
    d = 0
    if toward_ray is not None:
        ray = graph.ray(toward_ray)
        if ray.attach != vid:
            raise GraphStructureError(
                f"ray {toward_ray!r} is not attached at {vid!r}")
        d = _entry(data.ray_degrees, toward_ray, "divisor coefficient for ray")
        moved = tuple(r if r.label != toward_ray else
                      Ray(attach=wid, label=r.label, degree=r.degree)
                      for r in out.rays)
        out = out._derive(out._vertices, moved, out.pair_model)
    nu = data.nu.copy()
    nu[wid] = _entry(data.nu, vid, "nu entry for vertex") + data.m + d
    return out, replace(data, nu=nu)
