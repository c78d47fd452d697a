"""JSON serialization for every value type, plus DOT export.

Rationals serialize as canonical "p/q" strings with q > 0 and
gcd(p, q) = 1; parsing accepts JSON integers and ``[-]p[/q]`` digit
strings only (no decimals, exponents, underscores or spaces).  Graph
edges are identified positionally: the i-th edge of the JSON list is
"e{i}", matching construction order, so round trips are bit-exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Any, Iterable, Optional

from .divisors import GraphDivisor
from .errors import GraphStructureError, InvalidPointError
from .graphs import (
    GraphPoint,
    Ray,
    VertexLabel,
    WeightedDualGraph,
)
from .loci import SubgraphLocus
from .models import BlowUpStep
from .plfunction import PLFunction
from .weight import PluricanonicalModelData


def format_rational(x) -> str:
    """x as its canonical "p/q" string; a Fraction is read as it is,
    anything else is made one first."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(raw) -> Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if isinstance(raw, str) and _RATIONAL.fullmatch(raw):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
            raise InvalidPointError(f"not a rational: {raw!r:.80}") from exc
    raise InvalidPointError(f"not a rational: {raw!r:.80}")


def _shaped(doc, kind: type, what: str, *keys: str):
    """The document itself, once it is a ``kind`` holding every key; a
    str must also encode as UTF-8, so a lone surrogate is refused here
    and never reaches an output stream."""
    if not isinstance(doc, kind) or any(k not in doc for k in keys):
        need = f"a {kind.__name__}" + (f" with keys {', '.join(keys)}" if keys else "")
        raise GraphStructureError(f"malformed {what} JSON: expected {need}, got {doc!r:.80}")
    if kind is str and not doc.isascii():
        try:
            doc.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise GraphStructureError(
                f"malformed {what} JSON: {doc!r:.80} is not UTF-8 text") from exc
    return doc


def _integer(raw, what: str) -> int:
    """A JSON integer (an int that is not a bool), never a truncated number."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise GraphStructureError(f"malformed {what} JSON: expected an integer, got {raw!r:.80}")


# -- graphs --------------------------------------------------------------------


def graph_to_json(graph: WeightedDualGraph) -> dict:
    out: dict[str, Any] = {
        "vertices": [{"id": v.id, "N": v.multiplicity, "g": v.genus}
                     for v in graph.vertices],
        "edges": [],
        "rays": [{"attach": r.attach, "label": r.label, "degree": r.degree}
                 for r in graph.rays],
        "metric": graph.metric.value,
    }
    for e in graph.edges:
        entry: dict[str, Any] = {"a": e.a, "b": e.b}
        if e.length is not None:
            entry["length"] = format_rational(e.length)
        out["edges"].append(entry)
    if graph.name:
        out["name"] = graph.name
    if graph.pair_model:
        out["pair_model"] = True
    return out


def graph_from_json(doc: dict) -> WeightedDualGraph:
    try:
        vertices = [VertexLabel(_shaped(v["id"], str, "vertex id"),
                                _integer(v.get("N", 1), "vertex N"),
                                _integer(v.get("g", 0), "vertex g"))
                    for v in doc["vertices"]]
        edges = []
        for e in doc.get("edges", ()):
            length = parse_rational(e["length"]) if "length" in e else None
            edges.append((_shaped(e["a"], str, "edge a"), _shaped(e["b"], str, "edge b"),
                          length))
        rays = [Ray(_shaped(r["attach"], str, "ray attach"),
                    _shaped(r["label"], str, "ray label"),
                    _integer(r.get("degree", 1), "ray degree"))
                for r in doc.get("rays", ())]
        return WeightedDualGraph(
            vertices=vertices, edges=edges, rays=rays,
            metric=doc.get("metric", "model"),
            name=_shaped(doc.get("name", ""), str, "graph name"),
            pair_model=_shaped(doc.get("pair_model", False), bool, "graph pair_model"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphStructureError(f"malformed graph JSON: {exc}") from exc


# -- points, divisors, functions -------------------------------------------------


def point_to_json(p: GraphPoint) -> dict:
    if p.kind == "vertex":
        return {"vertex": p.where}
    if p.kind == "edge":
        return {"edge": p.where, "position": format_rational(p.offset)}
    return {"ray": p.where, "distance": format_rational(p.offset)}


def point_from_json(doc: dict) -> GraphPoint:
    if "vertex" in _shaped(doc, dict, "point"):
        return GraphPoint.at_vertex(_shaped(doc["vertex"], str, "point vertex"))
    if "edge" in doc:
        _shaped(doc, dict, "edge point", "position")
        return GraphPoint.on_edge(_shaped(doc["edge"], str, "point edge"),
                                  parse_rational(doc["position"]))
    if "ray" in doc:
        _shaped(doc, dict, "ray point", "distance")
        return GraphPoint.on_ray(_shaped(doc["ray"], str, "point ray"),
                                 parse_rational(doc["distance"]))
    raise InvalidPointError(f"malformed point JSON: {doc!r}")


def _coeff_to_json(c):
    return c if isinstance(c, int) else format_rational(c)


def divisor_to_json(D: GraphDivisor) -> list:
    return [{"point": point_to_json(p), "coeff": _coeff_to_json(c)}
            for p, c in D.items()]


def divisor_from_json(doc: list) -> GraphDivisor:
    entries = []
    for item in _shaped(doc, list, "divisor"):
        _shaped(item, dict, "divisor entry", "point", "coeff")
        entries.append((point_from_json(item["point"]), parse_rational(item["coeff"])))
    return GraphDivisor(entries)


def function_to_json(f: PLFunction) -> list:
    out = [{"point": point_to_json(p), "value": format_rational(x)}
           for p, x in sorted(f.values.items(), key=lambda kv: kv[0].sort_key())]
    out += [{"ray": label, "slope": s}
            for label, s in sorted(f.ray_slopes.items())]
    return out


def function_from_json(doc: list) -> PLFunction:
    values = []
    slopes = {}
    for item in _shaped(doc, list, "function"):
        if "ray" in _shaped(item, dict, "function entry"):
            _shaped(item, dict, "ray slope entry", "slope")
            label = _shaped(item["ray"], str, "function ray label")
            if label in slopes:
                raise GraphStructureError(
                    f"malformed function JSON: ray {label!r} is given two slopes")
            slopes[label] = parse_rational(item["slope"])
        else:
            _shaped(item, dict, "function value entry", "point", "value")
            values.append((point_from_json(item["point"]), parse_rational(item["value"])))
    return PLFunction(values, slopes)


def ray_slopes_from_json(doc: dict) -> dict[str, Fraction]:
    """A JSON object mapping ray labels to slopes."""
    return {str(label): parse_rational(s)
            for label, s in _shaped(doc, dict, "ray slopes").items()}


def locus_to_json(locus: SubgraphLocus) -> dict:
    whole = sorted(locus.whole_edges())
    segments = []
    for eid, segs in sorted(locus.partial_segments().items()):
        for a, b in segs:
            segments.append({"edge": eid, "start": format_rational(a),
                             "end": format_rational(b)})
    return {"vertices": sorted(locus.vertices), "edges": whole,
            "segments": segments}


def locus_from_json(graph: WeightedDualGraph, doc: dict) -> SubgraphLocus:
    _shaped(doc, dict, "locus")
    segs: dict[str, list] = {}
    for item in _shaped(doc.get("segments", []), list, "locus segments"):
        _shaped(item, dict, "locus segment", "edge", "start", "end")
        segs.setdefault(_shaped(item["edge"], str, "locus segment edge"), []).append(
            (parse_rational(item["start"]), parse_rational(item["end"])))
    return SubgraphLocus(
        graph,
        vertices=[_shaped(v, str, "locus vertex")
                  for v in _shaped(doc.get("vertices", []), list, "locus vertices")],
        whole_edges=[_shaped(e, str, "locus edge")
                     for e in _shaped(doc.get("edges", []), list, "locus edges")],
        segments=segs)


# -- model data, blow-ups, witnesses ----------------------------------------------


def data_to_json(data: PluricanonicalModelData) -> dict:
    return {
        "m": data.m,
        "nu": dict(sorted(data.nu.items())),
        "rays": {label: {"deg_div": d}
                 for label, d in sorted(data.ray_degrees.items())},
        "horizontal_edges": sorted(data.horizontal_edges),
    }


def data_from_json(doc: dict) -> PluricanonicalModelData:
    _shaped(doc, dict, "data", "m", "nu")
    rays = _shaped(doc.get("rays", {}), dict, "data rays")
    return PluricanonicalModelData(
        m=_integer(doc["m"], "data m"),
        nu={str(k): _integer(v, "data nu")
            for k, v in _shaped(doc["nu"], dict, "data nu").items()},
        ray_degrees={str(k): _integer(_shaped(v, dict, "data ray", "deg_div")["deg_div"],
                                      "data ray deg_div")
                     for k, v in rays.items()},
        horizontal_edges=frozenset(
            _shaped(e, str, "data horizontal_edges entry") for e in _shaped(
                doc.get("horizontal_edges", []), list, "data horizontal_edges")),
    )


def min_locus_request_from_json(doc: Optional[dict]) -> tuple[Optional[str],
                                                             Optional[list[str]]]:
    """The (edge, tree) named by a ``verify min-locus`` data document;
    null or an empty object names neither, and the tree is optional."""
    if doc is None or not _shaped(doc, dict, "min-locus data"):
        return None, None
    _shaped(doc, dict, "min-locus data", "edge")
    tree = None
    if "tree" in doc:
        tree = [_shaped(t, str, "min-locus tree entry")
                for t in _shaped(doc["tree"], list, "min-locus tree")]
    return _shaped(doc["edge"], str, "min-locus edge"), tree


def bridge_request_from_json(doc: Optional[dict]) -> Optional[frozenset[str]]:
    """The edges of the chain named by a ``verify bridge`` data document,
    or None when it is null or names no chain."""
    if doc is None or "chain" not in _shaped(doc, dict, "bridge data"):
        return None
    return frozenset(_shaped(e, str, "bridge chain entry")
                     for e in _shaped(doc["chain"], list, "bridge chain"))


def blowups_to_json(steps: Iterable[BlowUpStep]) -> list:
    return [{"op": s.op, "target": s.target} for s in steps]


def blowups_from_json(doc: list) -> list[BlowUpStep]:
    steps = []
    for item in _shaped(doc, list, "blow-up sequence"):
        _shaped(item, dict, "blow-up step", "op", "target")
        steps.append(BlowUpStep(op=_shaped(item["op"], str, "blow-up op"),
                                target=_shaped(item["target"], str, "blow-up target")))
    return steps


def witness_to_json(bundle) -> dict:
    return {
        "tree": sorted(bundle.tree),
        "divisor": divisor_to_json(bundle.divisor),
        "function": function_to_json(bundle.function),
        "locus": locus_to_json(bundle.locus),
    }


# -- DOT export --------------------------------------------------------------------


def _dot(text: str) -> str:
    """text as a quoted DOT string, with its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: WeightedDualGraph,
               locus: Optional[SubgraphLocus] = None) -> str:
    """Deterministic DOT: vertices labelled "id (N,g)", edges labelled
    with their exact length; locus members carry a highlight attribute.
    Ids, labels and the name are written as escaped DOT strings."""
    lines = [f'graph {_dot(graph.name or "skeleton")} {{']
    in_locus_v = locus.vertices if locus is not None else frozenset()
    seg_edges = set(locus.segments) if locus is not None else set()
    whole = locus.whole_edges() if locus is not None else frozenset()
    for v in graph.vertices:
        attrs = [f'label={_dot(f"{v.id} ({v.multiplicity},{v.genus})")}']
        if v.id in in_locus_v:
            attrs.append('locus="1"')
            attrs.append("style=bold")
        lines.append(f'  {_dot(v.id)} [{", ".join(attrs)}];')
    for e in graph.edges:
        attrs = [f'label="{format_rational(graph.edge_length(e.id))}"']
        if e.id in whole:
            attrs.append('locus="1"')
            attrs.append("style=bold")
        elif e.id in seg_edges:
            attrs.append('locus="partial"')
        lines.append(f'  {_dot(e.a)} -- {_dot(e.b)} [{", ".join(attrs)}];')
    for r in graph.rays:
        lines.append(f'  {_dot(r.label)} [label={_dot(f"{r.label} (deg {r.degree})")}, '
                     'shape=plaintext];')
        lines.append(f'  {_dot(r.attach)} -- {_dot(r.label)} [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
