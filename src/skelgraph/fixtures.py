"""Named fixture graphs: Kodaira dual graphs and small stock shapes."""

from __future__ import annotations

from typing import Optional

from .errors import GraphStructureError, UnknownElementError
from .graphs import MetricKind, VertexLabel, WeightedDualGraph
from .weight import PluricanonicalModelData


def _size(n, what: str) -> None:
    """GraphStructureError naming n unless it is an int (a bool is not)."""
    if type(n) is not int:
        raise GraphStructureError(f"{what} must be an integer, got {n!r:.80}")


def kodaira_type_ii(metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Star of a multiplicity-6 center with rational components of
    multiplicities 1, 2, 3; model edge lengths 1/6, 1/12, 1/18."""
    return WeightedDualGraph(
        vertices=[VertexLabel("v1", 1), VertexLabel("v2", 2),
                  VertexLabel("v3", 3), VertexLabel("v4", 6)],
        edges=[("v1", "v4"), ("v2", "v4"), ("v3", "v4")],
        metric=metric,
        name="kodaira-II",
    )


def kodaira_type_ii_data(m: int = 1) -> PluricanonicalModelData:
    """Divisor data of the m-th power of the canonical generator on the
    type-II model: vertical multiplicities m * (1, 2, 3, 5)."""
    return PluricanonicalModelData(
        m=m, nu={"v1": m, "v2": 2 * m, "v3": 3 * m, "v4": 5 * m})


def kodaira_in_star(n: int, metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """I_n*: a chain of n+1 multiplicity-2 vertices with two
    multiplicity-1 leaves at each end."""
    _size(n, "I_n* n")
    if n < 0:
        raise GraphStructureError("I_n* needs n >= 0")
    vertices = [VertexLabel(f"c{i}", 2) for i in range(n + 1)]
    vertices += [VertexLabel(x, 1) for x in ("a1", "a2", "b1", "b2")]
    edges = [(f"c{i}", f"c{i+1}") for i in range(n)]
    edges += [("a1", "c0"), ("a2", "c0"), ("b1", f"c{n}"), ("b2", f"c{n}")]
    return WeightedDualGraph(vertices=vertices, edges=edges, metric=metric,
                             name=f"kodaira-I{n}*")


def cycle_graph(n: int, metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Reduced n-cycle (type I_n for n >= 3; n = 2 is a double edge)."""
    _size(n, "cycle size n")
    if n < 2:
        raise GraphStructureError("cycle needs n >= 2")
    vertices = [VertexLabel(f"v{i}", 1) for i in range(n)]
    edges = [(f"v{i}", f"v{(i+1) % n}") for i in range(n)]
    return WeightedDualGraph(vertices=vertices, edges=edges, metric=metric,
                             name=f"cycle-{n}")


def theta_graph(metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Two vertices joined by three parallel unit edges (genus 2)."""
    return WeightedDualGraph(
        vertices=[VertexLabel("u", 1), VertexLabel("v", 1)],
        edges=[("u", "v"), ("u", "v"), ("u", "v")],
        metric=metric, name="theta",
    )


def dumbbell(k: int = 1, metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Two triangles joined by a path of k bridge edges (genus 2)."""
    _size(k, "dumbbell bridge length k")
    if k < 1:
        raise GraphStructureError("dumbbell needs a bridge path of length >= 1")
    vertices = [VertexLabel(x, 1) for x in ("l0", "l1", "l2", "r0", "r1", "r2")]
    vertices += [VertexLabel(f"m{i}", 1) for i in range(1, k)]
    edges = [("l0", "l1"), ("l1", "l2"), ("l2", "l0"),
             ("r0", "r1"), ("r1", "r2"), ("r2", "r0")]
    chain = ["l0"] + [f"m{i}" for i in range(1, k)] + ["r0"]
    edges += list(zip(chain, chain[1:]))
    return WeightedDualGraph(vertices=vertices, edges=edges, metric=metric,
                             name=f"dumbbell-{k}")


def triangle_chain(g: int, bridge_len: int = 1,
                   metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """g triangles in a row, consecutive ones joined by bridge paths of
    the given length: a maximally degenerate genus-g graph with g-1
    maximal bridge chains."""
    _size(g, "triangle chain genus g")
    _size(bridge_len, "triangle chain bridge length")
    if g < 1:
        raise GraphStructureError("triangle chain needs g >= 1")
    if bridge_len < 1:
        raise GraphStructureError(f"triangle chain needs bridge length >= 1, got {bridge_len}")
    vertices = []
    edges = []
    for t in range(g):
        vs = [f"t{t}v{j}" for j in range(3)]
        vertices += [VertexLabel(v, 1) for v in vs]
        edges += [(vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])]
    for t in range(g - 1):
        chain = [f"t{t}v1"]
        for i in range(1, bridge_len):
            vid = f"b{t}m{i}"
            vertices.append(VertexLabel(vid, 1))
            chain.append(vid)
        chain.append(f"t{t+1}v0")
        edges += list(zip(chain, chain[1:]))
    return WeightedDualGraph(vertices=vertices, edges=edges, metric=metric,
                             name=f"triangle-chain-{g}")


def path_graph(n: int, metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Reduced path of n vertices."""
    _size(n, "path size n")
    if n < 1:
        raise GraphStructureError("path needs n >= 1")
    vertices = [VertexLabel(f"v{i}", 1) for i in range(n)]
    edges = [(f"v{i}", f"v{i+1}") for i in range(n - 1)]
    return WeightedDualGraph(vertices=vertices, edges=edges, metric=metric,
                             name=f"path-{n}")


_FIXTURES = {
    "kodaira-II": lambda n, metric: kodaira_type_ii(metric),
    "kodaira-In-star": lambda n, metric: kodaira_in_star(1 if n is None else n, metric),
    "cycle": lambda n, metric: cycle_graph(3 if n is None else n, metric),
    "theta": lambda n, metric: theta_graph(metric),
    "dumbbell": lambda n, metric: dumbbell(1 if n is None else n, metric),
    "path": lambda n, metric: path_graph(3 if n is None else n, metric),
}


def fixture(name: str, n: Optional[int] = None,
            metric: MetricKind = MetricKind.MODEL) -> WeightedDualGraph:
    """Look up a named fixture; the n parameter feeds the families."""
    try:
        build = _FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(_FIXTURES))
        raise UnknownElementError(f"unknown fixture {name!r}; known: {known}") from None
    return build(n, MetricKind.coerce(metric))


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))
