"""Input guards: each bad input raises its typed SkelgraphError with a
message that names the fault, and the value types refuse assignment."""

import re
from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import io as sio
from skelgraph.errors import (
    GraphStructureError as GSE,
    InvalidPointError as IPE,
    LoopsPresentError,
    UnknownElementError as UEE,
)
from skelgraph.graphs import VertexLabel as V


def _pair(attach_mult=1, loop=False):
    """u(N=attach_mult) -- v(N=1), plus an optional loop at v and a
    degree-1 ray x at u."""
    edges = [("u", "v")] + ([("v", "v")] if loop else [])
    return sk.WeightedDualGraph(vertices=[V("u", attach_mult), V("v", 1)], edges=edges,
                                rays=[sk.Ray("u", "x")])


def _data():
    return sk.PluricanonicalModelData(m=1, nu={"u": 0, "v": 0}, ray_degrees={"x": 0})


def _loop_graph():
    return sk.WeightedDualGraph(vertices=[V("u"), V("v")],
                                edges=[("u", "v"), ("u", "v"), ("v", "v")])


def _two_rays():
    g = sk.WeightedDualGraph(vertices=[V("u")],
                             rays=[sk.Ray("u", "x"), sk.Ray("u", "y")])
    return sk.distance(g, sk.GraphPoint.on_ray("x", 1), sk.GraphPoint.on_ray("y", 1))


def _short_chain():
    g = sk.fixtures.dumbbell(2)
    return sk.witness_bridge_chain(g, sk.BridgeChain(edges=("e6",), endpoints=("l0", "m1")))


def _breakpoint_on_ray():
    g = _pair()
    f = sk.PLFunction({"u": 0, "v": 0, sk.GraphPoint.on_ray("x", 1): 1})
    return f.validate_on(g)


GUARDS = [
    ("vertex-empty-id", lambda: V(""), GSE, "vertex id must be a non-empty string"),
    ("vertex-multiplicity", lambda: V("u", 0), GSE, "multiplicity must be >= 1, got 0"),
    ("vertex-genus", lambda: V("u", 1, -1), GSE, "genus must be >= 0, got -1"),
    ("ray-degree", lambda: sk.Ray("u", "x", 0), GSE, "degree must be >= 1, got 0"),
    ("ray-point-distance", lambda: sk.GraphPoint.on_ray("x", 0), IPE,
     "ray point distance must be positive"),
    ("graph-duplicate-vertex", lambda: sk.WeightedDualGraph(vertices=[V("u"), V("u")]),
     GSE, "duplicate vertex id 'u'"),
    ("graph-edge-length", lambda: sk.WeightedDualGraph(
        vertices=[V("u"), V("v")], edges=[("u", "v", 0)]), GSE,
     "edge lengths must be positive"),
    ("graph-ray-unknown-vertex", lambda: sk.WeightedDualGraph(
        vertices=[V("u")], rays=[sk.Ray("w", "x")]), UEE,
     "ray 'x' attaches to unknown vertex 'w'"),
    ("graph-duplicate-ray", lambda: sk.WeightedDualGraph(
        vertices=[V("u")], rays=[sk.Ray("u", "x"), sk.Ray("u", "x")]), GSE,
     "duplicate ray label 'x'"),
    ("graph-unknown-ray", lambda: _pair().ray("y"), UEE, "unknown ray 'y'"),
    ("subdivide-existing-id", lambda: sk.subdivide_edge_at(
        sk.fixtures.path_graph(2), "e0", F(1, 2), V("v1")), GSE,
     "vertex id 'v1' already exists"),
    ("refine-at-endpoint", lambda: sk.refine(sk.fixtures.path_graph(2), {"e0": [1]}),
     IPE, "cut 1 not interior to edge 'e0'"),
    ("distance-distinct-rays", _two_rays, IPE,
     "points on distinct rays have no finite distance"),
    ("fixture-unknown", lambda: sk.fixtures.fixture("nope"), UEE, "unknown fixture 'nope'"),
    ("fixture-in-star", lambda: sk.fixtures.kodaira_in_star(-1), GSE, "I_n* needs n >= 0"),
    ("fixture-cycle", lambda: sk.fixtures.cycle_graph(1), GSE, "cycle needs n >= 2"),
    ("fixture-dumbbell", lambda: sk.fixtures.dumbbell(0), GSE,
     "dumbbell needs a bridge path of length >= 1"),
    ("fixture-triangle-chain", lambda: sk.fixtures.triangle_chain(0), GSE,
     "triangle chain needs g >= 1"),
    ("fixture-path", lambda: sk.fixtures.path_graph(0), GSE, "path needs n >= 1"),
    ("base-change-degree", lambda: sk.base_change_subdivide(sk.fixtures.path_graph(2), 0),
     GSE, "base-change degree must be >= 1, got 0"),
    ("blowup-op", lambda: sk.BlowUpStep("edge", "e0"), GSE, "unknown blow-up op 'edge'"),
    ("canonical-divisor-m", lambda: sk.canonical_divisor(sk.fixtures.theta_graph(), 0),
     GSE, "m must be a positive integer, got 0"),
    ("spanning-tree-avoid-all", lambda: sk.spanning_tree(
        sk.fixtures.theta_graph(), avoid=["e0", "e1", "e2"]), GSE,
     "no spanning tree avoids the given edges"),
    ("reduce-with-rays", lambda: sk.reduce_divisor(_pair(), sk.GraphDivisor(), "u"), GSE,
     "reduce_divisor works on compact graphs"),
    ("tails-loops", lambda: sk.find_maximal_tails(_loop_graph()), GSE,
     "tails are defined on loop-free graphs"),
    ("canonical-locus-loops", lambda: sk.canonical_form_locus(_loop_graph()), GSE,
     "canonical-form locus needs a loop-free graph"),
    ("canonical-locus-genus-0", lambda: sk.canonical_form_locus(sk.fixtures.path_graph(2)),
     GSE, "canonical-form locus needs total genus >= 1"),
    ("canonical-locus-leaf", lambda: sk.canonical_form_locus(sk.WeightedDualGraph(
        vertices=[V("a"), V("b"), V("c")], edges=[("a", "b"), ("a", "b"), ("b", "c")])),
     GSE, "1-valent genus-0 vertex 'c'"),
    ("witness-cycle-not-reduced", lambda: sk.witness_cycle(
        sk.fixtures.kodaira_type_ii(), "e0"), GSE,
     "witness_cycle needs a maximally degenerate graph"),
    ("witness-cycle-tree-holds-edge", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), "e0", tree=["e0"]), GSE,
     "the spanning tree must avoid 'e0'"),
    ("witness-chain-not-maximal", _short_chain, GSE, "is not a maximal bridge chain here"),
    ("weight-function-loops", lambda: sk.weight_function(_pair(loop=True), _data()),
     LoopsPresentError, "weight functions need a loop-free graph"),
    ("ks-skeleton-loops", lambda: sk.ks_skeleton(_pair(loop=True), _data()),
     LoopsPresentError, "KS skeleton needs a loop-free graph"),
    ("blow-up-toward-far-ray", lambda: sk.blow_up_interior_with_data(
        _pair(), _data(), "v", toward_ray="x"), GSE, "ray 'x' is not attached at 'v'"),
    ("model-data-pair-degree", lambda: _data().validate_on(_pair(attach_mult=2)), GSE,
     "ray 'x': degree 1 != multiplicity of its attachment"),
    ("plfunction-ray-breakpoint", _breakpoint_on_ray, IPE,
     "breakpoints on rays are not supported"),
    ("io-point-empty", lambda: sio.point_from_json({}), IPE, "malformed point JSON: {}"),
    ("io-graph-metric", lambda: sio.graph_from_json(
        {"vertices": [{"id": "u"}], "edges": [], "metric": "bogus"}), GSE,
     "malformed graph JSON: 'bogus' is not a valid MetricKind"),
]


@pytest.mark.parametrize("build, error, message", [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_guard_raises_typed_error(build, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        build()
    assert type(raised.value) is error


@pytest.mark.parametrize("value, attribute", [
    (sk.fixtures.theta_graph(), "name"),
    (sk.GraphDivisor.at("u"), "_support"),
    (sk.PLFunction({"u": 0}), "_values"),
    (sk.SubgraphLocus(sk.fixtures.theta_graph(), vertices=["u"]), "graph"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_values_are_immutable(value, attribute):
    before = getattr(value, attribute)
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        setattr(value, attribute, None)
    assert getattr(value, attribute) is before
