"""Input guards: each bad input raises its typed SkelgraphError with a
message that names the fault, and the value types refuse assignment
but copy and pickle through their constructors."""

import copy
import dataclasses
import json
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import skelgraph as sk
from skelgraph import io as sio
from skelgraph.errors import (
    GraphStructureError as GSE,
    InvalidPointError as IPE,
    LoopsPresentError,
    MissingDataError as MDE,
    NonIntegralError,
    NonRationalError as NRE,
    UnknownElementError as UEE,
)
from skelgraph.graphs import VertexLabel as V
from skelgraph.sampling import random_pair_fixture


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


def _chain_wrong_endpoints():
    g = sk.fixtures.dumbbell(2)
    return sk.witness_bridge_chain(g, sk.BridgeChain(edges=("e6", "e7"),
                                                     endpoints=("l0", "zz")))


def _bridge_lemma(chain):
    """check_bridge_lemma on dumbbell(2) with a valid witness's T, D and f."""
    g = sk.fixtures.dumbbell(2)
    w = sk.witness_bridge_chain(g)
    return sk.check_bridge_lemma(g, chain, w.tree, w.divisor, w.function)


def _short_nu():
    return sk.PluricanonicalModelData(m=1, nu={"v1": 1})


def _off_graph(point):
    """The divisor (point) - (v0) on the path v0 -- v1, with point off it."""
    return sk.fixtures.path_graph(2), sk.GraphDivisor({point: 1, "v0": -1})


def _poisson_off_graph(point):
    return sk.solve_poisson(*_off_graph(point))


def _reduce_off_graph(point):
    return sk.reduce_divisor(*_off_graph(point), "v0")


def _blowups(bad_step):
    """apply_blowups on the theta graph with a good step, then ``bad_step``."""
    return sk.apply_blowups(sk.fixtures.theta_graph(), [sk.BlowUpStep("node", "e0"), bad_step])


def _invariance(bad_step):
    return sk.verify_metric_invariance(sk.fixtures.theta_graph(),
                                       [sk.BlowUpStep("node", "e0"), bad_step])


def _function_json(*entries):
    return sio.function_from_json(list(entries))


def _breakpoint_on_ray():
    g = _pair()
    f = sk.PLFunction({"u": 0, "v": 0, sk.GraphPoint.on_ray("x", 1): 1})
    return f.validate_on(g)


def _raw_distance(graph, kind, where, offset):
    """The distance from a point made by the raw constructor to vertex
    u; a point that breaks a rule of its own raises at construction."""
    return sk.distance(graph, sk.GraphPoint(kind, where, offset), "u")


def _raw_breakpoint(kind, offset):
    f = sk.PLFunction({"u": 0, "v": 0, sk.GraphPoint(kind, "e0", offset): 1})
    return f.validate_on(sk.fixtures.theta_graph())


GUARDS = [
    ("vertex-empty-id", lambda: V(""), GSE, "vertex id must be a non-empty string"),
    ("vertex-multiplicity", lambda: V("u", 0), GSE, "multiplicity must be >= 1, got 0"),
    ("vertex-genus", lambda: V("u", 1, -1), GSE, "genus must be >= 0, got -1"),
    ("ray-degree", lambda: sk.Ray("u", "x", 0), GSE, "degree must be >= 1, got 0"),
    ("vertex-fractional-genus", lambda: V("u", 1, 0.5), GSE,
     "vertex 'u': genus must be an integer, got 0.5"),
    ("vertex-float-multiplicity", lambda: V("u", 2.0), GSE,
     "vertex 'u': multiplicity must be an integer, got 2.0"),
    ("vertex-fraction-multiplicity", lambda: V("u", F(2)), GSE,
     "vertex 'u': multiplicity must be an integer, got Fraction(2, 1)"),
    ("vertex-string-multiplicity", lambda: V("u", "2"), GSE,
     "vertex 'u': multiplicity must be an integer, got '2'"),
    ("ray-string-degree", lambda: sk.Ray("u", "x", "1"), GSE,
     "ray 'x': degree must be an integer, got '1'"),
    ("ray-fractional-degree", lambda: sk.Ray("u", "x", 1.5), GSE,
     "ray 'x': degree must be an integer, got 1.5"),
    ("ray-bool-degree", lambda: sk.Ray("u", "x", True), GSE,
     "ray 'x': degree must be an integer, got True"),
    ("ray-point-distance", lambda: sk.GraphPoint.on_ray("x", 0), IPE,
     "ray point distance must be positive"),
    ("distance-raw-float-edge-offset", lambda: _raw_distance(
        sk.fixtures.theta_graph(), "edge", "e0", 0.5), IPE,
     "edge point offset must be an int or a Fraction, got 0.5"),
    ("distance-raw-bool-edge-offset", lambda: _raw_distance(
        sk.fixtures.theta_graph(), "edge", "e0", True), IPE,
     "edge point offset must be an int or a Fraction, got True"),
    ("distance-raw-unknown-kind", lambda: _raw_distance(
        sk.fixtures.theta_graph(), "blob", "e0", None), IPE, "unknown point kind 'blob'"),
    ("distance-raw-float-ray-offset", lambda: _raw_distance(_pair(), "ray", "x", 0.5), IPE,
     "ray point offset must be an int or a Fraction, got 0.5"),
    ("distance-raw-ray-not-positive", lambda: _raw_distance(_pair(), "ray", "x", F(-1)),
     IPE, "ray point distance must be positive"),
    ("plfunction-raw-float-edge-offset", lambda: _raw_breakpoint("edge", 0.25), IPE,
     "edge point offset must be an int or a Fraction, got 0.25"),
    ("plfunction-raw-bool-edge-offset", lambda: _raw_breakpoint("edge", True), IPE,
     "edge point offset must be an int or a Fraction, got True"),
    ("plfunction-raw-unknown-kind", lambda: _raw_breakpoint("blob", None), IPE,
     "unknown point kind 'blob'"),
    ("poisson-raw-float-edge-offset", lambda: _poisson_off_graph(
        sk.GraphPoint("edge", "e0", 0.25)), IPE,
     "edge point offset must be an int or a Fraction, got 0.25"),
    ("reduce-raw-float-edge-offset", lambda: _reduce_off_graph(
        sk.GraphPoint("edge", "e0", 0.25)), IPE,
     "edge point offset must be an int or a Fraction, got 0.25"),
    ("point-raw-vertex-int-offset", lambda: sk.GraphPoint("vertex", "u", 5), IPE,
     "vertex point offset must be None, got 5"),
    ("point-raw-vertex-fraction-offset", lambda: sk.GraphPoint("vertex", "u", F(1, 2)), IPE,
     "vertex point offset must be None, got Fraction(1, 2)"),
    ("point-raw-edge-none-offset", lambda: sk.GraphPoint("edge", "e0", None), IPE,
     "edge point offset must be an int or a Fraction, got None"),
    ("point-raw-ray-zero-offset", lambda: sk.GraphPoint("ray", "x", 0), IPE,
     "ray point distance must be positive"),
    ("point-raw-ray-negative-offset", lambda: sk.GraphPoint("ray", "x", -1), IPE,
     "ray point distance must be positive"),
    ("locus-float-endpoint", lambda: sk.SubgraphLocus(
        sk.fixtures.path_graph(2), segments={"e0": [(0.1, 0.2)]}), NRE,
     "locus segment endpoint must be an int or a Fraction, got 0.1"),
    ("locus-string-endpoint", lambda: sk.SubgraphLocus(
        sk.fixtures.path_graph(2), segments={"e0": [("1/3", "1/2")]}), NRE,
     "locus segment endpoint must be an int or a Fraction, got '1/3'"),
    ("locus-bool-endpoint", lambda: sk.SubgraphLocus(
        sk.fixtures.path_graph(2), segments={"e0": [(True, 0)]}), NRE,
     "locus segment endpoint must be an int or a Fraction, got True"),
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
    ("blowup-target-list", lambda: sk.BlowUpStep("interior", ["a"]), GSE,
     "blow-up target must be a non-empty string, got ['a']"),
    ("blowup-target-int", lambda: sk.BlowUpStep("node", 5), GSE,
     "blow-up target must be a non-empty string, got 5"),
    ("blowup-target-empty", lambda: sk.BlowUpStep("node", ""), GSE,
     "blow-up target must be a non-empty string, got ''"),
    ("blow-up-interior-target-list", lambda: sk.blow_up_interior_point(
        sk.fixtures.kodaira_type_ii(), ["a"]), UEE, "unknown vertex ['a']"),
    ("blow-up-interior-with-data-target-list", lambda: sk.blow_up_interior_with_data(
        sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data(), ["v1"]), UEE,
     "unknown vertex ['v1']"),
    ("blow-up-node-target-list", lambda: sk.blow_up_node(sk.fixtures.kodaira_type_ii(), ["e0"]),
     UEE, "unknown edge ['e0']"),
    ("blowup-step-tuple", lambda: _blowups(("node", "e0")), GSE,
     "blow-up step 1 is not a BlowUpStep: ('node', 'e0')"),
    ("blowup-step-none", lambda: _blowups(None), GSE, "blow-up step 1 is not a BlowUpStep: None"),
    ("blowup-step-string", lambda: _blowups("e0"), GSE,
     "blow-up step 1 is not a BlowUpStep: 'e0'"),
    ("invariance-step-tuple", lambda: _invariance(("node", "e0")), GSE,
     "blow-up step 1 is not a BlowUpStep: ('node', 'e0')"),
    ("invariance-step-none", lambda: _invariance(None), GSE,
     "blow-up step 1 is not a BlowUpStep: None"),
    ("invariance-step-string", lambda: _invariance("e0"), GSE,
     "blow-up step 1 is not a BlowUpStep: 'e0'"),
    ("apply-blowups-one-step", lambda: sk.apply_blowups(
        sk.fixtures.theta_graph(), sk.BlowUpStep("node", "e0")), GSE,
     "blow-up steps must be an iterable of BlowUpSteps, "
     "got BlowUpStep(op='node', target='e0')"),
    ("apply-blowups-none", lambda: sk.apply_blowups(sk.fixtures.theta_graph(), None), GSE,
     "blow-up steps must be an iterable of BlowUpSteps, got None"),
    ("invariance-steps-int", lambda: sk.verify_metric_invariance(sk.fixtures.theta_graph(), 5),
     GSE, "blow-up steps must be an iterable of BlowUpSteps, got 5"),
    ("blow-up-interior-with-data-int-data", lambda: sk.blow_up_interior_with_data(
        sk.fixtures.kodaira_type_ii(), 5, "v1"), GSE,
     "model data must be a PluricanonicalModelData, got 5"),
    ("blow-up-node-with-data-dict-data", lambda: sk.blow_up_node_with_data(
        sk.fixtures.kodaira_type_ii(), {"m": 1}, "e0"), GSE,
     "model data must be a PluricanonicalModelData, got {'m': 1}"),
    ("pair-fixture-negative-moves", lambda: random_pair_fixture(random.Random(0), 1, moves=-1),
     GSE, "moves must be an integer >= 0, got -1"),
    ("canonical-divisor-m-not-integer", lambda: sk.canonical_divisor(
        sk.fixtures.triangle_chain(2), 1.5), GSE, "m must be a positive integer, got 1.5"),
    ("model-data-m-not-integer", lambda: sk.PluricanonicalModelData(m=2.5, nu={"u": 0}),
     GSE, "m must be an integer, got 2.5"),
    ("model-data-nu-not-integer", lambda: sk.PluricanonicalModelData(m=1, nu={"u": 0.5}),
     GSE, "nu['u'] must be an integer, got 0.5"),
    ("model-data-horizontal-string", lambda: sk.PluricanonicalModelData(
        m=1, nu={"u": 0}, horizontal_edges="e0"), GSE,
     "horizontal_edges must be a collection of edge ids, not the string 'e0'"),
    ("model-data-ray-degree-not-integer", lambda: sk.PluricanonicalModelData(
        m=1, nu={"u": 0}, ray_degrees={"x": F(1, 2)}), GSE,
     "ray_degrees['x'] must be an integer, got Fraction(1, 2)"),
    ("model-data-nu-not-iterable", lambda: sk.PluricanonicalModelData(m=1, nu=5), GSE,
     "nu must be a mapping of ids to integers, got 5"),
    ("model-data-ray-degrees-none", lambda: sk.PluricanonicalModelData(
        m=1, nu={"u": 0}, ray_degrees=None), GSE,
     "ray_degrees must be a mapping of ids to integers, got None"),
    ("model-data-nu-not-pairs", lambda: sk.PluricanonicalModelData(m=1, nu=["abc"]), GSE,
     "nu must be a mapping of ids to integers, got ['abc']"),
    ("model-data-horizontal-not-iterable", lambda: sk.PluricanonicalModelData(
        m=1, nu={"u": 0}, horizontal_edges=5), GSE,
     "horizontal_edges must be a collection of edge ids, got 5"),
    ("model-data-horizontal-unhashable", lambda: sk.PluricanonicalModelData(
        m=1, nu={"u": 0}, horizontal_edges=[["e0"]]), GSE,
     "horizontal_edges must be a collection of edge ids, got [['e0']]"),
    ("divisor-float-coefficient", lambda: sk.GraphDivisor({"v": 0.1}), NRE,
     "divisor coefficient must be an int or a Fraction, got 0.1"),
    ("divisor-string-coefficient", lambda: sk.GraphDivisor({"v": "1/2"}), NRE,
     "divisor coefficient must be an int or a Fraction, got '1/2'"),
    ("divisor-bool-coefficient", lambda: sk.GraphDivisor.at("v", True), NRE,
     "divisor coefficient must be an int or a Fraction, got True"),
    ("divisor-float-multiplier", lambda: 0.5 * sk.GraphDivisor({"v": 2}), NRE,
     "divisor multiplier must be an int or a Fraction, got 0.5"),
    ("divisor-bool-multiplier-of-zero", lambda: True * sk.GraphDivisor(), NRE,
     "divisor multiplier must be an int or a Fraction, got True"),
    ("plfunction-float-value", lambda: sk.PLFunction({"v": 0.1}), NRE,
     "function value must be an int or a Fraction, got 0.1"),
    ("plfunction-float-shift", lambda: sk.PLFunction({"v": 0}).shift(0.5), NRE,
     "shift must be an int or a Fraction, got 0.5"),
    ("plfunction-point-twice", lambda: sk.PLFunction(
        {"a": 0, sk.GraphPoint.at_vertex("a"): 1}), IPE,
     "breakpoint GraphPoint.at_vertex('a') is given two values"),
    ("plfunction-pair-twice", lambda: sk.PLFunction([("a", 0), ("a", 5)]), IPE,
     "breakpoint GraphPoint.at_vertex('a') is given two values"),
    ("point-float-edge-position", lambda: sk.GraphPoint.on_edge("e0", 0.25), NRE,
     "edge position must be an int or a Fraction, got 0.25"),
    ("point-string-ray-distance", lambda: sk.GraphPoint.on_ray("x", "1"), NRE,
     "ray distance must be an int or a Fraction, got '1'"),
    ("graph-float-edge-length", lambda: sk.WeightedDualGraph(
        vertices=[V("u"), V("v")], edges=[("u", "v", 0.1)]), NRE,
     "edge length must be an int or a Fraction, got 0.1"),
    ("subdivide-float-position", lambda: sk.subdivide_edge_at(
        sk.fixtures.path_graph(2), "e0", 0.5, V("w")), NRE,
     "subdivision position must be an int or a Fraction, got 0.5"),
    ("canonical-divisor-m", lambda: sk.canonical_divisor(sk.fixtures.theta_graph(), 0),
     GSE, "m must be a positive integer, got 0"),
    ("spanning-tree-avoid-all", lambda: sk.spanning_tree(
        sk.fixtures.theta_graph(), avoid=["e0", "e1", "e2"]), GSE,
     "no spanning tree avoids the given edges"),
    ("spanning-tree-avoid-unknown", lambda: sk.spanning_tree(
        sk.fixtures.theta_graph(), avoid=["e1", "e99"]), UEE, "unknown edge 'e99'"),
    # a bare string is iterated by character, and 'e' names no edge
    ("spanning-tree-avoid-string", lambda: sk.spanning_tree(
        sk.fixtures.theta_graph(), avoid="e0"), UEE, "unknown edge 'e'"),
    ("poisson-ray-anchor", lambda: sk.solve_poisson(
        _pair(), sk.GraphDivisor({"u": 1, "v": -1}), anchor=sk.GraphPoint.on_ray("x", 1)),
     IPE, "anchor GraphPoint.on_ray('x', '1') is on a ray; it must be on the compact part"),
    ("poisson-unknown-edge", lambda: _poisson_off_graph(sk.GraphPoint.on_edge("e9", F(1, 2))),
     UEE, "unknown edge 'e9'"),
    ("reduce-unknown-edge", lambda: _reduce_off_graph(sk.GraphPoint.on_edge("e9", F(1, 2))),
     UEE, "unknown edge 'e9'"),
    ("poisson-past-edge-end", lambda: _poisson_off_graph(sk.GraphPoint.on_edge("e0", 5)),
     IPE, "position 5 outside [0, 1] on edge 'e0'"),
    ("reduce-past-edge-end", lambda: _reduce_off_graph(sk.GraphPoint.on_edge("e0", 5)),
     IPE, "position 5 outside [0, 1] on edge 'e0'"),
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
    ("witness-cycle-unknown-edge", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), "e99"), UEE, "unknown edge 'e99'"),
    ("witness-cycle-tree-holds-edge", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), "e0", tree=["e0"]), GSE,
     "the spanning tree must avoid 'e0'"),
    ("witness-cycle-empty-tree", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), "e0", tree=[]), GSE, "tree [] is not a spanning tree"),
    ("witness-cycle-tree-not-spanning", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), "e0", tree=["e1", "e2"]), GSE,
     "tree ['e1', 'e2'] is not a spanning tree"),
    ("witness-chain-tree-not-spanning", lambda: sk.witness_bridge_chain(
        sk.fixtures.dumbbell(1), tree=["e0", "e1", "e3", "e4"]), GSE,
     "tree ['e0', 'e1', 'e3', 'e4'] is not a spanning tree"),
    ("witness-chain-not-maximal", _short_chain, GSE, "is not a maximal bridge chain here"),
    ("witness-chain-wrong-endpoints", _chain_wrong_endpoints, GSE,
     "is not a maximal bridge chain here"),
    ("weight-function-loops", lambda: sk.weight_function(_pair(loop=True), _data()),
     LoopsPresentError, "weight functions need a loop-free graph"),
    ("ks-skeleton-loops", lambda: sk.ks_skeleton(_pair(loop=True), _data()),
     LoopsPresentError, "KS skeleton needs a loop-free graph"),
    ("blow-up-toward-far-ray", lambda: sk.blow_up_interior_with_data(
        _pair(), _data(), "v", toward_ray="x"), GSE, "ray 'x' is not attached at 'v'"),
    ("blow-up-node-missing-nu", lambda: sk.blow_up_node_with_data(
        sk.fixtures.kodaira_type_ii(), _short_nu(), "e0"), MDE,
     "no nu entry for vertex 'v4'"),
    ("blow-up-interior-missing-nu", lambda: sk.blow_up_interior_with_data(
        sk.fixtures.kodaira_type_ii(), _short_nu(), "v4"), MDE,
     "no nu entry for vertex 'v4'"),
    ("blow-up-toward-ray-missing-coefficient", lambda: sk.blow_up_interior_with_data(
        _pair(), sk.PluricanonicalModelData(m=1, nu={"u": 0, "v": 0}), "u", toward_ray="x"),
     MDE, "no divisor coefficient for ray 'x'"),
    ("model-data-pair-degree", lambda: _data().validate_on(_pair(attach_mult=2)), GSE,
     "ray 'x': degree 1 != multiplicity of its attachment"),
    ("plfunction-ray-breakpoint", _breakpoint_on_ray, IPE,
     "breakpoints on rays are not supported"),
    ("plfunction-bool-ray-slope", lambda: sk.PLFunction({"a": 0}, {"x": True}),
     NonIntegralError, "ray slope for 'x' must be an integer, got True"),
    ("io-point-empty", lambda: sio.point_from_json({}), IPE, "malformed point JSON: {}"),
    ("io-function-point-twice", lambda: _function_json(
        {"point": {"vertex": "a"}, "value": "0"}, {"point": {"vertex": "a"}, "value": "5"}),
     IPE, "breakpoint GraphPoint.at_vertex('a') is given two values"),
    ("io-function-ray-twice", lambda: _function_json(
        {"point": {"vertex": "a"}, "value": "0"}, {"ray": "x", "slope": 1},
        {"ray": "x", "slope": 2}), GSE, "malformed function JSON: ray 'x' is given two slopes"),
    ("io-graph-metric", lambda: sio.graph_from_json(
        {"vertices": [{"id": "u"}], "edges": [], "metric": "bogus"}), GSE,
     "unknown metric 'bogus'; known: model, stable"),
    ("graph-unknown-metric", lambda: sk.WeightedDualGraph(vertices=[V("u")], metric="foo"),
     GSE, "unknown metric 'foo'; known: model, stable"),
    ("graph-replace-unknown-metric", lambda: sk.fixtures.theta_graph().replace(metric="foo"),
     GSE, "unknown metric 'foo'; known: model, stable"),
    ("fixture-unknown-metric", lambda: sk.fixtures.fixture("theta", metric="foo"), GSE,
     "unknown metric 'foo'; known: model, stable"),
    ("base-change-float-degree", lambda: sk.base_change_subdivide(
        sk.fixtures.path_graph(2), 2.0), GSE, "base-change degree must be an integer, got 2.0"),
    ("base-change-string-degree", lambda: sk.base_change_subdivide(
        sk.fixtures.path_graph(2), "2"), GSE, "base-change degree must be an integer, got '2'"),
    ("base-change-bool-degree", lambda: sk.base_change_subdivide(
        sk.fixtures.path_graph(2), True), GSE,
     "base-change degree must be an integer, got True"),
    ("fixture-cycle-float", lambda: sk.fixtures.cycle_graph(3.0), GSE,
     "cycle size n must be an integer, got 3.0"),
    ("fixture-cycle-string", lambda: sk.fixtures.fixture("cycle", n="3"), GSE,
     "cycle size n must be an integer, got '3'"),
    ("fixture-triangle-chain-float", lambda: sk.fixtures.triangle_chain(2.0), GSE,
     "triangle chain genus g must be an integer, got 2.0"),
    ("fixture-triangle-chain-float-bridge", lambda: sk.fixtures.triangle_chain(2, 1.5), GSE,
     "triangle chain bridge length must be an integer, got 1.5"),
    ("fixture-triangle-chain-zero-bridge", lambda: sk.fixtures.triangle_chain(2, 0), GSE,
     "triangle chain needs bridge length >= 1, got 0"),
    ("fixture-dumbbell-float", lambda: sk.fixtures.dumbbell(1.5), GSE,
     "dumbbell bridge length k must be an integer, got 1.5"),
    ("fixture-path-float", lambda: sk.fixtures.path_graph(2.0), GSE,
     "path size n must be an integer, got 2.0"),
    ("fixture-path-bool", lambda: sk.fixtures.path_graph(True), GSE,
     "path size n must be an integer, got True"),
    ("fixture-in-star-float", lambda: sk.fixtures.kodaira_in_star(1.0), GSE,
     "I_n* n must be an integer, got 1.0"),
    ("poisson-raw-int-vertex-id", lambda: sk.solve_poisson(
        sk.fixtures.theta_graph(), sk.GraphDivisor({sk.GraphPoint("vertex", 5, None): 1,
                                                    "u": -1})), IPE,
     "vertex point location must be a string id, got 5"),
    ("point-raw-list-vertex-id", lambda: sk.GraphPoint("vertex", [1], None), IPE,
     "vertex point location must be a string id, got [1]"),
    ("divisor-raw-int-edge-id", lambda: sk.GraphDivisor({sk.GraphPoint("edge", 7, 1): 1}), IPE,
     "edge point location must be a string id, got 7"),
    ("point-int-ray-label", lambda: sk.GraphPoint.on_ray(3, 1), IPE,
     "ray point location must be a string id, got 3"),
    ("graph-string-vertices", lambda: sk.WeightedDualGraph(["u", "v"], [("u", "v")]), GSE,
     "vertex must be a VertexLabel, got 'u'"),
    ("graph-one-item-edge", lambda: sk.WeightedDualGraph([V("u"), V("v")], [("u",)]), GSE,
     "edge 0 must be an Edge or an (a, b) or (a, b, length) tuple, got ('u',)"),
    ("graph-int-edge", lambda: sk.WeightedDualGraph([V("u"), V("v")], [("u", "v"), 5]), GSE,
     "edge 1 must be an Edge or an (a, b) or (a, b, length) tuple, got 5"),
    ("graph-tuple-ray", lambda: sk.WeightedDualGraph([V("u")], rays=[("u", "x")]), GSE,
     "ray must be a Ray, got ('u', 'x')"),
    ("graph-int-name", lambda: sk.WeightedDualGraph([V("u")], name=5), GSE,
     "graph name must be a string, got 5"),
    ("graph-string-pair-model", lambda: sk.WeightedDualGraph([V("u")], pair_model="no"), GSE,
     "pair_model must be a bool, got 'no'"),
    ("ray-int-label", lambda: sk.Ray("u", 5), GSE, "ray label must be a non-empty string, got 5"),
    ("ray-empty-label", lambda: sk.Ray("u", ""), GSE,
     "ray label must be a non-empty string, got ''"),
    ("ray-int-attach", lambda: sk.Ray(5, "x"), GSE,
     "ray 'x': attach must be a non-empty string, got 5"),
    ("graph-unhashable-endpoint", lambda: sk.WeightedDualGraph([V("u")], [(["u"], "u")]),
     UEE, "edge endpoints (['u'], 'u') not in graph"),
    ("data-mixed-horizontal-edges", lambda: dataclasses.replace(
        _data(), horizontal_edges=["zz", 1]).validate_on(_pair()), UEE, "unknown edge 1"),
    ("graph-vertex-unhashable-id", lambda: sk.fixtures.theta_graph().vertex(["u"]), UEE,
     "unknown vertex ['u']"),
    ("graph-edge-unhashable-id", lambda: sk.fixtures.theta_graph().edge(["e0"]), UEE,
     "unknown edge ['e0']"),
    ("graph-ray-unhashable-label", lambda: sk.fixtures.theta_graph().ray(["r"]), UEE,
     "unknown ray ['r']"),
    ("graph-edge-length-unhashable-id", lambda: sk.fixtures.theta_graph().edge_length(["e0"]),
     UEE, "unknown edge ['e0']"),
    ("graph-valency-unhashable-id", lambda: sk.fixtures.theta_graph().valency(["u"]), UEE,
     "unknown vertex ['u']"),
    ("vertex-distances-unhashable-source", lambda: sk.vertex_distances(
        sk.fixtures.theta_graph(), ["u"]), UEE, "unknown vertex ['u']"),
    ("spanning-tree-unhashable-id", lambda: sk.is_spanning_tree(
        sk.fixtures.theta_graph(), [["e0"]]), UEE, "unknown edge ['e0']"),
    ("fundamental-cycle-unhashable-edge", lambda: sk.fundamental_cycle(
        sk.fixtures.theta_graph(), ["e1"], ["e0"]), UEE, "unknown edge ['e0']"),
    ("locus-unhashable-whole-edge", lambda: sk.SubgraphLocus(
        sk.fixtures.theta_graph(), whole_edges=[["e0"]]), UEE, "unknown edge ['e0']"),
    ("blow-up-node-unhashable-edge", lambda: sk.blow_up_node_with_data(
        sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data(), ["e0"]), UEE,
     "unknown edge ['e0']"),
    ("witness-cycle-unhashable-edge", lambda: sk.witness_cycle(
        sk.fixtures.theta_graph(), ["e0"]), UEE, "unknown edge ['e0']"),
    ("base-change-string-residue-char", lambda: sk.base_change_subdivide(
        sk.fixtures.theta_graph(), 2, residue_char="3"), GSE,
     "residue characteristic must be None or an integer >= 0, got '3'"),
    ("base-change-float-residue-char", lambda: sk.base_change_subdivide(
        sk.fixtures.theta_graph(), 2, residue_char=2.0), GSE,
     "residue characteristic must be None or an integer >= 0, got 2.0"),
    ("base-change-negative-residue-char", lambda: sk.base_change_subdivide(
        sk.fixtures.theta_graph(), 3, residue_char=-3), GSE,
     "residue characteristic must be None or an integer >= 0, got -3"),
    ("subdivide-string-label", lambda: sk.subdivide_edge_at(
        sk.fixtures.theta_graph(), "e0", F(1, 2), "w"), GSE,
     "new vertex must be a VertexLabel, got 'w'"),
    ("graph-midpoint-unhashable-id", lambda: sk.fixtures.theta_graph().midpoint(["e0"]), UEE,
     "unknown edge ['e0']"),
    ("graph-rays-at-unknown-id", lambda: sk.fixtures.theta_graph().rays_at("zz"), UEE,
     "unknown vertex 'zz'"),
    ("graph-rays-at-unhashable-id", lambda: sk.fixtures.theta_graph().rays_at(["u"]), UEE,
     "unknown vertex ['u']"),
    ("fresh-vertex-id-list-stem", lambda: sk.fixtures.theta_graph().fresh_vertex_id(["u"]),
     GSE, "vertex id must be a non-empty string, got ['u']"),
    ("fresh-vertex-id-int-stem", lambda: sk.fixtures.theta_graph().fresh_vertex_id(3), GSE,
     "vertex id must be a non-empty string, got 3"),
    ("fresh-vertex-id-empty-stem", lambda: sk.fixtures.theta_graph().fresh_vertex_id(""), GSE,
     "vertex id must be a non-empty string, got ''"),
    ("bridge-witness-unhashable-edge", lambda: sk.witness_bridge_chain(
        sk.fixtures.dumbbell(2), sk.BridgeChain(edges=(["e6"],), endpoints=("l0", "r0"))),
     UEE, "unknown edge ['e6']"),
    ("bridge-witness-unhashable-endpoint", lambda: sk.witness_bridge_chain(
        sk.fixtures.dumbbell(2), sk.BridgeChain(edges=("e6", "e7"), endpoints=("l0", ["r0"]))),
     UEE, "unknown vertex ['r0']"),
    ("bridge-witness-string-chain", lambda: sk.witness_bridge_chain(
        sk.fixtures.dumbbell(2), "e6"), GSE, "chain must be a BridgeChain, got 'e6'"),
    ("bridge-lemma-unhashable-edge", lambda: _bridge_lemma(
        sk.BridgeChain(edges=(["e6"],), endpoints=("l0", "r0"))), UEE, "unknown edge ['e6']"),
    ("bridge-lemma-string-chain", lambda: _bridge_lemma("e6"), GSE,
     "chain must be a BridgeChain, got 'e6'"),
    ("bridge-witness-edges-not-a-sequence", lambda: sk.witness_bridge_chain(
        sk.fixtures.dumbbell(2), sk.BridgeChain(edges=5, endpoints=("l0", "r0"))), GSE,
     "chain edges must be a tuple or list of edge ids, got 5"),
    ("bridge-lemma-edges-not-a-sequence", lambda: _bridge_lemma(
        sk.BridgeChain(edges=5, endpoints=("l0", "r0"))), GSE,
     "chain edges must be a tuple or list of edge ids, got 5"),
    ("bridge-lemma-three-endpoints", lambda: _bridge_lemma(
        sk.BridgeChain(edges=("e6", "e7"), endpoints=("l0", "r0", "x"))), GSE,
     "chain endpoints must be a tuple or list of two vertex ids, got ('l0', 'r0', 'x')"),
]


@pytest.mark.parametrize("build, error, message", [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_guard_raises_typed_error(build, error, message):
    with pytest.raises(error, match=re.escape(message)) as raised:
        build()
    assert type(raised.value) is error


def test_has_vertex_answers_false_on_an_unhashable_id():
    assert sk.fixtures.theta_graph().has_vertex(["u"]) is False


# Each call names the unknown tree ids zz, yy, xx (horizontal edges for
# validate_on); the argv is a verify min-locus request with the same tree.
_UNKNOWN_IDS = """
import dataclasses, io, sys
from contextlib import redirect_stderr
import skelgraph as sk
from skelgraph.cli import main

ids = ["zz", "yy", "xx"]
theta, dumbbell = sk.fixtures.theta_graph(), sk.fixtures.dumbbell(1)
cycle, bridge = sk.witness_cycle(theta, "e0"), sk.witness_bridge_chain(dumbbell)
chain = sk.maximal_bridge_chains(dumbbell)[0]
data = dataclasses.replace(sk.fixtures.kodaira_type_ii_data(), horizontal_edges=ids)
calls = [
    lambda: sk.witness_cycle(theta, "e0", tree=ids),
    lambda: sk.witness_bridge_chain(dumbbell, tree=iter(ids)),
    lambda: sk.fundamental_cycle(theta, iter(ids), "e0"),
    lambda: sk.check_min_locus_lemma(theta, iter(ids), "e0", cycle.divisor, cycle.function),
    lambda: sk.check_bridge_lemma(dumbbell, chain, ids, bridge.divisor, bridge.function),
    lambda: data.validate_on(sk.fixtures.kodaira_type_ii()),
]
for call in calls:
    try:
        call()
    except sk.SkelgraphError as exc:
        print(type(exc).__name__, exc)
err = io.StringIO()
with redirect_stderr(err):
    print("exit", main(sys.argv[1:]))
print(err.getvalue(), end="")
"""


def test_unknown_ids_named_in_the_callers_order(tmp_path):
    """A tree is checked in the order given, and horizontal edges in
    sorted order, so the same unknown id is named under every hash seed."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(sio.graph_to_json(sk.fixtures.theta_graph())))
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps({"edge": "e0", "tree": ["zz", "yy", "xx"]}))
    src = Path(sk.__file__).resolve().parent.parent
    outs = set()
    for seed in "1234":
        proc = subprocess.run(
            [sys.executable, "-c", _UNKNOWN_IDS,
             "verify", "min-locus", "--graph", str(gpath), "--data", str(dpath)],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert outs.pop().splitlines() == [
        *["UnknownElementError unknown edge 'zz'"] * 5,
        "UnknownElementError unknown edge 'xx'",
        "exit 2",
        "error: unknown edge 'zz'",
    ]


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


def _queried_graph():
    g = sk.fixtures.kodaira_type_ii()
    f = sk.PLFunction({v: 0 for v in g.vertex_ids})
    sk.distance(g, sk.GraphPoint.on_edge("e0", F(1, 24)), "v3")
    f.evaluate(g, g.midpoint("e1"))
    return g, f


@pytest.mark.parametrize("value", [
    sk.GraphPoint.at_vertex("u"), sk.GraphPoint.on_edge("e0", F(1, 3)),
    sk.GraphPoint.on_ray("x", 2),
    _pair(2, loop=True), *_queried_graph(),
    sk.WeightedDualGraph(vertices=[V("a", 2), V("b", 3)], edges=[("a", "b")],
                         rays=[sk.Ray("a", "x", 2)], metric="stable", name="pm",
                         pair_model=True),
    sk.GraphDivisor({"u": 2, sk.GraphPoint.on_edge("e0", F(1, 3)): F(-1, 2)}),
    sk.PLFunction({"u": 0, "v": F(1, 2), sk.GraphPoint.on_edge("e0", F(1, 4)): 3}, {"x": 2}),
    sk.SubgraphLocus(sk.fixtures.theta_graph(), vertices=["u"], whole_edges=["e2"],
                     segments={"e0": [(F(1, 5), F(1, 4))], "e1": [(0, F(1, 8))]}),
], ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_values_copy_and_pickle(value, duplicate):
    """Copies are rebuilt through the constructor: equal, with a
    divisor's or function's points in the original's order (here not
    sorted), and with no memo carried over."""
    out = duplicate(value)
    assert type(out) is type(value) and out == value
    if isinstance(value, sk.GraphDivisor):
        assert list(out._support) == list(value._support)
    if isinstance(value, sk.GraphPoint):
        assert hash(out) == hash(value)
    if isinstance(value, sk.WeightedDualGraph):
        assert (out.name, out.pair_model) == (value.name, value.pair_model)
        assert out._lengths == {} and out._distances == {}
    if isinstance(value, sk.PLFunction):
        assert out._walked is None and out.ray_slopes == value.ray_slopes
        assert list(out._values) == list(value._values)
