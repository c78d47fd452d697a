"""Serialization round trips and DOT export."""

import json
from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import GraphDivisor as D, GraphPoint as P, PLFunction
from skelgraph import io as sio


class TestRationals:
    def test_canonical_form(self):
        assert sio.format_rational(F(2, 4)) == "1/2"
        assert sio.format_rational(F(-3, 6)) == "-1/2"
        assert sio.format_rational(5) == "5/1"

    def test_parse(self):
        assert sio.parse_rational("5/36") == F(5, 36)
        assert sio.parse_rational("7") == 7
        assert sio.parse_rational(7) == 7
        with pytest.raises(sk.InvalidPointError):
            sio.parse_rational("1/0")
        with pytest.raises(sk.InvalidPointError):
            sio.parse_rational("x")

    def test_round_trip(self):
        for x in (F(5, 36), F(-7, 3), F(0), F(12)):
            assert sio.parse_rational(sio.format_rational(x)) == x


class TestGraphRoundTrip:
    def test_fixtures(self):
        for name in sk.fixtures.fixture_names():
            g = sk.fixtures.fixture(name)
            doc = json.loads(json.dumps(sio.graph_to_json(g)))
            assert sio.graph_from_json(doc) == g

    def test_random_graphs(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(20):
            g = random_graph(rng, max_vertices=7, max_multiplicity=6)
            assert sio.graph_from_json(sio.graph_to_json(g)) == g

    def test_explicit_lengths_survive(self):
        g = sk.subdivide_edge_at(sk.fixtures.kodaira_type_ii(), "e2",
                                 F(1, 36), sk.VertexLabel("m", 1))
        back = sio.graph_from_json(sio.graph_to_json(g))
        assert back == g
        assert [e.length for e in back.edges] == [e.length for e in g.edges]

    def test_omitted_length_means_formula(self):
        doc = {"vertices": [{"id": "a", "N": 2, "g": 0}, {"id": "b", "N": 6, "g": 0}],
               "edges": [{"a": "a", "b": "b"}], "rays": [], "metric": "stable"}
        g = sio.graph_from_json(doc)
        assert g.edge_length("e0") == F(1, 6)

    def test_malformed_rejected(self):
        with pytest.raises(sk.GraphStructureError):
            sio.graph_from_json({"vertices": []})
        with pytest.raises(sk.GraphStructureError):
            sio.graph_from_json({"vertices": [{"id": "a"}],
                                 "edges": [{"a": "a", "b": "zz"}]})


class TestIntegerFields:
    """Multiplicities, genera and degrees are JSON integers: a float,
    a bool or a string is malformed input, never truncated."""

    @pytest.mark.parametrize("vertex, ray, field", [
        ({"id": "a", "N": 2.7}, {}, "vertex N"),
        ({"id": "a", "N": 2, "g": True}, {}, "vertex g"),
        ({"id": "a", "N": "2"}, {}, "vertex N"),
        ({"id": "a", "g": 0.5}, {}, "vertex g"),
        ({"id": "a"}, {"degree": 1.5}, "ray degree"),
        ({"id": "a"}, {"degree": True}, "ray degree"),
    ])
    def test_graph_fields(self, vertex, ray, field):
        doc = {"vertices": [vertex], "rays": [{"attach": "a", "label": "x", **ray}]}
        with pytest.raises(sk.GraphStructureError, match=f"malformed {field} JSON"):
            sio.graph_from_json(doc)

    @pytest.mark.parametrize("doc, field", [
        ({"m": 1.9, "nu": {"v1": 1}}, "data m"),
        ({"m": True, "nu": {"v1": 1}}, "data m"),
        ({"m": 1, "nu": {"v1": 1.5}}, "data nu"),
        ({"m": 1, "nu": {"v1": "2"}}, "data nu"),
        ({"m": 1, "nu": {"v1": 1}, "rays": {"x": {"deg_div": 2.5}}}, "data ray deg_div"),
        ({"m": 1, "nu": {"v1": 1}, "rays": {"x": {"deg_div": False}}}, "data ray deg_div"),
    ])
    def test_data_fields(self, doc, field):
        with pytest.raises(sk.GraphStructureError, match=f"malformed {field} JSON"):
            sio.data_from_json(doc)


def theta_locus_from_json(doc):
    return sio.locus_from_json(sk.fixtures.theta_graph(), doc)


class TestStringFields:
    """Vertex ids, edge endpoints, ray attachments and labels, and the
    places a point names are JSON strings: a number or null is
    malformed input, never read through str()."""

    @pytest.mark.parametrize("doc, field", [
        ({"vertices": [{"id": 5}]}, "vertex id"),
        ({"vertices": [{"id": None}]}, "vertex id"),
        ({"vertices": [{"id": "a"}, {"id": "5"}], "edges": [{"a": "a", "b": 5}]}, "edge b"),
        ({"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"a": None, "b": "b"}]},
         "edge a"),
        ({"vertices": [{"id": "a"}], "rays": [{"attach": "a", "label": 0}]}, "ray label"),
        ({"vertices": [{"id": "a"}], "rays": [{"attach": [], "label": "x"}]}, "ray attach"),
    ])
    def test_graph_fields(self, doc, field):
        with pytest.raises(sk.GraphStructureError, match=f"malformed {field} JSON"):
            sio.graph_from_json(doc)

    @pytest.mark.parametrize("doc, field", [
        ({"vertex": 5}, "point vertex"),
        ({"edge": None, "position": "1/2"}, "point edge"),
        ({"ray": 1, "distance": "1"}, "point ray"),
    ])
    def test_point_fields(self, doc, field):
        with pytest.raises(sk.GraphStructureError, match=f"malformed {field} JSON"):
            sio.point_from_json(doc)

    @pytest.mark.parametrize("read, doc, field", [
        (sio.min_locus_request_from_json, {"edge": 0}, "min-locus edge"),
        (sio.min_locus_request_from_json, {"edge": "e0", "tree": ["e1", 2]},
         "min-locus tree entry"),
        (sio.bridge_request_from_json, {"chain": ["e0", None]}, "bridge chain entry"),
        (theta_locus_from_json, {"vertices": [0]}, "locus vertex"),
        (theta_locus_from_json, {"edges": [1]}, "locus edge"),
        (theta_locus_from_json, {"segments": [{"edge": 0, "start": "0", "end": "1/2"}]},
         "locus segment edge"),
        (sio.function_from_json, [{"ray": 3, "slope": 1}], "function ray label"),
        (sio.data_from_json, {"m": 1, "nu": {"v1": 1}, "horizontal_edges": [12]},
         "data horizontal_edges entry"),
        (sio.blowups_from_json, [{"op": 1, "target": "e0"}], "blow-up op"),
        (sio.blowups_from_json, [{"op": "node", "target": 0}], "blow-up target"),
    ])
    def test_document_fields(self, read, doc, field):
        with pytest.raises(sk.GraphStructureError, match=f"malformed {field} JSON"):
            read(doc)


class TestOptionalFields:
    """An optional field may be absent, but when present it has its JSON
    type: a string is never read as a bool or as a list of edges."""

    @pytest.mark.parametrize("raw", ["false", 1, None])
    def test_pair_model_is_a_bool(self, raw):
        doc = {**sio.graph_to_json(sk.fixtures.theta_graph()), "pair_model": raw}
        with pytest.raises(sk.GraphStructureError, match="malformed graph pair_model JSON"):
            sio.graph_from_json(doc)

    def test_pair_model_absent_is_false(self):
        doc = sio.graph_to_json(sk.fixtures.theta_graph())
        assert "pair_model" not in doc
        assert sio.graph_from_json(doc).pair_model is False
        assert sio.graph_from_json({**doc, "pair_model": False}).pair_model is False

    @pytest.mark.parametrize("raw", [None, 5])
    def test_name_is_a_string(self, raw):
        doc = {**sio.graph_to_json(sk.fixtures.theta_graph()), "name": raw}
        with pytest.raises(sk.GraphStructureError, match="malformed graph name JSON"):
            sio.graph_from_json(doc)

    def test_name_absent_is_empty(self):
        doc = sio.graph_to_json(sk.fixtures.theta_graph())
        assert sio.graph_from_json(doc).name == "theta"
        del doc["name"]
        assert sio.graph_from_json(doc).name == ""

    @pytest.mark.parametrize("raw", ["e12", 5])
    def test_horizontal_edges_is_a_list(self, raw):
        doc = {"m": 1, "nu": {"v1": 1}, "horizontal_edges": raw}
        with pytest.raises(sk.GraphStructureError, match="malformed data horizontal_edges JSON"):
            sio.data_from_json(doc)


class TestBlowupShape:
    @pytest.mark.parametrize("doc", [
        [1], {"op": "node", "target": "e0"}, [{"op": "node"}], None,
    ])
    def test_malformed_sequence(self, doc):
        with pytest.raises(sk.GraphStructureError, match="malformed blow-up"):
            sio.blowups_from_json(doc)


class TestValueRoundTrips:
    def test_points(self):
        for p in (P.at_vertex("v1"), P.on_edge("e0", F(5, 36)),
                  P.on_ray("x", F(3, 2))):
            assert sio.point_from_json(sio.point_to_json(p)) == p

    def test_divisor(self):
        d = D({P.at_vertex("a"): -2, P.on_edge("e1", F(1, 2)): 3,
               P.at_vertex("b"): F(1, 2)})
        assert sio.divisor_from_json(json.loads(json.dumps(sio.divisor_to_json(d)))) == d

    def test_function(self):
        f = PLFunction({P.at_vertex("a"): F(1, 3), P.on_edge("e0", F(1, 2)): 0},
                       {"x": -2})
        assert sio.function_from_json(sio.function_to_json(f)) == f

    def test_locus(self):
        g = sk.fixtures.theta_graph()
        locus = sk.SubgraphLocus(g, vertices=["u"], whole_edges=["e0"],
                                 segments={"e1": [(F(1, 4), F(1, 2))]})
        assert sio.locus_from_json(g, sio.locus_to_json(locus)) == locus

    def test_model_data(self):
        data = sk.PluricanonicalModelData(
            m=2, nu={"v1": 2, "v4": 10}, ray_degrees={"x": -4},
            horizontal_edges={"e1"})
        assert sio.data_from_json(json.loads(json.dumps(sio.data_to_json(data)))) == data

    def test_blowup_steps(self):
        steps = [sk.BlowUpStep("node", "e0"), sk.BlowUpStep("interior", "v4")]
        assert sio.blowups_from_json(sio.blowups_to_json(steps)) == steps


class TestDot:
    def test_kodaira_star(self):
        g = sk.fixtures.kodaira_type_ii()
        dot = sio.export_dot(g)
        assert dot == sio.export_dot(g)  # deterministic
        assert '"v4" [label="v4 (6,0)"]' in dot
        for frac in ("1/6", "1/12", "1/18"):
            assert f'label="{frac}"' in dot

    def test_single_vertex(self):
        g = sk.WeightedDualGraph(vertices=[sk.VertexLabel("a", 1, 2)])
        dot = sio.export_dot(g)
        assert '"a" [label="a (1,2)"];' in dot
        assert "--" not in dot

    def test_locus_highlight(self):
        g = sk.fixtures.kodaira_type_ii()
        locus = sk.vertex_locus(g, "v4")
        dot = sio.export_dot(g, locus)
        assert '"v4" [label="v4 (6,0)", locus="1", style=bold];' in dot
        assert 'locus="1"' not in dot.replace(
            '"v4" [label="v4 (6,0)", locus="1", style=bold];', "")
