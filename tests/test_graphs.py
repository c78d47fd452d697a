"""Graph core: metrics, genus, distances, loops, subdivision."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import skelgraph as sk
from skelgraph import GraphPoint as P, MetricKind, VertexLabel as V, WeightedDualGraph

from conftest import random_blowups, random_multigraph


def two_vertex(n1, n2, metric=MetricKind.MODEL):
    return WeightedDualGraph(vertices=[V("a", n1), V("b", n2)],
                             edges=[("a", "b")], metric=metric)


class TestEdgeLength:
    def test_model_1_6(self):
        g = two_vertex(1, 6)
        assert g.edge_length("e0") == F(1, 6)

    def test_model_3_6(self):
        g = two_vertex(3, 6)
        assert g.edge_length("e0") == F(1, 18)

    def test_stable_2_6(self):
        g = two_vertex(2, 6)
        assert g.replace(metric="stable").edge_length("e0") == F(1, 6)

    def test_unit_both_metrics(self):
        g = two_vertex(1, 1)
        assert g.edge_length("e0") == 1
        assert g.replace(metric="stable").edge_length("e0") == 1

    def test_unknown_edge(self):
        g = two_vertex(1, 1)
        with pytest.raises(sk.UnknownElementError):
            g.edge_length("e9")
        for _ in range(2):  # a failed read leaves nothing behind
            with pytest.raises(sk.UnknownElementError, match="^unknown edge 'nope'$"):
                g.edge_length("nope")
        assert g.edge_length("e0") == 1

    def test_lengths_read_before_a_metric_change(self):
        g = WeightedDualGraph(vertices=[V("a", 2), V("b", 6), V("c", 4)],
                              edges=[("a", "b"), ("b", "c"), ("a", "a")])
        model = [F(1, 12), F(1, 24), F(1, 4)]
        assert [g.edge_length(e.id) for e in g.edges] == model
        stable = g.replace(metric="stable")
        assert [stable.edge_length(e.id) for e in stable.edges] == [F(1, 6), F(1, 12), F(1, 2)]
        back = stable.replace(metric="model")
        assert [back.edge_length(e.id) for e in back.edges] == model
        assert [g.edge_length(e.id) for e in g.edges] == model
        assert g == back

    def test_kodaira_ii_lengths(self):
        g = sk.fixtures.kodaira_type_ii()
        lengths = sorted(g.edge_length(e.id) for e in g.edges)
        assert lengths == [F(1, 18), F(1, 12), F(1, 6)]

    @given(n1=st.integers(1, 20), n2=st.integers(1, 20))
    def test_stable_dominates_model(self, n1, n2):
        g = two_vertex(n1, n2)
        model = g.edge_length("e0")
        stable = g.replace(metric="stable").edge_length("e0")
        assert model > 0 and stable > 0
        assert stable >= model
        assert (stable == model) == (gcd(n1, n2) == 1)

    def test_explicit_length_wins(self):
        g = WeightedDualGraph(vertices=[V("a", 2), V("b", 3)],
                              edges=[("a", "b", F(7, 5))])
        assert g.edge_length("e0") == F(7, 5)
        # an explicit length has no stable counterpart
        with pytest.raises(sk.GraphStructureError):
            g.replace(metric="stable")

    def test_split_edge_cannot_change_metric(self):
        g = two_vertex(2, 2)  # model length 1/4, stable length 1/2
        h = sk.subdivide_edge_at(g, "e0", F(1, 8), V("m", 2))
        assert sk.distance(h, "a", "b") == F(1, 4)
        with pytest.raises(sk.GraphStructureError):
            h.replace(metric="stable")


class TestGraphGenus:
    def test_single_vertex_genus_one(self):
        g = WeightedDualGraph(vertices=[V("a", 1, 1)])
        assert sk.graph_genus(g) == 1

    def test_two_parallel_edges(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")],
                              edges=[("a", "b"), ("a", "b")])
        assert sk.graph_genus(g) == 1

    def test_triangle_with_genus_two_vertex(self):
        g = WeightedDualGraph(vertices=[V("a", 1, 2), V("b"), V("c")],
                              edges=[("a", "b"), ("b", "c"), ("c", "a")])
        assert sk.graph_genus(g) == 3

    def test_rays_ignored(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[sk.Ray("a", "x", 1)])
        assert sk.graph_genus(g) == 0

    def test_disconnected_rejected_at_construction(self):
        with pytest.raises(sk.GraphStructureError):
            WeightedDualGraph(vertices=[V("a"), V("b")])


class TestCurveGenus:
    def test_kodaira_ii_models_elliptic(self):
        assert sk.curve_genus(sk.fixtures.kodaira_type_ii()) == 1

    def test_in_star_models_elliptic(self):
        for n in range(1, 6):
            assert sk.curve_genus(sk.fixtures.kodaira_in_star(n)) == 1

    def test_matches_graph_genus_on_reduced(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(20):
            g = random_reduced_graph(rng, max_genus_label=2)
            assert sk.curve_genus(g) == sk.graph_genus(g)

    def test_loops_with_formula_and_explicit_lengths(self):
        g = WeightedDualGraph(vertices=[V("a")], edges=[("a", "a"), ("a", "a", F(1, 3))])
        assert sk.curve_genus(g) == sk.graph_genus(g) == 2
        out = sk.resolve_loops(g)
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 6), F(1, 6),
                                                                    F(1, 2), F(1, 2)]
        assert [e.length for e in out.edges] == [None, None, F(1, 6), F(1, 6)]


class TestDistance:
    def test_same_point(self):
        g = sk.fixtures.kodaira_type_ii()
        p = P.on_edge("e0", F(1, 12))
        assert sk.distance(g, p, p) == 0

    def test_kodaira_ii_v2_v3(self):
        g = sk.fixtures.kodaira_type_ii()
        assert sk.distance(g, "v2", "v3") == F(1, 12) + F(1, 18)
        assert sk.distance(g, "v2", "v3") == F(5, 36)

    def test_unit_edge_endpoints(self):
        g = two_vertex(1, 1)
        assert sk.distance(g, "a", "b") == 1

    def test_interior_points_same_edge(self):
        g = two_vertex(1, 1)
        p, q = P.on_edge("e0", F(1, 4)), P.on_edge("e0", F(3, 4))
        assert sk.distance(g, p, q) == F(1, 2)

    def test_parallel_edges_shortcut(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")],
                              edges=[("a", "b"), ("a", "b", F(1, 10))])
        p = P.on_edge("e0", F(1, 2))
        # going back to a and across the short edge beats walking on e0
        assert sk.distance(g, p, "b") == F(1, 2)
        assert sk.distance(g, "a", "b") == F(1, 10)

    def test_loop_interior(self):
        g = WeightedDualGraph(vertices=[V("a")], edges=[("a", "a", F(1))])
        p = P.on_edge("e0", F(1, 8))
        q = P.on_edge("e0", F(7, 8))
        assert sk.distance(g, p, q) == F(1, 4)  # around through the vertex

    def test_ray_points(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")],
                              rays=[sk.Ray("a", "x", 1)])
        p = P.on_ray("x", F(3, 2))
        q = P.on_ray("x", F(1, 2))
        assert sk.distance(g, p, q) == 1
        assert sk.distance(g, p, "a") == F(3, 2)
        with pytest.raises(sk.InvalidPointError):
            sk.distance(g, p, "b")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_metric_axioms(self, seed):
        rng = random.Random(seed)
        from skelgraph.sampling import random_graph
        g = random_graph(rng, max_vertices=5, max_multiplicity=4)
        pts = [P.at_vertex(v) for v in g.vertex_ids]
        for e in g.edges[:3]:
            ell = g.edge_length(e.id)
            pts.append(P.on_edge(e.id, ell / 3))
        for p in pts:
            assert sk.distance(g, p, p) == 0
        for p in pts:
            for q in pts:
                d = sk.distance(g, p, q)
                assert d == sk.distance(g, q, p)
                assert (d == 0) == (g.check_point(p) == g.check_point(q))
        for p in pts:
            for q in pts:
                for r in pts:
                    assert sk.distance(g, p, r) <= \
                        sk.distance(g, p, q) + sk.distance(g, q, r)


def networkx_distances(graph, source):
    import networkx as nx
    G = nx.MultiGraph()
    G.add_nodes_from(graph.vertex_ids)
    for e in graph.edges:
        G.add_edge(e.a, e.b, length=graph.edge_length(e.id))
    return nx.single_source_dijkstra_path_length(G, source, weight="length")


class TestVertexDistancesOracle:
    """vertex_distances against networkx Dijkstra on Fraction lengths; both
    stay exact, so every comparison is ==."""

    def check(self, graph):
        for v in graph.vertex_ids:
            assert sk.vertex_distances(graph, v) == networkx_distances(graph, v)

    def test_multigraphs_with_loops(self, rng):
        for _ in range(30):
            self.check(random_multigraph(rng, max_vertices=7, extra=4, loops=3))

    def test_coprime_denominators(self, rng):
        for _ in range(30):
            g = random_multigraph(rng, max_vertices=7, extra=4, loops=2)
            edges = [(e.a, e.b, F(rng.randint(1, 40), rng.choice((7, 11, 13, 17, 19, 23))))
                     for e in g.edges]
            self.check(g.replace(edges=edges))

    def test_formula_lengths_both_metrics(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(20):
            g = random_graph(rng, max_vertices=8, max_multiplicity=12, extra_edges=3)
            self.check(g)
            self.check(g.replace(metric="stable"))

    def test_blown_up_models(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(6):
            g = random_graph(rng, max_vertices=6, max_multiplicity=60, extra_edges=2)
            _, big = random_blowups(rng, g, 50)
            assert max(v.multiplicity for v in big.vertices) > 60
            self.check(big)

    def test_unknown_source(self):
        g = sk.fixtures.theta_graph()
        with pytest.raises(sk.UnknownElementError, match="unknown vertex 'zz'"):
            sk.vertex_distances(g, "zz")


class TestResolveLoops:
    def test_loop_free_unchanged(self):
        g = sk.fixtures.theta_graph()
        assert sk.resolve_loops(g) is g

    def test_unit_loop(self):
        g = WeightedDualGraph(vertices=[V("a", 1)], edges=[("a", "a")])
        out = sk.resolve_loops(g)
        new = [v for v in out.vertices if v.id != "a"]
        assert len(new) == 1 and new[0].multiplicity == 2 and new[0].genus == 0
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 2), F(1, 2)]

    def test_weight_two_loop(self):
        g = WeightedDualGraph(vertices=[V("a", 2)], edges=[("a", "a")])
        out = sk.resolve_loops(g)
        new = [v for v in out.vertices if v.id != "a"]
        assert new[0].multiplicity == 4
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 8), F(1, 8)]
        assert sum(out.edge_length(e.id) for e in out.edges) == F(1, 4)

    def test_genus_invariant(self, rng):
        for _ in range(10):
            n = rng.randint(1, 4)
            vertices = [V(f"v{i}", rng.randint(1, 4), rng.randint(0, 2))
                        for i in range(n)]
            edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
            edges += [(f"v{rng.randrange(n)}",) * 2 for _ in range(rng.randint(1, 3))]
            g = WeightedDualGraph(vertices=vertices, edges=edges)
            assert sk.graph_genus(sk.resolve_loops(g)) == sk.graph_genus(g)

    def test_distances_preserved(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            vertices = [V(f"v{i}", rng.randint(1, 4)) for i in range(n)]
            edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
            edges += [(f"v{rng.randrange(n)}",) * 2 for _ in range(rng.randint(1, 2))]
            g = WeightedDualGraph(vertices=vertices, edges=edges)
            out = sk.resolve_loops(g)
            for v in g.vertex_ids:
                for w in g.vertex_ids:
                    assert sk.distance(out, v, w) == sk.distance(g, v, w)


class TestSubdivide:
    def test_unit_half(self):
        g = two_vertex(1, 1)
        out = sk.subdivide_edge_at(g, "e0", F(1, 2), V("m", 1))
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 2), F(1, 2)]

    def test_kodaira_edge(self):
        g = sk.fixtures.kodaira_type_ii()
        e34 = next(e for e in g.edges if {e.a, e.b} == {"v3", "v4"})
        out = sk.subdivide_edge_at(g, e34.id, F(1, 36), V("m", 1))
        new_lengths = sorted(out.edge_length(e.id) for e in out.edges
                             if "m" in (out.edge(e.id).a, out.edge(e.id).b))
        assert new_lengths == [F(1, 36), F(1, 36)]

    def test_boundary_rejected(self):
        g = two_vertex(1, 1)
        with pytest.raises(sk.InvalidPointError):
            sk.subdivide_edge_at(g, "e0", 0, V("m", 1))
        with pytest.raises(sk.InvalidPointError):
            sk.subdivide_edge_at(g, "e0", 1, V("m", 1))

    def test_genus_invariant(self):
        g = sk.fixtures.theta_graph()
        out = sk.subdivide_edge_at(g, "e1", F(1, 3), V("m", 1))
        assert sk.graph_genus(out) == sk.graph_genus(g) == 2

    def test_distances_preserved(self):
        g = sk.fixtures.kodaira_type_ii()
        out = sk.subdivide_edge_at(g, "e0", F(1, 24), V("m", 1))
        for v in g.vertex_ids:
            for w in g.vertex_ids:
                assert sk.distance(out, v, w) == sk.distance(g, v, w)


class TestRefine:
    def test_is_an_isometry(self, rng):
        # each cut vertex sits where its base point is, base distances and
        # total length are kept, and rays pass through unchanged
        for _ in range(40):
            g = random_multigraph(rng, max_vertices=6, extra=4, loops=2, rays=2)
            cuts = {e.id: [g.edge_length(e.id) * k / 10
                           for k in rng.sample(range(1, 10), rng.randint(1, 3))]
                    for e in g.edges if rng.random() < 0.6}
            ref = sk.refine(g, cuts)
            rg = ref.graph
            assert set(rg.vertex_ids) == set(g.vertex_ids) | set(ref.cut_vertex_points)
            assert sorted((p.where, p.offset) for p in ref.cut_vertex_points.values()) == \
                sorted((eid, F(o)) for eid, offs in cuts.items() for o in set(offs))
            assert rg.rays == g.rays
            assert sum(rg.edge_length(e.id) for e in rg.edges) == \
                sum(g.edge_length(e.id) for e in g.edges)
            for v in g.vertex_ids:
                near = sk.vertex_distances(rg, v)
                for w in g.vertex_ids:
                    assert near[w] == sk.distance(g, v, w)
                for c, p in ref.cut_vertex_points.items():
                    assert near[c] == sk.distance(g, p, v)

    def test_single_cut_matches_subdivide(self, rng):
        for _ in range(30):
            g = random_multigraph(rng, max_vertices=6, extra=4, loops=2)
            e = rng.choice(g.edges)
            x = g.edge_length(e.id) * rng.randint(1, 9) / 10
            assert sk.refine(g, {e.id: [x]}).graph == \
                sk.subdivide_edge_at(g, e.id, x, V(f"{e.id}@{x}", 1, 0))


class TestGraphPointValue:
    def test_equal_points_hash_equal_whatever_the_route(self):
        g = sk.fixtures.theta_graph()
        ref = sk.refine(g, {"e0": [F(1, 3)]})
        routes = [
            [P.on_edge("e0", F(1, 3)), P.on_edge("e0", F(2, 6)),
             P("edge", "e0", F(1, 3)), ref.cut_vertex_points["e0@1/3"]],
            [P.at_vertex("u"), sk.as_point("u"), g.check_point(P.on_edge("e0", 0)),
             P("vertex", "u", None)],
            [P.on_ray("x", 2), P.on_ray("x", F(4, 2))],
        ]
        for same in routes:
            assert len(set(same)) == 1
            assert len({hash(p) for p in same}) == 1
            assert all(p == same[0] and not p != same[0] for p in same)
        assert P.on_edge("e0", F(1, 3)) != P.on_edge("e1", F(1, 3))
        assert P.on_edge("e0", F(1, 3)) != P.on_ray("e0", F(1, 3))
        assert P.at_vertex("u") != "u"

    def test_points_are_immutable(self):
        p = P.on_edge("e0", F(1, 3))
        for name in ("kind", "where", "offset", "_hash"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0)
        assert p == P.on_edge("e0", F(1, 3)) and hash(p) == hash(P.on_edge("e0", F(1, 3)))


class TestPairModelValidation:
    def test_ray_degree_enforced(self):
        with pytest.raises(sk.GraphStructureError):
            WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[sk.Ray("a", "x", 1)], pair_model=True)
        g = WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[sk.Ray("a", "x", 2)], pair_model=True)
        assert g.rays[0].degree == 2
