"""Graph core: metrics, genus, distances, loops, subdivision."""

import copy
import pickle
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import skelgraph as sk
from skelgraph import GraphPoint as P, MetricKind, PLFunction, VertexLabel as V, WeightedDualGraph
from skelgraph.graphs import _series_reduction, refine

from conftest import random_blowups, random_multigraph
from refined_graph import refined_graph
from test_models import KEPT


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

    def test_connectivity_verdict_matches_networkx(self):
        """The constructor accepts exactly the edge lists that networkx
        calls connected, on random edge lists with loops and parallel
        edges, many of them disconnected."""
        import networkx as nx
        rng = random.Random(41)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            vs = [f"v{i}" for i in range(rng.randint(1, 12))]
            pairs = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, 14))]
            pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 2)) if pairs]
            H = nx.MultiGraph()
            H.add_nodes_from(vs)
            H.add_edges_from(pairs)
            try:
                WeightedDualGraph([V(v) for v in vs], pairs)
                connected = True
            except sk.GraphStructureError as exc:
                assert str(exc) == "graph must be connected"
                connected = False
            assert connected == nx.is_connected(H)
            verdicts[connected] += 1
        assert min(verdicts.values()) > 50


def test_repr_names_the_counts_and_metric():
    assert repr(sk.fixtures.theta_graph()) == (
        "<WeightedDualGraph 'theta': 2 vertices, 3 edges, 0 rays, model>")
    g = WeightedDualGraph(vertices=[V("u"), V("v")], edges=[("u", "v")],
                          rays=[sk.Ray("u", "x")], metric="stable")
    assert repr(g) == "<WeightedDualGraph: 2 vertices, 1 edges, 1 rays, stable>"


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

    def test_loops_count_as_their_resolution(self, monkeypatch):
        """A loop meets its vertex twice, so curve_genus answers on a loopy
        graph what it answers on its resolution, and builds no graph."""
        rng = random.Random(1506)
        graphs = [random_multigraph(rng, max_vertices=5, loops=3, rays=rng.randint(0, 2))
                  for _ in range(40)]
        graphs = [g.replace(vertices=[V(v.id, rng.randint(1, 4), rng.randint(0, 2))
                                      for v in g.vertices]) for g in graphs]
        want = [sk.curve_genus(sk.resolve_loops(g)) for g in graphs]
        assert sum(not g.is_loop_free() for g in graphs) > 20
        assert any(g.rays for g in graphs) and any(not g.rays for g in graphs)

        def no_graph(graph):
            raise AssertionError("curve_genus built a graph")

        monkeypatch.setattr(sk.graphs, "resolve_loops", no_graph)
        assert [sk.curve_genus(g) for g in graphs] == want

    @staticmethod
    def _relabel(rng, g, max_multiplicity=9, max_genus=3):
        return g.replace(vertices=[V(v.id, rng.randint(1, max_multiplicity),
                                     rng.randint(0, max_genus)) for v in g.vertices])

    @staticmethod
    def _self_intersection_genus(graph):
        """Adjunction through the self-intersections E_v^2 = -(1/N_v) sum
        of the neighbour multiplicities over the nodes on E_v, summed as
        Fractions: the reference the canonical-coefficient sum must match."""
        crossing = {v: F(0) for v in graph.vertex_ids}
        for e in graph.edges:
            crossing[e.a] += graph.vertex(e.b).multiplicity
            crossing[e.b] += graph.vertex(e.a).multiplicity
        total = F(0)
        for v in graph.vertices:
            self_int = -crossing[v.id] / v.multiplicity
            total += v.multiplicity * (2 * v.genus - 2 - self_int)
        return 1 + total / 2

    def test_matches_the_self_intersection_formula(self):
        rng = random.Random(1263)
        graphs = [self._relabel(rng, random_multigraph(rng, max_vertices=6, loops=2,
                                                       rays=rng.randint(0, 3)))
                  for _ in range(150)]
        assert sum(not g.is_loop_free() for g in graphs) > 50
        assert sum(bool(g.rays) for g in graphs) > 50
        assert sum(sk.curve_genus(g).denominator == 2 for g in graphs) > 20
        for g in graphs:
            got, want = sk.curve_genus(g), self._self_intersection_genus(g)
            assert (got, type(got)) == (want, type(want))

    def test_unchanged_by_blowups(self):
        """Blowing up a model changes its special fiber, not its curve."""
        rng = random.Random(1506)
        blown_up = 0
        for _ in range(30):
            g = self._relabel(rng, random_multigraph(rng, max_vertices=5, loops=0,
                                                     rays=rng.randint(0, 2), lengths=False))
            _, h = random_blowups(rng, g, steps=rng.randint(1, 12))
            blown_up += len(h.vertex_ids) - len(g.vertex_ids)
            assert sk.curve_genus(h) == sk.curve_genus(g)
        assert blown_up > 100

    def test_is_half_the_compact_canonical_degree_plus_one(self):
        rng = random.Random(2015)
        checked = 0
        for _ in range(80):
            g = self._relabel(rng, random_multigraph(rng, max_vertices=6, loops=0,
                                                     rays=rng.randint(0, 3)))
            if not g.is_loop_free():
                continue
            checked += 1
            K = sk.canonical_divisor(g.without_rays(), 1)
            assert K.degree == 2 * sk.curve_genus(g) - 2
        assert checked > 40


class TestDistance:
    def test_same_point(self):
        g = sk.fixtures.kodaira_type_ii()
        p = P.on_edge("e0", F(1, 12))
        assert sk.distance(g, p, p) == 0
        rng = random.Random(2015)
        for _ in range(10):
            g = random_multigraph(rng, max_vertices=5, loops=2)
            points = [P.at_vertex(v) for v in g.vertex_ids]
            points += [P.on_edge(e.id, g.edge_length(e.id) * F(1, 3)) for e in g.edges]
            for p in points:
                d = sk.distance(g, p, p)
                assert type(d) is F and d == 0

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

    @pytest.mark.parametrize("p, q, want", [
        (P("ray", "r", 2), P("ray", "r", 5), 3),
        (P("ray", "r", 2), "a", 2),
        ("a", P("ray", "r", 2), 2),
        (P("edge", "e0", 2), P("edge", "e0", 5), 3),
        (P("edge", "e0", 2), P.on_edge("e0", F(5)), 3),
    ], ids=["ray-ray", "ray-vertex", "vertex-ray", "edge-edge", "raw-and-built"])
    def test_raw_int_offsets_give_a_fraction(self, p, q, want):
        """The raw constructor turns an int offset into a Fraction, so
        every branch of distance answers with a Fraction."""
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b", 10)],
                              rays=[sk.Ray("a", "r", 1)])
        got = sk.distance(g, p, q)
        assert got == want and type(got) is F

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


def mixed_length_graphs(rng):
    """Graphs whose edges mix explicit and formula lengths: model graphs
    split by subdivide_edge_at and then blown up, whose pieces keep
    explicit lengths while the blow-ups add formula edges, and
    stable-metric graphs with every other edge given an explicit length."""
    from skelgraph.sampling import random_graph
    for n in (3, 5, 7):
        g = random_graph(rng, max_vertices=n, max_multiplicity=8, extra_edges=2)
        e = rng.choice(g.edges)
        ell = g.edge_length(e.id)
        split = sk.subdivide_edge_at(g, e.id, ell * rng.randint(1, 4) / 5, V("s", 5))
        yield random_blowups(rng, split, 30)[1]
        stable = g.replace(metric="stable")
        yield stable.replace(edges=[
            (e.a, e.b, F(rng.randint(1, 9), rng.choice((5, 7, 12))) if i % 2 else None)
            for i, e in enumerate(stable.edges)])


def benchmark_blown_up_models(rng):
    """Random models after 50 blow-ups, drawn as the benchmark draws
    them.  Every edge of these models is a node a blow-up accepts, so
    random_blowups draws among all edges, as the benchmark does."""
    from skelgraph.sampling import random_graph
    for n in (3, 6, 9):
        g = random_graph(rng, max_vertices=n, max_multiplicity=8,
                         extra_edges=rng.randint(0, 3))
        yield random_blowups(rng, g, 50)[1]


class TestVertexDistancesOracle:
    """vertex_distances against networkx Dijkstra on Fraction lengths; both
    stay exact, so every comparison is ==."""

    def check(self, graph):
        for v in graph.vertex_ids:
            got = sk.vertex_distances(graph, v)
            assert got == networkx_distances(graph, v)
            assert all(type(d) is F for d in got.values())

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
        # the first source builds the graph's integer network, the rest reuse it
        for big in benchmark_blown_up_models(rng):
            self.check(big)

    def test_mixed_explicit_and_formula_lengths(self, rng):
        for g in mixed_length_graphs(rng):
            assert {e.length is None for e in g.edges} == {True, False}
            cold = pickle.loads(pickle.dumps(g))
            self.check(cold)
            self.check(cold)  # warm: the kept integer rows
            for v in cold.vertex_ids:
                for w in cold.vertex_ids:
                    d = sk.distance(cold, v, w)
                    assert type(d) is F and d == networkx_distances(g, v)[w]

    def test_unknown_source(self):
        g = sk.fixtures.theta_graph()
        with pytest.raises(sk.UnknownElementError, match="unknown vertex 'zz'"):
            sk.vertex_distances(g, "zz")


class TestVertexDistancesMemo:
    """Each source's distances are kept on its graph; callers get copies,
    and a derived graph answers in its own metric."""

    def test_returned_dict_is_a_copy(self):
        g = sk.fixtures.kodaira_type_ii()
        expected = networkx_distances(g, "v2")
        for _ in range(3):  # computed, then read back twice
            got = sk.vertex_distances(g, "v2")
            assert got == expected
            got["v3"] = F(-1)
            got.pop("v1")
        assert sk.distance(g, "v2", "v3") == F(5, 36)

    def test_replaced_metric_answers_in_its_own_metric(self):
        g = WeightedDualGraph(vertices=[V("a", 2), V("b", 4), V("c", 6)],
                              edges=[("a", "b"), ("b", "c"), ("a", "c")])
        model = {v: sk.vertex_distances(g, v) for v in g.vertex_ids}
        assert sk.distance(g, "a", "b") == F(1, 8)
        stable = g.replace(metric="stable")
        for v in stable.vertex_ids:
            assert sk.vertex_distances(stable, v) == networkx_distances(stable, v)
        assert sk.distance(stable, "a", "b") == F(1, 4)
        assert {v: sk.vertex_distances(g, v) for v in g.vertex_ids} == model


class TestBlownUpDistances:
    """The distance between two vertices of a blown-up model is
    symmetric and equals vertex_distances."""

    def test_vertex_pairs_are_symmetric(self, rng):
        for big in benchmark_blown_up_models(rng):
            for v in big.vertex_ids:
                for w in big.vertex_ids:
                    d = sk.distance(big, v, w)
                    assert type(d) is F
                    assert d == sk.distance(big, w, v) == sk.vertex_distances(big, v)[w]


class TestSeriesReduction:
    """_series_reduction keeps every distance among the kept vertices,
    against the graph itself and networkx, leaves no other vertex with
    fewer than three neighbours, and keeps nothing on its input."""

    # every kept value but the adjacency pair, which the constructor's
    # connectivity check fills on the cold copies read here
    KEPT = tuple(slot for slot in KEPT if slot not in ("_adjacency", "_sorted_adjacency"))

    @staticmethod
    def answers(graph):
        """Every kept value, read through the public readers; K needs a
        loop-free graph, so a graph with loops is read without it."""
        from test_models import answers
        if graph.is_loop_free():
            return answers(graph)
        return ([graph.edge_length(e.id) for e in graph.edges],
                [list(sk.vertex_distances(graph, v).items()) for v in graph.vertex_ids],
                [graph.midpoint(e.id) for e in graph.edges], sk.bridges(graph),
                refine(graph, [graph.midpoint(e.id) for e in graph.edges]),
                sk.is_spanning_tree(graph, sk.spanning_tree(graph)))

    def check(self, graph, keep):
        cold = pickle.loads(pickle.dumps(graph))
        reduced = _series_reduction(cold, keep)
        assert all(getattr(cold, slot) in ({}, None) for slot in self.KEPT)
        before = self.answers(graph)  # warms every kept value of graph
        kept = {slot: copy.deepcopy(getattr(graph, slot)) for slot in self.KEPT}
        assert _series_reduction(graph, keep) == reduced
        assert {slot: getattr(graph, slot) for slot in self.KEPT} == kept
        assert self.answers(graph) == before

        assert set(keep) <= set(reduced.vertex_ids) and reduced.metric is graph.metric
        for v in keep:
            oracle = networkx_distances(graph, v)
            for w in keep:
                assert sk.distance(reduced, v, w) == sk.distance(graph, v, w) == oracle[w]
        pairs = [frozenset((e.a, e.b)) for e in reduced.edges]
        assert all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs)
        for v in set(reduced.vertex_ids) - set(keep):
            assert len(reduced.edges_at(v)) >= 3, v

    def keeps(self, rng, graph):
        ids = graph.vertex_ids
        yield [rng.choice(ids)]
        yield ids
        for _ in range(3):
            yield rng.sample(ids, rng.randint(1, len(ids)))

    def graphs(self, rng):
        from skelgraph.sampling import random_graph, random_pair_fixture
        for _ in range(8):
            g = random_graph(rng, max_vertices=7, max_multiplicity=8, extra_edges=3)
            yield g
            yield g.replace(metric="stable")
            yield random_blowups(rng, g, rng.choice((5, 30)))[1]
            yield random_multigraph(rng, max_vertices=7, extra=4, loops=3)
            yield random_pair_fixture(rng, rng.randint(1, 3))[0]
        yield from mixed_length_graphs(rng)

    def test_kept_distances_against_the_graph_and_networkx(self, rng):
        for g in self.graphs(rng):
            for keep in self.keeps(rng, g):
                self.check(g, keep)

    def test_reduction_of_a_warm_graph_keeps_nothing(self, rng):
        # the reduced graph is new: nothing its warm input keeps carries over
        for g in self.graphs(rng):
            self.answers(g)
            reduced = _series_reduction(g, g.vertex_ids[:1])
            for slot in self.KEPT:
                assert getattr(reduced, slot) in ({}, None), slot

    def test_blown_up_model_reduces_to_the_original(self, rng):
        # node blow-ups subdivide edges and interior ones hang trees, so
        # keeping the original vertices gives back the original graph,
        # each parallel class merged into its shortest edge
        from skelgraph.sampling import random_graph

        def shape(g):
            return {(e.a, e.b, g.edge_length(e.id)) for e in g.edges}

        for _ in range(5):
            g = random_graph(rng, max_vertices=6, max_multiplicity=6, extra_edges=2)
            big = random_blowups(rng, g, 30)[1]
            reduced = _series_reduction(big, g.vertex_ids)
            assert reduced.vertices == g.vertices
            assert shape(reduced) == shape(_series_reduction(g, g.vertex_ids))


def networkx_point_distances(graph, points):
    """Oracle: subdivide a networkx copy of the graph at the interior
    points, then run Dijkstra from each point's node."""
    import networkx as nx
    node = {}
    for p in points:
        p = graph.check_point(p)
        node[p] = p.where if p.kind == "vertex" else (p.where, p.offset)
    G = nx.MultiGraph()
    G.add_nodes_from(graph.vertex_ids)
    for e in graph.edges:
        cuts = sorted({n[1] for n in node.values() if isinstance(n, tuple) and n[0] == e.id})
        stops = [(F(0), e.a), *((o, (e.id, o)) for o in cuts),
                 (graph.edge_length(e.id), e.b)]
        for (x0, u), (x1, w) in zip(stops, stops[1:]):
            G.add_edge(u, w, length=x1 - x0)
    reach = {p: nx.single_source_dijkstra_path_length(G, n, weight="length")
             for p, n in node.items()}
    return {(p, q): reach[p][node[q]] for p in node for q in node}


class TestDistanceOracle:
    """distance between vertices and interior points, also two on one
    edge and points on loops, against networkx on the subdivided graph."""

    def check(self, graph, points):
        for (p, q), d in networkx_point_distances(graph, points).items():
            got = sk.distance(graph, p, q)
            assert got == d and type(got) is F

    def test_random_multigraphs_with_loops(self, rng):
        for _ in range(25):
            g = random_multigraph(rng, max_vertices=6, extra=3, loops=2)
            points = [P.at_vertex(v) for v in g.vertex_ids]
            for e in g.edges:
                ell = g.edge_length(e.id)
                points += [P.on_edge(e.id, ell * rng.randint(1, 6) / 7)
                           for _ in range(rng.randint(0, 2))]
            self.check(g, points)

    def test_mixed_explicit_and_formula_lengths_cold_and_warm(self, rng):
        for g in mixed_length_graphs(rng):
            points = [P.at_vertex(v) for v in g.vertex_ids]
            for e in rng.sample(g.edges, min(4, len(g.edges))):
                ell = g.edge_length(e.id)
                points += [P.on_edge(e.id, ell * k / 7) for k in rng.sample(range(1, 7), 2)]
            cold = pickle.loads(pickle.dumps(g))
            assert cold._distances == {} and cold._network is None
            self.check(cold, points)
            self.check(cold, points)  # warm

    def test_copies_start_cold(self, rng):
        for g in mixed_length_graphs(rng):
            for v in g.vertex_ids:
                sk.vertex_distances(g, v)
            assert g._network is not None and len(g._distances) == len(g.vertex_ids)
            for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), g.replace()):
                assert copied._distances == {} and copied._network is None
                assert sk.vertex_distances(copied, g.vertex_ids[0]) == \
                    sk.vertex_distances(g, g.vertex_ids[0])

    def test_points_on_a_loop(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")],
                              edges=[("a", "a", F(1)), ("a", "b", F(1, 3))])
        self.check(g, [P.at_vertex("b"), P.on_edge("e0", F(1, 8)), P.on_edge("e0", F(7, 8)),
                       P.on_edge("e0", F(1, 2)), P.on_edge("e1", F(1, 6))])


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


def random_cuts(rng, g):
    """One to three cuts at tenths of the length on about 60% of the edges."""
    return [P.on_edge(e.id, g.edge_length(e.id) * k / 10)
            for e in g.edges if rng.random() < 0.6
            for k in rng.sample(range(1, 10), rng.randint(1, 3))]


def subdivide_one_by_one(g, cut_points):
    """g cut at each (vertex id, base point) by subdivide_edge_at.  Edges
    go from last to first, so the edges before keep their index, and each
    edge from e.a on, each cut on the piece between the cut before and
    e.b.  A piece stored from its far end is split from there, so pieces
    can come out in another order than from a split in one pass."""
    index = {e.id: i for i, e in enumerate(g.edges)}
    rest = {}  # edge -> (index of its uncut rest, the rest's near end, its offset)
    h = g
    for vid, p in sorted(cut_points.items(),
                         key=lambda kv: (-index[kv[1].where], kv[1].offset)):
        i, near, at = rest.get(p.where, (index[p.where], g.edge(p.where).a, 0))
        piece = h.edges[i]
        swapped = piece.a != near
        o = h.edge_length(piece.id) - (p.offset - at) if swapped else p.offset - at
        h = sk.subdivide_edge_at(h, piece.id, o, V(vid))
        rest[p.where] = (i if swapped else i + 1, vid, p.offset)
    return h


class TestRefine:
    """The layout ``refine`` returns: marks, segments, inc and L."""

    @staticmethod
    def cases(rng, n=40):
        for _ in range(n):
            g = random_multigraph(rng, max_vertices=6, extra=4, loops=2)
            cuts = random_cuts(rng, g)
            yield g, cuts, refine(g, cuts)

    def test_marks_are_vertices_then_cuts_by_edge_and_position(self, rng):
        for g, cuts, ref in self.cases(rng):
            index = {e.id: i for i, e in enumerate(g.edges)}
            cut_points = sorted(set(cuts), key=lambda p: (index[p.where], p.offset))
            assert list(ref.marks) == [*map(P.at_vertex, g.vertex_ids), *cut_points]

    def test_marks_map_to_their_positions(self, rng):
        # each mark maps to its index in mark order, and neither repeated
        # points nor vertex points nor the order given change the layout
        for g, cuts, ref in self.cases(rng):
            assert list(ref.marks.values()) == list(range(len(ref.marks)))
            again = refine(g, [*map(P.at_vertex, g.vertex_ids), *reversed(cuts), *cuts])
            assert list(again.marks.items()) == list(ref.marks.items())
            assert (again.segments, again.inc, again.L) == (ref.segments, ref.inc, ref.L)

    def test_segment_steps(self, rng):
        # L is the lcm of the edge-length and cut denominators; along each
        # edge, from e.a to e.b through its cuts, each segment's steps are
        # L times the gap between its two stops, so they sum to length * L
        for g, cuts, ref in self.cases(rng):
            L, marks = ref.L, list(ref.marks)
            assert L == lcm(*(g.edge_length(e.id).denominator for e in g.edges),
                            *(p.offset.denominator for p in cuts))
            assert [s[0] for s in ref.segments] == sorted(s[0] for s in ref.segments)
            for i, e in enumerate(g.edges):
                segs = [s for s in ref.segments if s[0] == i]
                ell = g.edge_length(e.id)
                if e.a == e.b and all(p.where != e.id for p in cuts):
                    assert segs == []
                    continue
                stops = [P.at_vertex(e.a), *(marks[b] for _, _, b, _ in segs[:-1]),
                         P.at_vertex(e.b)]
                assert [marks[a] for _, a, _, _ in segs] == stops[:-1]
                assert [marks[b] for _, _, b, _ in segs] == stops[1:]
                at = [F(0), *(p.offset for p in stops[1:-1]), ell]
                assert all(p.where == e.id for p in stops[1:-1])
                assert [n for *_, n in segs] == [L * (y - x) for x, y in zip(at, at[1:])]
                assert sum(n for *_, n in segs) == ell * L

    def test_inc_lists_segments_in_order(self, rng):
        # an interior mark lists the segment towards e.a first
        for g, _, ref in self.cases(rng):
            assert len(ref.inc) == len(ref.marks)
            for p, x in ref.marks.items():
                js = ref.inc[x]
                assert list(js) == [j for j, (_, a, b, _) in enumerate(ref.segments)
                                    if x in (a, b)]
                if p.kind == "edge":
                    assert len(js) == 2 and ref.segments[js[0]][2] == x

    def test_helper_matches_repeated_subdivide(self, rng):
        # the test-only graph built from the marks is the graph cut one
        # point at a time, and it keeps every distance
        for _ in range(40):
            g = random_multigraph(rng, max_vertices=6, extra=4, loops=2, rays=2)
            rg, cut_points = refined_graph(g, random_cuts(rng, g))
            h = subdivide_one_by_one(g, cut_points)
            assert rg.vertices == h.vertices and rg.rays == h.rays == g.rays
            assert sorted((e.a, e.b, e.length) for e in rg.edges) == \
                sorted((e.a, e.b, e.length) for e in h.edges)
            for v in g.vertex_ids:
                near = sk.vertex_distances(rg, v)
                for w in g.vertex_ids:
                    assert near[w] == sk.distance(g, v, w)
                for c, p in cut_points.items():
                    assert near[c] == sk.distance(g, p, v)

    def test_no_cuts(self):
        g = sk.fixtures.theta_graph()
        ref = refine(g, [])
        assert ref.marks == {P.at_vertex("u"): 0, P.at_vertex("v"): 1}
        assert [s[1:3] for s in ref.segments] == [(0, 1)] * 3

    def test_kept_layout_answers_as_cold(self, rng):
        # the graph keeps its uncut layout on the first call; later calls,
        # derived views, which share it, and copies, which start without
        # it, all give == layouts, and no call's marks are another's
        from skelgraph.sampling import random_pair_fixture
        graphs = [random_multigraph(rng, max_vertices=6, extra=4, loops=2, rays=2)
                  for _ in range(20)]
        graphs += [random_pair_fixture(rng, m)[0] for m in (1, 2, 3)]
        for g in graphs:
            cuts = [random_cuts(rng, g) for _ in range(3)] + [[]]
            want = [refine(pickle.loads(pickle.dumps(g)), c) for c in cuts]
            assert g._layout is None
            first = refine(g, cuts[0])
            layout = g._layout
            assert layout is not None and first.marks is not layout[2]
            for copied in (g, g.without_rays(), sk.strip_genus(g), copy.deepcopy(g),
                           pickle.loads(pickle.dumps(g)), g.replace()):
                assert [refine(copied, c) for c in cuts] == want
                assert [refine(copied, c) for c in cuts] == want  # warm
            assert g._layout is layout and sk.strip_genus(g)._layout is layout
            assert g.replace()._layout is None


class TestCheckPointOwnPoints:
    """check_point passes the graph's own vertex points and midpoints by
    identity, and checks every other point, one equal to them included."""

    def test_own_points_come_back_as_given(self):
        g = sk.fixtures.theta_graph()
        points = g._vertex_points()
        for e in g.edges:
            m = g.midpoint(e.id)
            assert g.check_point(m) is m
            equal = P.on_edge(e.id, g.edge_length(e.id) / 2)
            assert equal is not m and g.check_point(equal) is equal
        for v, p in points.items():
            assert g.check_point(p) is p
            assert g.check_point(P.at_vertex(v)) == p

    def test_other_points_are_checked_on_a_warm_graph(self):
        g = sk.fixtures.theta_graph()
        short = g.replace(edges=[(e.a, e.b, F(1, 4)) for e in g.edges])
        for e in g.edges:
            g.midpoint(e.id)
            with pytest.raises(sk.InvalidPointError, match="outside"):
                g.check_point(P.on_edge(e.id, 5))
            with pytest.raises(sk.InvalidPointError, match="outside"):
                g.check_point(P.on_edge(e.id, -1))
            # another graph's midpoint, past the end of this graph's edge
            with pytest.raises(sk.InvalidPointError, match="outside"):
                short.check_point(g.midpoint(e.id))
            assert g.check_point(P.on_edge(e.id, 0)) is g._vertex_points()[e.a]
            assert g.check_point(P.on_edge(e.id, g.edge_length(e.id))) is \
                g._vertex_points()[e.b]
        with pytest.raises(sk.UnknownElementError, match="unknown edge 'e9'"):
            g.check_point(P.on_edge("e9", F(1, 2)))
        with pytest.raises(sk.UnknownElementError, match="unknown vertex 'zz'"):
            g.check_point(P.at_vertex("zz"))


class TestGraphPointValue:
    def test_equal_points_hash_equal_whatever_the_route(self):
        g = sk.fixtures.theta_graph()
        routes = [
            [P.on_edge("e0", F(1, 3)), P.on_edge("e0", F(2, 6)),
             P("edge", "e0", F(1, 3)), [*refine(g, [P.on_edge("e0", F(2, 6))]).marks][-1]],
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


_KINDS = st.sampled_from(["vertex", "edge", "ray", "blob", "Vertex", ""])
# the strings, then ids that are not strings, which the constructor refuses
_WHERE = st.one_of(st.sampled_from(["u", "v", "e0", "e2", "e3", "x", "y"]),
                   st.text(max_size=3), st.none(), st.integers(-1, 7),
                   st.fractions(0, 2, max_denominator=3),
                   st.lists(st.text(max_size=1), max_size=2),
                   st.tuples(st.sampled_from(["u", "e0"])))
_OFFSETS = st.one_of(st.none(), st.integers(-2, 3), st.booleans(),
                     st.fractions(-1, 2, max_denominator=6),
                     st.floats(allow_nan=False), st.text(max_size=2))


def _returns_or_raises_typed(call):
    """Run call; a SkelgraphError is an answer too, any other error is not."""
    try:
        call()
    except sk.SkelgraphError:
        pass


class TestRawConstructorRule:
    """The raw constructor checks every rule of a point that does not
    need the graph, so a point it accepts is one the builders make, and
    every reader answers it or raises a typed error."""

    @settings(max_examples=300, deadline=None)
    @given(kind=_KINDS, where=_WHERE, offset=_OFFSETS)
    def test_raw_triple_is_refused_or_a_built_point(self, kind, where, offset):
        try:
            p = P(kind, where, offset)
        except sk.InvalidPointError:
            return
        built = {"vertex": lambda: P.at_vertex(where),
                 "edge": lambda: P.on_edge(where, offset),
                 "ray": lambda: P.on_ray(where, offset)}[kind]()
        assert p == built and hash(p) == hash(built)
        assert type(p.offset) is (type(None) if kind == "vertex" else F)
        assert isinstance(p.where, str)

        compact = sk.fixtures.theta_graph()
        for g in (compact, compact.replace(rays=[sk.Ray("u", "x")])):
            others = {v: 0 for v in g.vertex_ids if P.at_vertex(v) != p}
            _returns_or_raises_typed(lambda: g.check_point(p))
            _returns_or_raises_typed(lambda: sk.distance(g, p, "u"))
            _returns_or_raises_typed(lambda: PLFunction({**others, p: 1}).validate_on(g))
            _returns_or_raises_typed(lambda: sk.solve_poisson(g, sk.GraphDivisor({p: 1, "u": -1})))
            _returns_or_raises_typed(lambda: sk.reduce_divisor(g, sk.GraphDivisor({p: 1}), "u"))
            _returns_or_raises_typed(lambda: PLFunction.constant(g, 0).evaluate(g, p))
            _returns_or_raises_typed(lambda: sk.full_locus(g).contains(p))


class TestPairModelValidation:
    def test_ray_degree_enforced(self):
        with pytest.raises(sk.GraphStructureError):
            WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[sk.Ray("a", "x", 1)], pair_model=True)
        g = WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[sk.Ray("a", "x", 2)], pair_model=True)
        assert g.rays[0].degree == 2
