"""Blow-ups and base change."""

from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import BlowUpStep, VertexLabel as V, WeightedDualGraph
from skelgraph.graphs import _KEPT, _series_reduction, refine

from conftest import random_blowups


def two_vertex(n1, n2):
    return WeightedDualGraph(vertices=[V("a", n1), V("b", n2)], edges=[("a", "b")])


class TestBlowUpNode:
    def test_symmetric_unit(self):
        g = two_vertex(1, 1)
        out = sk.blow_up_node(g, "e0")
        new = [v for v in out.vertices if v.id not in ("a", "b")][0]
        assert new.multiplicity == 2 and new.genus == 0
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 2), F(1, 2)]

    def test_one_two(self):
        g = two_vertex(1, 2)
        assert g.edge_length("e0") == F(1, 2)
        out = sk.blow_up_node(g, "e0")
        assert sorted(out.edge_length(e.id) for e in out.edges) == [F(1, 6), F(1, 3)]

    def test_kodaira_edge(self):
        g = sk.fixtures.kodaira_type_ii()
        e34 = next(e for e in g.edges if {e.a, e.b} == {"v3", "v4"})
        out = sk.blow_up_node(g, e34.id)
        new = [v for v in out.vertices if not v.id.startswith("v")][0]
        assert new.multiplicity == 9
        touched = sorted(out.edge_length(e.id) for e in out.edges
                         if new.id in (e.a, e.b))
        assert touched == [F(1, 54), F(1, 27)]
        assert sum(touched) == F(1, 18)

    def test_length_preserved_exactly(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(15):
            g = random_graph(rng, max_vertices=6, max_multiplicity=6)
            e = rng.choice(g.edges)
            old = g.edge_length(e.id)
            out = sk.blow_up_node(g, e.id)
            new_vertex = [v for v in out.vertices if not g.has_vertex(v.id)][0]
            pieces = [out.edge_length(t.id) for t in out.edges_at(new_vertex.id)]
            assert sum(pieces) == old

    def test_loop_rejected(self):
        g = WeightedDualGraph(vertices=[V("a", 1)], edges=[("a", "a")])
        with pytest.raises(sk.LoopsPresentError):
            sk.blow_up_node(g, "e0")

    def test_genus_invariant(self):
        g = sk.fixtures.theta_graph()
        out = sk.blow_up_node(g, "e1")
        assert sk.graph_genus(out) == sk.graph_genus(g)


class TestBlowUpInteriorPoint:
    @pytest.mark.parametrize("n,expected", [(1, F(1)), (6, F(1, 36)), (2, F(1, 4))])
    def test_leaf_distance(self, n, expected):
        g = WeightedDualGraph(vertices=[V("a", n)])
        out = sk.blow_up_interior_point(g, "a")
        leaf = [v for v in out.vertices if v.id != "a"][0]
        assert leaf.multiplicity == n and leaf.genus == 0
        assert out.edge_length(out.edges[0].id) == expected
        assert sk.distance(out, "a", leaf.id) == expected


class TestBaseChange:
    def test_identity(self):
        g = sk.fixtures.cycle_graph(3)
        assert sk.base_change_subdivide(g, 1) is g

    def test_single_edge_thirds(self):
        g = two_vertex(1, 1)
        out = sk.base_change_subdivide(g, 3)
        assert len(out.edges) == 3
        assert all(out.edge_length(e.id) == F(1, 3) for e in out.edges)

    def test_triangle_to_hexagon(self):
        g = sk.fixtures.cycle_graph(3)
        out = sk.base_change_subdivide(g, 2)
        assert len(out.vertex_ids) == 6 and len(out.edges) == 6
        assert all(out.edge_length(e.id) == F(1, 2) for e in out.edges)
        assert sk.graph_genus(out) == sk.graph_genus(g) == 1

    def test_non_reduced_rejected(self):
        g = two_vertex(1, 2)
        with pytest.raises(sk.GraphStructureError):
            sk.base_change_subdivide(g, 2)

    def test_residue_characteristic_check(self):
        g = sk.fixtures.cycle_graph(3)
        with pytest.raises(sk.GraphStructureError):
            sk.base_change_subdivide(g, 3, residue_char=3)
        sk.base_change_subdivide(g, 2, residue_char=3)

    def test_composition_is_isometric(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(5):
            g = random_reduced_graph(rng, max_vertices=4)
            one = sk.base_change_subdivide(sk.base_change_subdivide(g, 2), 3)
            two = sk.base_change_subdivide(g, 6)
            for v in g.vertex_ids:
                for w in g.vertex_ids:
                    assert sk.distance(one, v, w) == sk.distance(two, v, w) \
                        == sk.distance(g, v, w)

    def test_identity_on_old_points_is_isometry(self, rng):
        from skelgraph.sampling import random_reduced_graph
        g = random_reduced_graph(rng, max_vertices=5)
        out = sk.base_change_subdivide(g, 4)
        for v in g.vertex_ids:
            for w in g.vertex_ids:
                assert sk.distance(out, v, w) == sk.distance(g, v, w)


def edge_rows(g):
    return [(e.id, e.a, e.b, e.length, g.edge_length(e.id)) for e in g.edges]


class TestApplyBlowups:
    def assert_same(self, one_shot, stepwise):
        assert one_shot == stepwise
        assert one_shot.vertices == stepwise.vertices
        assert edge_rows(one_shot) == edge_rows(stepwise)
        assert one_shot.rays == stepwise.rays
        assert (one_shot.pair_model, one_shot.name) == (stepwise.pair_model, stepwise.name)

    def test_one_shot_equals_stepwise(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(10):
            g = random_graph(rng, max_vertices=8, max_multiplicity=8, extra_edges=3)
            seq, stepwise = random_blowups(rng, g, 50)
            self.assert_same(sk.apply_blowups(g, seq), stepwise)

    def test_pair_model_with_explicit_lengths(self, rng):
        from skelgraph.sampling import random_pair_fixture
        for m in (1, 2, 3):
            pg, _ = random_pair_fixture(rng, m)
            # every third edge keeps the formula, every third states it
            # explicitly, every third is twice as long (no node blow-up)
            lengths = [pg.edge_length(e.id) for e in pg.edges]
            edges = [(e.a, e.b, (None, ell, 2 * ell)[i % 3])
                     for i, (e, ell) in enumerate(zip(pg.edges, lengths))]
            g = pg.replace(edges=edges)
            assert g.pair_model and g.rays
            seq, stepwise = random_blowups(rng, g, 50)
            self.assert_same(sk.apply_blowups(g, seq), stepwise)
            assert sk.verify_metric_invariance(g, seq).ok

    # later steps name edges of the evolving graph: e1 in the first case
    # and the loop e2 in the second exist only after the first node blow-up
    @pytest.mark.parametrize("graph, steps, error, message", [
        (two_vertex(1, 2), [("node", "e0"), ("node", "e1"), ("node", "e3")],
         sk.UnknownElementError, "unknown edge 'e3'"),
        (WeightedDualGraph(vertices=[V("a", 1), V("b", 2)], edges=[("a", "b"), ("a", "a")]),
         [("node", "e0"), ("node", "e2")],
         sk.LoopsPresentError, "edge 'e2' is a loop; resolve_loops first"),
        (two_vertex(1, 2).replace(metric="stable"), [("interior", "a"), ("node", "e0")],
         sk.GraphStructureError, "node blow-ups are defined in the model metric"),
        (WeightedDualGraph(vertices=[V("a", 1), V("b", 2)], edges=[("a", "b", F(1, 3))]),
         [("interior", "b"), ("node", "e0")], sk.GraphStructureError,
         "edge 'e0' carries an explicit length 1/3 != 1/(N1*N2) = 1/2; "
         "not the edge of a model node"),
        (two_vertex(1, 2), [("node", "e0"), ("interior", "zz")],
         sk.UnknownElementError, "unknown vertex 'zz'"),
    ])
    def test_invalid_step_in_sequence(self, graph, steps, error, message):
        seq = [BlowUpStep(op, target) for op, target in steps]
        with pytest.raises(error) as raised:
            sk.apply_blowups(graph, seq)
        assert str(raised.value) == message
        if error is sk.UnknownElementError:
            wrapped = f"invalid instruction in sequence: {message}"
            with pytest.raises(sk.GraphStructureError) as raised:
                sk.verify_metric_invariance(graph, seq)
            assert str(raised.value) == wrapped

    def test_empty_sequence_returns_input(self):
        g = sk.fixtures.kodaira_type_ii()
        assert sk.apply_blowups(g, []) is g
        assert sk.apply_blowups(g, iter(())) is g


class TestVerifyMetricInvariance:
    def test_empty_sequence(self):
        g = sk.fixtures.kodaira_type_ii()
        assert sk.verify_metric_invariance(g, [])

    def test_kodaira_all_edges(self):
        g = sk.fixtures.kodaira_type_ii()
        # steps are interpreted against the evolving graph, so look each
        # original edge up by endpoints when its turn comes
        cur = g
        seq = []
        for e in g.edges:
            live = next(t for t in cur.edges
                        if {t.a, t.b} == {e.a, e.b} and t.length is None)
            seq.append(BlowUpStep("node", live.id))
            cur = sk.apply_blowups(cur, seq[-1:])
        report = sk.verify_metric_invariance(g, seq)
        assert report.ok and report.checked_pairs == 6

    def test_random_sequences(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(5):
            g = random_graph(rng, max_vertices=6, max_multiplicity=6)
            seq, _ = random_blowups(rng, g, 15)
            assert sk.verify_metric_invariance(g, seq).ok

    def test_invalid_instruction(self):
        g = sk.fixtures.cycle_graph(3)
        with pytest.raises(sk.GraphStructureError):
            sk.verify_metric_invariance(g, [BlowUpStep("node", "e99")])

    def test_moved_distances_are_reported_in_pair_order(self, monkeypatch):
        # a "blow-up" that doubles the edge v3-v4 moves every distance to v3
        g = sk.fixtures.kodaira_type_ii()

        def stretched(graph, steps):
            return graph.replace(edges=[(e.a, e.b, 2 * graph.edge_length(e.id)
                                         if e.id == "e2" else e.length)
                                        for e in graph.edges])

        monkeypatch.setattr("skelgraph.models.apply_blowups", stretched)
        report = sk.verify_metric_invariance(g, [BlowUpStep("interior", "v1")])
        assert report.ok is False and not report
        assert report.checked_pairs == 4 * 3 // 2
        assert report.discrepancies == ("d(v1,v3): 2/9 -> 5/18",
                                        "d(v2,v3): 5/36 -> 7/36",
                                        "d(v3,v4): 1/18 -> 1/9")

    # kodaira-II is the star v4 (N 6) with leaves v1, v2, v3 (N 1, 2, 3)
    # at 1/6, 1/12, 1/18.  Each case below applies the true blow-ups and
    # changes one thing in the result, which the check reads through its
    # series reduction.

    @staticmethod
    def check_changed(monkeypatch, steps, change):
        real = sk.models.apply_blowups

        def changed(graph, seq):
            return change(real(graph, seq))

        monkeypatch.setattr("skelgraph.models.apply_blowups", changed)
        return sk.verify_metric_invariance(sk.fixtures.kodaira_type_ii(), steps)

    @staticmethod
    def stretch(ends, factor):
        """The graph with the edge joining ``ends`` made ``factor`` times longer."""
        def change(g):
            assert sum({e.a, e.b} == set(ends) for e in g.edges) == 1, ends
            return g.replace(edges=[(e.a, e.b, factor * g.edge_length(e.id)
                                     if {e.a, e.b} == set(ends) else e.length)
                                    for e in g.edges])
        return change

    def test_lengthened_piece_of_a_subdivided_edge_is_reported(self, monkeypatch):
        # e2 = v3-v4 becomes v3 -1/27- e2* -1/54- v4, and e2* hangs a leaf;
        # the piece at v3 doubled moves d(v3, v4) from 1/18 to 5/54
        steps = [BlowUpStep("node", "e2"), BlowUpStep("interior", "e2*")]
        report = self.check_changed(monkeypatch, steps, self.stretch(("v3", "e2*"), 2))
        assert not report and report.checked_pairs == 6
        assert report.discrepancies == ("d(v1,v3): 2/9 -> 7/27",
                                        "d(v2,v3): 5/36 -> 19/108",
                                        "d(v3,v4): 1/18 -> 5/54")

    def test_lengthened_edge_of_a_hanging_tree_is_not_reported(self, monkeypatch):
        steps = [BlowUpStep("interior", "v1"), BlowUpStep("interior", "v1'"),
                 BlowUpStep("node", "e0"), BlowUpStep("interior", "e0*")]
        for ends in (("v1", "v1'"), ("v1'", "v1''"), ("e0*", "e0*'")):
            report = self.check_changed(monkeypatch, steps, self.stretch(ends, 5))
            assert report.ok and report.checked_pairs == 6 and report.discrepancies == ()

    def test_shortcut_between_original_vertices_is_reported(self, monkeypatch):
        def shortcut(g):
            return g.replace(edges=[*g.edges, ("v1", "v2", F(1, 100))])

        report = self.check_changed(monkeypatch, [BlowUpStep("node", "e0")], shortcut)
        assert not report
        assert report.discrepancies == ("d(v1,v2): 1/4 -> 1/100",
                                        "d(v1,v3): 2/9 -> 67/450",
                                        "d(v1,v4): 1/6 -> 7/75")

    def test_reader_call_counts(self, monkeypatch, rng):
        from skelgraph.sampling import random_graph
        calls = {"distance": [], "vertex_distances": []}
        for name in calls:
            real = getattr(sk.models, name)

            def counted(graph, *args, _real=real, _name=name):
                calls[_name].append(graph)
                return _real(graph, *args)

            monkeypatch.setattr(f"skelgraph.models.{name}", counted)
        for _ in range(5):
            g = random_graph(rng, max_vertices=7, max_multiplicity=6)
            seq, _ = random_blowups(rng, g, 20)
            for seen in calls.values():
                seen.clear()
            assert sk.verify_metric_invariance(g, seq).ok
            n = len(g.vertex_ids)
            assert len(calls["distance"]) == n * (n - 1) // 2
            assert calls["vertex_distances"] == [g] * (n - 1)
            # distance reads the reduced graph: the original vertices, not the blown-up ones
            assert all(h.vertex_ids == g.vertex_ids for h in calls["distance"])


# the slots a graph is built with, and the values it keeps on first read
BUILT = ("name", "metric", "pair_model", "_vertices", "_edges", "_rays", "_edge_index",
         "_ray_index")
KEPT = ("_adjacency", "_sorted_adjacency", "_lengths", "_distances", "_network", "_layout",
        "_points", "_midpoints", "_canonical", "_bridges", "_trees", "_compact")


def test_kept_is_the_tables_slots():
    # a new row in graphs._KEPT fails here until assert_like_cold covers it
    assert len(set(KEPT)) == len(KEPT)
    assert set(KEPT) == {slot for slot, _, _ in _KEPT}


def answers(g):
    """Every kept value of g, read through the public readers: edge
    lengths, the distance rows from each vertex, midpoints, K for
    m = 1 and 2, the bridges, the layout cut at the midpoints and the
    verdict on a spanning tree."""
    return ([g.edge_length(e.id) for e in g.edges],
            [list(sk.vertex_distances(g, v).items()) for v in g.vertex_ids],
            [g.midpoint(e.id) for e in g.edges],
            [sk.canonical_divisor(g, m) for m in (1, 2)],
            sk.bridges(g),
            refine(g, [g.midpoint(e.id) for e in g.edges]),
            sk.is_spanning_tree(g, sk.spanning_tree(g)))


def assert_like_cold(out):
    """``out``, assembled without the constructor, is the graph the
    constructor builds from its parts, slot by slot: it keeps nothing
    yet, and once read it holds the cold copy's answers and adjacency.
    Its labels are the ones ``VertexLabel`` makes from their fields."""
    for slot in KEPT:
        assert getattr(out, slot) in ({}, None), slot
    cold = WeightedDualGraph(*out.__reduce__()[1])
    for slot in BUILT:
        mine, theirs = getattr(out, slot), getattr(cold, slot)
        if isinstance(mine, dict):  # dict order is vertex and edge order
            mine, theirs = list(mine.items()), list(theirs.items())
        assert mine == theirs, slot
    for v in out.vertices:
        assert type(v) is V and v == V(v.id, v.multiplicity, v.genus)
    assert answers(out) == answers(cold)
    assert list(out._adjacency.items()) == list(cold._adjacency.items())


class TestBlowUpAssembly:
    """A blow-up assembles its graph from the checked parent: it must be
    the graph the public constructor builds from the same parts, slot by
    slot, share nothing the parent keeps, and give each new vertex
    genus 0."""

    def assert_assembled(self, parent, seq):
        before = answers(parent)  # warms every kept value of the parent
        out = sk.apply_blowups(parent, seq)
        assert_like_cold(out)
        assert all(out.vertex(v).genus == 0 for v in out.vertex_ids
                   if not parent.has_vertex(v))
        assert answers(parent) == before

    def test_random_graphs(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(8):
            g = random_graph(rng, max_vertices=8, max_multiplicity=8, extra_edges=3)
            seq, _ = random_blowups(rng, g, 30)
            for k in (1, 5, 30):
                self.assert_assembled(g, seq[:k])

    def test_random_pair_fixtures(self, rng):
        from skelgraph.sampling import random_pair_fixture
        for m in (1, 2, 3):
            pg, _ = random_pair_fixture(rng, m)
            assert pg.pair_model and pg.rays
            seq, _ = random_blowups(rng, pg, 30)
            for k in (1, 5, 30):
                self.assert_assembled(pg, seq[:k])

    @staticmethod
    def first_change(parent, seq):
        """The least position any step of ``seq`` changes: a node step's
        edge position, an interior step's append position."""
        count, first = len(parent.edges), len(parent.edges)
        for step in seq:
            first = min(first, int(step.target[1:]) if step.op == "node" else count)
            count += 1
        return first

    def test_unchanged_prefix_is_the_parents_own_edges(self, rng):
        """Edges before the least changed position are the parent's own
        objects, and none from there on is."""
        from skelgraph.sampling import random_graph, random_pair_fixture
        parents = [random_graph(rng, max_vertices=8, max_multiplicity=8, extra_edges=3)
                   for _ in range(6)]
        parents += [random_pair_fixture(rng, m)[0] for m in (1, 2, 3)]
        for g in parents:
            seq, _ = random_blowups(rng, g, 10)
            nodes = [e.id for e in g.edges if e.a != e.b and e.length is None]
            singles = [[BlowUpStep("interior", g.vertex_ids[-1])],
                       [BlowUpStep("node", nodes[len(nodes) // 2])]]
            parents_own = set(map(id, g.edges))
            for steps in (*singles, *(seq[:k] for k in (1, 2, 5, 10))):
                out = sk.apply_blowups(g, steps)
                first = self.first_change(g, steps)
                assert all(out.edges[i] is g.edges[i] for i in range(first))
                assert not any(id(e) in parents_own for e in out.edges[first:])
                assert_like_cold(out)
            assert self.first_change(g, singles[0]) == len(g.edges)


class TestSeriesReductionAssembly:
    """The series reduction assembles its graph from the blown-up one:
    it must be the graph the public constructor builds from the same
    parts, slot by slot, and share nothing the blown-up graph keeps."""

    def assert_reduced(self, parent, seq):
        big = sk.apply_blowups(parent, seq)
        before = answers(big)  # warms every kept value of the blown-up graph
        reduced = _series_reduction(big, parent.vertex_ids)
        assert_like_cold(reduced)
        assert (reduced.name, reduced.pair_model, reduced.rays) == ("", False, ())
        assert answers(big) == before

    def test_random_graphs(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(8):
            g = random_graph(rng, max_vertices=8, max_multiplicity=8, extra_edges=3)
            seq, _ = random_blowups(rng, g, 30)
            for k in (1, 5, 30):
                self.assert_reduced(g, seq[:k])
            self.assert_reduced(g.replace(metric="stable"), [])

    def test_random_pair_fixtures(self, rng):
        from skelgraph.sampling import random_pair_fixture
        for m in (1, 2, 3):
            pg, _ = random_pair_fixture(rng, m)
            seq, _ = random_blowups(rng, pg, 30)
            for k in (1, 5, 30):
                self.assert_reduced(pg, seq[:k])
