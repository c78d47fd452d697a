"""Tails, skeleta, canonical-form locus, witness constructions."""

import random
import re
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import skelgraph as sk
from skelgraph import (
    GraphDivisor as D,
    VertexLabel as V,
    WeightedDualGraph,
)
from conftest import brute_bridges, brute_min_points, random_blowups, random_multigraph


class TestMaximalTails:
    def test_kodaira_three_tails(self):
        g = sk.fixtures.kodaira_type_ii()
        tails = sorted(sk.find_maximal_tails(g))
        assert tails == [("v4", "v1"), ("v4", "v2"), ("v4", "v3")]

    def test_cycle_has_none(self):
        assert sk.find_maximal_tails(sk.fixtures.cycle_graph(5)) == []

    def test_path_with_genus_start(self):
        g = WeightedDualGraph(
            vertices=[V("v0", 1, 1), V("v1"), V("v2")],
            edges=[("v0", "v1"), ("v1", "v2")])
        assert sk.find_maximal_tails(g) == [("v0", "v1", "v2")]

    def test_pure_path_has_no_maximal_tail(self):
        g = sk.fixtures.path_graph(4)
        assert sk.find_maximal_tails(g) == []

    def test_long_tail_through_valency_two(self):
        # c has valency 2 and c2 is the 1-valent end; the tail walks
        # back through c and starts at the valency-4 hub
        g = WeightedDualGraph(
            vertices=[V(x) for x in "abc"] + [V("hub"), V("c2")],
            edges=[("a", "hub"), ("b", "hub"), ("c", "hub"), ("c", "c2")])
        tails = sorted(sk.find_maximal_tails(g))
        assert ("hub", "c", "c2") in tails

    @staticmethod
    def random_loop_free(rng):
        """A random loop-free graph: genus labels and extra edges, or
        parallel edges and rays; half of them blown up a few times."""
        from skelgraph.sampling import random_graph
        if rng.random() < 0.5:
            g = random_graph(rng, max_vertices=8, max_multiplicity=3, max_genus=1,
                             extra_edges=rng.randint(0, 2))
        else:
            g = random_multigraph(rng, max_vertices=6, extra=2, loops=0,
                                  rays=rng.randint(0, 2), lengths=False)
            while not g.is_loop_free():  # an extra edge may join a vertex to itself
                g = random_multigraph(rng, max_vertices=6, extra=2, loops=0,
                                      rays=rng.randint(0, 2), lengths=False)
        if rng.random() < 0.5:
            g = random_blowups(rng, g, steps=rng.randint(1, 6))[1]
        return g

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_tails_are_the_maximal_runs_from_the_leaves(self, seed):
        g = self.random_loop_free(random.Random(seed))

        def val(v):
            return g.valency(v, include_rays=False)

        def rational(v):
            return g.vertex(v).genus == 0

        tails = sk.find_maximal_tails(g)
        for s, *inner, leaf in tails:
            walk = [s, *inner, leaf]
            for x, y in zip(walk, walk[1:]):
                assert any({e.a, e.b} == {x, y} for e in g.edges_at(x))
            assert val(leaf) == 1 and rational(leaf)
            assert all(val(v) == 2 and rational(v) for v in inner)
            assert val(s) >= 3 or not rational(s)
        removed = [v for t in tails for v in t[1:]]
        starts = {t[0] for t in tails}
        assert len(removed) == len(set(removed)) and not starts & set(removed)
        leaves = [t[-1] for t in tails]
        genus0_path = all(rational(v) and val(v) <= 2 for v in g.vertex_ids)
        wanted = [] if genus0_path else [v for v in g.vertex_ids if val(v) == 1 and rational(v)]
        assert leaves == wanted

        if any(r.attach in removed for r in g.rays):
            with pytest.raises(sk.GraphStructureError, match="attaches to the contracted"):
                sk.combinatorial_skeleton(g)
            return
        skeleton = sk.combinatorial_skeleton(g)
        assert skeleton.vertices == tuple(v for v in g.vertices if v.id not in removed)
        assert [(e.a, e.b, e.length) for e in skeleton.edges] == [
            (e.a, e.b, e.length) for e in g.edges if e.a not in removed and e.b not in removed]
        assert skeleton.rays == g.rays


class TestCombinatorialSkeleton:
    def test_kodaira_contracts_to_center(self):
        out = sk.combinatorial_skeleton(sk.fixtures.kodaira_type_ii())
        assert out.vertex_ids == ("v4",)
        assert out.edges == ()

    def test_in_star_contracts_to_chain(self):
        for n in range(1, 6):
            out = sk.combinatorial_skeleton(sk.fixtures.kodaira_in_star(n))
            assert out.vertex_ids == tuple(f"c{i}" for i in range(n + 1))
            assert all(v.multiplicity == 2 for v in out.vertices)
            assert len(out.edges) == n
            assert all(out.edge_length(e.id) == F(1, 4) for e in out.edges)

    def test_cycle_unchanged(self):
        g = sk.fixtures.cycle_graph(4)
        assert sk.combinatorial_skeleton(g) is g

    def test_applied_once_only(self):
        # contracting the outer tail creates a new tail at "mid", which
        # must be kept
        g = WeightedDualGraph(
            vertices=[V("c1"), V("c2"), V("mid"), V("end")],
            edges=[("c1", "c2"), ("c1", "c2"), ("c1", "mid"), ("mid", "end")])
        # mid has valency 2, end is 1-valent: the tail starts at c1
        out = sk.combinatorial_skeleton(g)
        assert set(out.vertex_ids) == {"c1", "c2"}
        tails_of_input = sk.find_maximal_tails(g)
        removed = {v for t in tails_of_input for v in t[1:]}
        assert set(g.vertex_ids) - removed == set(out.vertex_ids)

    def test_ray_on_a_contracted_vertex_rejected(self):
        g = WeightedDualGraph(
            vertices=[V("c1"), V("c2"), V("end")],
            edges=[("c1", "c2"), ("c1", "c2"), ("c1", "end")],
            rays=[sk.Ray("end", "x")])
        with pytest.raises(sk.GraphStructureError,
                           match="^ray 'x' attaches to the contracted vertex 'end'$"):
            sk.combinatorial_skeleton(g)


class TestEssentialSkeleton:
    def test_kodaira(self):
        out = sk.essential_skeleton(sk.fixtures.kodaira_type_ii())
        assert out.vertex_ids == ("v4",)

    def test_reduced_without_tails_is_identity(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(10):
            g = random_reduced_graph(rng, genus=2, allow_leaves=False)
            assert sk.essential_skeleton(g) is g

    def test_in_star_family(self):
        out = sk.essential_skeleton(sk.fixtures.kodaira_in_star(5))
        assert len(out.vertex_ids) == 6
        assert all(v.multiplicity == 2 for v in out.vertices)

    def test_genus_zero_rejected(self):
        g = sk.fixtures.path_graph(3)
        with pytest.raises(sk.GraphStructureError):
            sk.essential_skeleton(g)

    def test_non_minimality_lint(self):
        # a reduced genus-0 leaf is a contractible exceptional component
        g = WeightedDualGraph(
            vertices=[V("a"), V("b"), V("c"), V("leaf")],
            edges=[("a", "b"), ("b", "c"), ("c", "a"), ("a", "leaf")])
        with pytest.warns(UserWarning, match="minimal model"):
            sk.essential_skeleton(g)
        # the Kodaira fixtures are minimal: their leaves have dropping
        # multiplicity and must not warn
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("error")
            sk.essential_skeleton(sk.fixtures.kodaira_type_ii())
            sk.essential_skeleton(sk.fixtures.kodaira_in_star(3))

    @staticmethod
    def _leaf_scan(graph):
        """The minimality lint as a scan over every genus-0 leaf: the
        reference the tail-based lint must match, message for message."""
        found = []
        for v in graph.vertices:
            if v.genus != 0 or graph.valency(v.id, include_rays=False) != 1:
                continue
            e = graph.edges_at(v.id)[0]
            other = e.b if e.a == v.id else e.a
            if graph.vertex(other).multiplicity == v.multiplicity:
                found.append(f"leaf {v.id!r} looks like a contractible exceptional "
                             "component; is this really the minimal model?")
        return found

    def test_lint_matches_a_leaf_scan(self):
        """Rays and blow-ups included; the warnings come in leaf order and
        point past the skeleton module, at essential_skeleton's caller."""
        rng = random.Random(506)
        warned = 0
        for _ in range(300):
            g = TestMaximalTails.random_loop_free(rng)
            want = self._leaf_scan(g) if sk.curve_genus(g) >= 1 else []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    sk.essential_skeleton(g)
                except sk.GraphStructureError:
                    pass
            assert [str(w.message) for w in caught] == want
            assert all(w.category is UserWarning and w.filename != sk.skeleton.__file__
                       for w in caught)
            warned += bool(want)
        assert warned > 120

    def test_loop_graph_raises_the_typed_error_before_any_warning(self):
        # leaf would warn, but the graph has a loop at b: tails are not defined
        g = WeightedDualGraph(vertices=[V("a"), V("b"), V("leaf")],
                              edges=[("a", "b"), ("b", "b"), ("a", "leaf")])
        assert sk.curve_genus(g) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(sk.GraphStructureError, match="loop-free"):
                sk.essential_skeleton(g)
        assert caught == []

    @staticmethod
    def _outcome(skeleton, g):
        """The skeleton, or the message of the typed error it raised (a
        ray on a tail)."""
        try:
            return skeleton(g)
        except sk.GraphStructureError as exc:
            return str(exc)

    def test_maximal_tails_are_found_once(self, monkeypatch):
        real, seen = sk.skeleton.find_maximal_tails, []

        def counted(graph):
            seen.append(graph)
            return real(graph)

        monkeypatch.setattr("skelgraph.skeleton.find_maximal_tails", counted)
        rng = random.Random(507)
        checked = 0
        for _ in range(100):
            g = TestMaximalTails.random_loop_free(rng)
            if sk.curve_genus(g) < 1:
                continue
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = self._outcome(sk.essential_skeleton, g)
            assert len(seen) == 1 and seen[0] is g
            assert out == self._outcome(sk.combinatorial_skeleton, g)
            checked += 1
        assert checked > 30


class TestCanonicalFormLocus:
    def test_cycle_entire(self):
        g = sk.fixtures.cycle_graph(4)
        assert sk.canonical_form_locus(g) == sk.full_locus(g)

    def test_dumbbell_excludes_bridge(self):
        g = sk.fixtures.dumbbell(2)
        locus = sk.canonical_form_locus(g)
        bridge_ids = sk.bridges(g)
        assert bridge_ids == brute_bridges(g)
        for e in g.edges:
            mid = g.midpoint(e.id)
            assert locus.contains(mid) == (e.id not in bridge_ids)
        # bridge endpoints on the triangles are in the locus
        assert "l0" in locus.vertices and "r0" in locus.vertices
        assert "m1" not in locus.vertices

    def test_genus_chain_disconnected_locus(self):
        g = WeightedDualGraph(
            vertices=[V("a", 1, 1), V("b"), V("c", 1, 1)],
            edges=[("a", "b"), ("b", "c")])
        locus = sk.canonical_form_locus(g)
        assert locus.vertices == frozenset({"a", "c"})
        assert locus.segments == {}

    def test_non_reduced_rejected(self):
        g = sk.fixtures.kodaira_type_ii()
        with pytest.raises(sk.GraphStructureError):
            sk.canonical_form_locus(g)

    def test_names_the_first_genus_0_leaf(self):
        from skelgraph.sampling import random_reduced_graph
        rng = random.Random(1263)
        several = 0
        for _ in range(200):
            g = random_reduced_graph(rng, max_vertices=10, genus=rng.randint(1, 3),
                                     max_genus_label=1)
            leaves = [v for v in g.vertex_ids
                      if g.vertex(v).genus == 0 and g.valency(v, include_rays=False) == 1]
            if not leaves:
                sk.canonical_form_locus(g)
                continue
            several += len(leaves) > 1
            with pytest.raises(sk.GraphStructureError) as raised:
                sk.canonical_form_locus(g)
            assert str(raised.value) == (f"1-valent genus-0 vertex {leaves[0]!r}: not the "
                                         "shape of a minimal semistable model")
        assert several > 20

    def test_contains_every_simple_cycle(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(10):
            g = random_reduced_graph(rng, genus=rng.randint(1, 3),
                                     allow_leaves=False)
            locus = sk.canonical_form_locus(g)
            for T in sk.all_spanning_trees(g)[:10]:
                for e in g.edges:
                    if e.id in T:
                        continue
                    assert sk.fundamental_cycle(g, T, e.id) <= locus


class TestWitnessCycle:
    def test_theta_every_edge(self):
        g = sk.fixtures.theta_graph()
        for eid in ("e0", "e1", "e2"):
            b = sk.witness_cycle(g, eid)
            assert b.locus.contains(g.midpoint(eid))
            assert b.divisor.is_effective()
            assert sk.div(g, b.function) == b.divisor - sk.canonical_divisor(g)

    def test_cycle_graph_constant(self):
        g = sk.fixtures.cycle_graph(4)
        b = sk.witness_cycle(g, "e0")
        assert b.locus == sk.full_locus(g)
        assert len(set(b.function.values.values())) == 1

    def test_complete_graph_four(self):
        vertices = [V(f"k{i}") for i in range(4)]
        edges = [(f"k{i}", f"k{j}") for i in range(4) for j in range(i + 1, 4)]
        g = WeightedDualGraph(vertices=vertices, edges=edges)
        assert sk.graph_genus(g) == 3
        for e in g.edges:
            b = sk.witness_cycle(g, e.id)
            assert b.locus.contains(g.midpoint(e.id))
            # the locus is a simple closed cycle: 2-regular everywhere
            whole = b.locus.whole_edges()
            degree = {}
            for eid in whole:
                t = g.edge(eid)
                degree[t.a] = degree.get(t.a, 0) + 1
                degree[t.b] = degree.get(t.b, 0) + 1
            assert set(degree.values()) == {2}
            assert set(degree) == set(b.locus.vertices)

    def test_bridge_rejected(self):
        g = sk.fixtures.dumbbell(1)
        bridge = next(iter(sk.bridges(g)))
        with pytest.raises(sk.GraphStructureError):
            sk.witness_cycle(g, bridge)

    def test_given_tree_checks_agree(self, rng, tmp_path, capsys):
        """The four places that check a given tree (the CLI's request
        check, witness_cycle's entry check, the lemma's hypotheses and
        fundamental_cycle) each refuse what networkx says is not a
        spanning tree avoiding e, and the three that do not build a
        witness accept what is."""
        import json

        import networkx as nx

        from skelgraph import io as sio
        from skelgraph.cli import main
        from skelgraph.sampling import random_reduced_graph
        verdicts = set()
        for _ in range(80):
            g = random_reduced_graph(rng, max_vertices=5, genus=rng.randint(0, 3))
            e = rng.choice(g.edges).id
            S = rng.sample([t.id for t in g.edges], len(g.vertex_ids) - 1)
            forest = nx.MultiGraph()
            forest.add_nodes_from(g.vertex_ids)
            forest.add_edges_from((g.edge(t).a, g.edge(t).b) for t in S)
            valid = nx.is_tree(forest) and e not in S
            verdicts.add((valid, e in S))

            gpath, dpath = tmp_path / "g.json", tmp_path / "d.json"
            gpath.write_text(json.dumps(sio.graph_to_json(g)))
            dpath.write_text(json.dumps({"edge": e, "tree": S}))
            code = main(["verify", "min-locus", "--graph", str(gpath), "--data", str(dpath)])
            capsys.readouterr()
            K = sk.canonical_divisor(g)
            report = sk.check_min_locus_lemma(g, S, e, K, sk.PLFunction.constant(g))
            refused = {"spanning-tree", "edge-outside-tree"} & set(report.failed_hypotheses)
            if valid:
                assert code != 2 and not refused
                assert sk.fundamental_cycle(g, S, e).contains(g.midpoint(e))
                continue
            assert code == 2 and refused
            with pytest.raises(sk.GraphStructureError):
                sk.witness_cycle(g, e, S)
            with pytest.raises(sk.GraphStructureError):
                sk.fundamental_cycle(g, S, e)
        assert verdicts == {(True, False), (False, False), (False, True)}

    def test_brute_force_cross_check(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(5):
            g = random_reduced_graph(rng, max_vertices=5, genus=2)
            non_bridges = [e.id for e in g.edges if e.id not in sk.bridges(g)]
            for eid in non_bridges[:3]:
                b = sk.witness_cycle(g, eid)
                argmin, _ = brute_min_points(g, b.function, samples_per_edge=8)
                for p in argmin:
                    assert b.locus.contains(p)


class TestWitnessBridgeChain:
    def test_dumbbell_single_bridge(self):
        g = sk.fixtures.dumbbell(1)
        b = sk.witness_bridge_chain(g)
        chain = sk.maximal_bridge_chains(g)[0]
        assert b.locus == chain.as_locus(g)
        assert b.divisor.is_effective()
        K = sk.canonical_divisor(g)
        assert sk.div(g, b.function) == b.divisor - 2 * K
        v1, v2 = chain.endpoints
        assert b.divisor >= K - D.at(v1) - D.at(v2)

    def test_dumbbell_two_edge_chain(self):
        g = sk.fixtures.dumbbell(2)
        b = sk.witness_bridge_chain(g)
        chain = sk.maximal_bridge_chains(g)[0]
        assert len(chain.edges) == 2
        assert b.locus == chain.as_locus(g)

    def test_bridgeless_rejected(self):
        with pytest.raises(sk.GraphStructureError):
            sk.witness_bridge_chain(sk.fixtures.theta_graph())

    def test_genus_one_rejected(self):
        with pytest.raises(sk.GraphStructureError):
            sk.witness_bridge_chain(sk.fixtures.cycle_graph(3))

    def test_triangle_chains(self):
        for g_count in (2, 3, 4):
            g = sk.fixtures.triangle_chain(g_count, bridge_len=2)
            for chain in sk.maximal_bridge_chains(g):
                b = sk.witness_bridge_chain(g, chain)
                assert b.locus == chain.as_locus(g)


class TestWitnessRecipe:
    """Each witness is the recipe written out: D0 at the midpoints of
    the non-tree edges, completed by the reduced divisor at q, and f the
    Poisson solution anchored at q."""

    def test_cycle(self, rng):
        from skelgraph.sampling import random_reduced_graph
        checked = 0
        for _ in range(8):
            g = random_reduced_graph(rng, max_vertices=5, genus=rng.randint(1, 3))
            K = sk.canonical_divisor(g)
            trees = sk.all_spanning_trees(g)
            for T in rng.sample(trees, min(3, len(trees))):
                for eid in sorted(e.id for e in g.edges if e.id not in T):
                    a = sk.GraphPoint.at_vertex(g.edge(eid).a)
                    D0 = D({g.midpoint(e.id): 1 for e in g.edges
                            if e.id not in T and e.id != eid})
                    E, _ = sk.reduce_divisor(g, K - D0, a)
                    b = sk.witness_cycle(g, eid, tree=T)
                    assert b.tree == T
                    assert b.divisor == D0 + E
                    assert b.function == sk.solve_poisson(g, K - b.divisor, anchor=a)
                    assert b.locus == sk.fundamental_cycle(g, T, eid)
                    checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("g", [sk.fixtures.dumbbell(1), sk.fixtures.dumbbell(2),
                                   sk.fixtures.triangle_chain(2),
                                   sk.fixtures.triangle_chain(3, bridge_len=2)],
                             ids=lambda g: g.name)
    def test_bridge_chain(self, g, rng):
        K = sk.canonical_divisor(g)
        trees = sk.all_spanning_trees(g)
        for chain in sk.maximal_bridge_chains(g):
            v1, v2 = (sk.GraphPoint.at_vertex(v) for v in chain.endpoints)
            D1 = K - D.at(v1) - D.at(v2)
            for T in [sk.spanning_tree(g)] + rng.sample(trees, min(3, len(trees))):
                D0 = D({g.midpoint(e.id): 1 for e in g.edges if e.id not in T})
                E, _ = sk.reduce_divisor(g, 2 * K - D0 - D1, v1)
                b = sk.witness_bridge_chain(g, chain, tree=T)
                assert b.tree == T
                assert b.divisor == D0 + D1 + E
                assert b.function == sk.solve_poisson(g, 2 * K - b.divisor, anchor=v1)
                assert b.locus == chain.as_locus(g)

    def test_ineffective_reduction_raises(self, monkeypatch):
        monkeypatch.setattr(sk.skeleton, "reduce_divisor",
                            lambda graph, divisor, q: (D({q: -1}), None))
        with pytest.raises(sk.PipelineError, match=re.escape(
                "no effective representative: reduced divisor is GraphDivisor(-1*(u))")):
            sk.witness_cycle(sk.fixtures.theta_graph(), "e0")

    def test_failed_lemma_raises(self, monkeypatch):
        report = sk.LemmaReport(ok=False, failed_hypotheses=("effective",),
                                conclusion_holds=None)
        monkeypatch.setattr(sk.skeleton, "check_min_locus_lemma", lambda *args: report)
        with pytest.raises(sk.PipelineError, match=re.escape(
                "cycle witness failed for 'e0': hypotheses ('effective',), "
                "conclusion None")):
            sk.witness_cycle(sk.fixtures.theta_graph(), "e0")


class TestWitnessUnionMatchesLocus:
    def test_union_of_cycle_witnesses(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(5):
            g = random_reduced_graph(rng, max_vertices=5,
                                     genus=rng.randint(1, 3),
                                     max_genus_label=1, allow_leaves=False)
            expected = sk.canonical_form_locus(g)
            work = sk.strip_genus(g)
            loci = [sk.witness_cycle(work, eid).locus
                    for eid in sorted(e.id for e in work.edges
                                      if e.id not in sk.bridges(work))]
            genus_vertices = [v.id for v in g.vertices if v.genus > 0]
            got = sk.union_loci(work, loci + [sk.vertex_locus(work, *genus_vertices)])
            # same vertex ids and edge ids: compare raw locus data
            assert got.vertices == expected.vertices
            assert got.segments == expected.segments
