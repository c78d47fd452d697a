"""PLFunction profile readers on functions that do not fit the graph."""

from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import GraphPoint as P, PLFunction, VertexLabel as V, WeightedDualGraph


def length_two():
    return WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b", 2)])


READERS = {
    "has_integer_slopes": lambda g, f: f.has_integer_slopes(g),
    "slopes_on_edge": lambda g, f: f.slopes_on_edge(g, "e0"),
    "edge_profile": lambda g, f: f.edge_profile(g, "e0"),
    "evaluate-interior": lambda g, f: f.evaluate(g, P.on_edge("e0", F(1, 2))),
    "evaluate-vertex": lambda g, f: f.evaluate(g, "a"),
    "validate_on": lambda g, f: f.validate_on(g),
    "laplacian": lambda g, f: sk.laplacian(g, f),
    "min_locus": lambda g, f: sk.min_locus(g, f),
}


class TestProfileErrors:
    """Every reader of an edge's profile raises validate_on's typed
    error, not ZeroDivisionError or KeyError."""

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("offset, message", [
        (2, r"breakpoint GraphPoint.on_edge\('e0', '2'\) is not normalized"),
        (0, r"breakpoint GraphPoint.on_edge\('e0', '0'\) is not normalized"),
        (3, r"position 3 outside \[0, 2\] on edge 'e0'"),
    ])
    def test_breakpoint_off_the_open_edge(self, reader, offset, message):
        f = PLFunction({"a": 0, "b": 2, P.on_edge("e0", 1): 1, P.on_edge("e0", offset): 5})
        with pytest.raises(sk.InvalidPointError, match=f"^{message}$"):
            READERS[reader](length_two(), f)

    @pytest.mark.parametrize("reader", [*READERS, "evaluate-vertex"])
    def test_missing_vertex_value(self, reader):
        f = PLFunction({"a": 0, P.on_edge("e0", 1): 1})
        read = READERS.get(reader, lambda g, f: f.evaluate(g, "b"))
        with pytest.raises(sk.InvalidPointError, match="^no value at vertex 'b'$"):
            read(length_two(), f)

    def test_evaluate_on_a_ray_needs_the_attachment(self):
        g = length_two().replace(rays=[sk.Ray("b", "x", 1)])
        with pytest.raises(sk.InvalidPointError, match="^no value at vertex 'b'$"):
            PLFunction({"a": 0}, {"x": 1}).evaluate(g, P.on_ray("x", 1))

    def test_evaluate_on_a_ray(self):
        g = length_two().replace(rays=[sk.Ray("b", "x", 1), sk.Ray("b", "y", 1)])
        f = PLFunction({"a": 0, "b": 3}, {"x": 2})
        assert f.evaluate(g, P.on_ray("x", F(5, 2))) == 8
        assert f.evaluate(g, P.on_ray("y", 7)) == 3  # no declared slope: flat

    def test_profile_is_sorted_whatever_the_insertion_order(self):
        g = length_two()
        f = PLFunction([(P.on_edge("e0", F(3, 2)), 0), ("b", 1),
                        (P.on_edge("e0", F(1, 2)), 2), ("a", 3), (P.on_edge("e0", 1), 4)])
        assert f.edge_profile(g, "e0") == [(0, 3), (F(1, 2), 2), (1, 4), (F(3, 2), 0), (2, 1)]
        assert f.slopes_on_edge(g, "e0") == (-2, 4, -8, 2)


class TestUnvalidatedBreakpoints:
    """A breakpoint on an edge the graph does not have makes every
    whole-graph reader raise validate_on's error, so such a function
    cannot pass the lemmas' "tropical" hypothesis."""

    @staticmethod
    def stray():
        return PLFunction({"a": 0, "b": 2, P.on_edge("e9", 1): -7, P.on_ray("x", 1): 3})

    @pytest.mark.parametrize("reader", ["has_integer_slopes", "laplacian", "min_locus",
                                        "validate_on"])
    def test_reader_raises(self, reader):
        with pytest.raises(sk.UnknownElementError, match="^unknown edge 'e9'$"):
            READERS[reader](length_two(), self.stray())

    @pytest.mark.parametrize("reader", ["slopes_on_edge", "edge_profile",
                                        "evaluate-interior", "evaluate-vertex"])
    def test_one_edge_reader_raises(self, reader):
        with pytest.raises(sk.UnknownElementError, match="^unknown edge 'e9'$"):
            READERS[reader](length_two(), self.stray())

    def test_graphless_readers_read_stored_values(self):
        f = self.stray()
        assert f.min_over_compact() == -7
        assert f.shift(-f.min_over_compact()).values[P.at_vertex("a")] == 7

    def test_lemma_checkers_raise(self):
        g, f = length_two(), self.stray()
        D = sk.canonical_divisor(g)
        with pytest.raises(sk.UnknownElementError, match="^unknown edge 'e9'$"):
            sk.check_min_locus_lemma(g, ["e0"], "e0", D, f)
        chain = sk.BridgeChain(edges=("e0",), endpoints=("a", "b"))
        with pytest.raises(sk.UnknownElementError, match="^unknown edge 'e9'$"):
            sk.check_bridge_lemma(g, chain, ["e0"], 2 * D, f)


WALK_READERS = {
    "laplacian": sk.laplacian,
    "has_integer_slopes": lambda g, f: f.has_integer_slopes(g),
    "min_locus": sk.min_locus,
    "slopes_on_edge": lambda g, f: f.slopes_on_edge(g, "e1"),
    "edge_profile": lambda g, f: f.edge_profile(g, "e1"),
    "evaluate": lambda g, f: f.evaluate(g, P.on_edge("e1", F(3, 16))),
}


class TestWalkPerGraph:
    """One function read alternately on a graph and on its stable-metric
    copy answers on each as a fresh copy of it does; a function that
    does not fit one of them raises there on every read."""

    @staticmethod
    def model_and_stable():
        g = WeightedDualGraph(vertices=[V("a", 2), V("b", 2), V("c")],
                              edges=[("a", "b"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")],
                              rays=[sk.Ray("c", "x", 1)])
        return g, g.replace(metric="stable")

    @staticmethod
    def fresh(f):
        return PLFunction(f.values, f.ray_slopes)

    def assert_reads_like_a_fresh_copy(self, g, f):
        for read in WALK_READERS.values():
            got, want = read(g, f), read(g, self.fresh(f))
            assert got == want
            assert repr(got) == repr(want)

    def test_alternating_reads(self):
        g, h = self.model_and_stable()
        # e0 and e1 have length 1/4 on g and 1/2 on h
        f = PLFunction({"a": 0, "b": 0, "c": 1, P.on_edge("e0", F(1, 8)): 0,
                        P.on_edge("e1", F(1, 8)): 1, P.on_edge("e2", F(1, 4)): 1,
                        P.on_edge("e4", F(1, 2)): 3}, {"x": 1})
        # every reader answers differently on the two graphs
        fresh = self.fresh(f)
        for read in WALK_READERS.values():
            assert read(g, fresh) != read(h, fresh)
        for graph in (g, h, g, g, h, h, g):
            self.assert_reads_like_a_fresh_copy(graph, f)

    def test_profile_is_a_copy(self):
        g, _ = self.model_and_stable()
        f = PLFunction({"a": 0, "b": 2, "c": 1})
        f.edge_profile(g, "e0").append((F(1), F(9)))
        assert f.edge_profile(g, "e0") == [(0, 0), (F(1, 4), 2)]
        assert f.slopes_on_edge(g, "e0") == (8,)

    @pytest.mark.parametrize("reader", WALK_READERS)
    def test_failed_validation_is_never_kept(self, reader):
        g, h = self.model_and_stable()
        f = PLFunction({"a": 0, "b": 1, "c": 0, P.on_edge("e0", F(3, 8)): 2})
        for graph in (g, h, g, g, h, g):
            if graph is g:
                with pytest.raises(sk.InvalidPointError,
                                   match=r"^position 3/8 outside \[0, 1/4\] on edge 'e0'$"):
                    WALK_READERS[reader](g, f)
            else:
                self.assert_reads_like_a_fresh_copy(h, f)
