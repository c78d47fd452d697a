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

    def test_profile_is_sorted_whatever_the_insertion_order(self):
        g = length_two()
        f = PLFunction([(P.on_edge("e0", F(3, 2)), 0), ("b", 1),
                        (P.on_edge("e0", F(1, 2)), 2), ("a", 3), (P.on_edge("e0", 1), 4)])
        assert f.edge_profile(g, "e0") == [(0, 3), (F(1, 2), 2), (1, 4), (F(3, 2), 0), (2, 1)]
        assert f.slopes_on_edge(g, "e0") == (-2, 4, -8, 2)
