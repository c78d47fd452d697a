"""GraphDivisor and SubgraphLocus value semantics."""

import random
from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import GraphDivisor as D, GraphPoint as P, SubgraphLocus


class TestDivisorArithmetic:
    def test_zero_coefficients_dropped(self):
        d = D({P.at_vertex("a"): 1, P.at_vertex("b"): 0})
        assert d.support == (P.at_vertex("a"),)
        assert (d - d) == D()
        assert not (d - d)

    def test_degree_and_effectivity(self):
        d = D({P.at_vertex("a"): 2, P.at_vertex("b"): -1})
        assert d.degree == 1
        assert not d.is_effective()
        assert (d + D.at("b", 1)).is_effective()
        assert D().is_effective()

    def test_scalar_and_order(self):
        d = D({P.at_vertex("a"): 2, P.at_vertex("b"): 1})
        assert 2 * d == D({P.at_vertex("a"): 4, P.at_vertex("b"): 2})
        assert 2 * d >= d
        assert not d >= 2 * d
        assert d >= d

    def test_integrality_normalization(self):
        d = D({P.at_vertex("a"): F(4, 2)})
        assert d.coeff(P.at_vertex("a")) == 2
        assert d.is_integral()
        frac = D({P.at_vertex("a"): F(1, 2), P.at_vertex("b"): F(-1, 2)})
        assert not frac.is_integral()
        with pytest.raises(sk.NonIntegralError):
            frac.require_integral()

    def test_merging_duplicate_points(self):
        d = D([(P.at_vertex("a"), 1), (P.at_vertex("a"), 2)])
        assert d.coeff(P.at_vertex("a")) == 3

    def test_half_plus_half_is_an_int(self):
        half = D.at("a", F(1, 2))
        total = half + half
        assert type(total.coeff("a")) is int
        assert repr(total) == "GraphDivisor(+1*(a))"
        assert repr(D.at("a", 2) - D.at("a", F(1, 2)) - half) == "GraphDivisor(+1*(a))"

    def test_difference_with_itself_is_the_falsy_zero(self):
        d = D({P.at_vertex("a"): F(1, 3), P.on_edge("e0", F(1, 2)): -2})
        for zero in (d - d, d + (-d), -d + d):
            assert not zero
            assert zero == D() and hash(zero) == hash(D())
            assert repr(zero) == "GraphDivisor(0)"

    def test_negation_keeps_coefficient_types(self):
        d = -D({P.at_vertex("a"): F(1, 2), P.at_vertex("b"): 3})
        assert d.items() == ((P.at_vertex("a"), F(-1, 2)), (P.at_vertex("b"), -3))
        assert [type(c) for _, c in d.items()] == [F, int]
        assert repr(d) == "GraphDivisor((-1/2)*(a) -3*(b))"

    def test_arithmetic_matches_the_constructor(self):
        # sums, differences and negations of random divisors equal the
        # divisor built from the summed coefficients, with equal hash and repr
        rng = random.Random(5)
        points = [P.at_vertex("a"), P.at_vertex("b"), P.on_edge("e0", F(1, 3)),
                  P.on_ray("x", F(2))]

        def coeffs():
            return {p: rng.choice([0, 1, -2, F(1, 2), F(-3, 2), F(4, 2)])
                    for p in rng.sample(points, rng.randint(0, 4))}

        for _ in range(300):
            a, b = coeffs(), coeffs()
            da, db = D(a), D(b)
            for got, want in [
                (da + db, {p: a.get(p, 0) + b.get(p, 0) for p in points}),
                (da - db, {p: a.get(p, 0) - b.get(p, 0) for p in points}),
                (-da, {p: -c for p, c in a.items()}),
                (da.vertex_part(), {p: c for p, c in a.items() if p.kind == "vertex"}),
            ]:
                want = D(want)
                assert got == want and hash(got) == hash(want)
                assert repr(got) == repr(want)


class TestLocus:
    def test_segment_touching_endpoint_closes(self):
        g = sk.fixtures.theta_graph()
        locus = SubgraphLocus(g, segments={"e0": [(0, F(1, 2))]})
        assert "u" in locus.vertices  # endpointA of e0
        assert locus.contains(P.on_edge("e0", F(1, 4)))
        assert not locus.contains(P.on_edge("e0", F(3, 4)))

    def test_overlapping_segments_merge(self):
        g = sk.fixtures.theta_graph()
        a = SubgraphLocus(g, segments={"e0": [(F(1, 4), F(1, 2)),
                                              (F(1, 3), F(3, 4))]})
        assert a.segments == {"e0": ((F(1, 4), F(3, 4)),)}

    def test_reversed_segment_is_normalised(self):
        g = sk.fixtures.theta_graph()
        a = SubgraphLocus(g, segments={"e0": [(F(3, 4), F(1, 4))]})
        assert a.segments == {"e0": ((F(1, 4), F(3, 4)),)}
        assert a == SubgraphLocus(g, segments={"e0": [(F(1, 4), F(3, 4))]})

    def test_full_span_is_whole_edge(self):
        g = sk.fixtures.theta_graph()
        a = SubgraphLocus(g, segments={"e1": [(0, 1)]})
        b = SubgraphLocus(g, whole_edges=["e1"])
        assert a == b
        assert a.whole_edges() == frozenset({"e1"})
        assert {"u", "v"} <= set(a.vertices)

    def test_union_and_subset(self):
        g = sk.fixtures.theta_graph()
        a = SubgraphLocus(g, whole_edges=["e0"])
        b = SubgraphLocus(g, whole_edges=["e1"])
        u = a.union(b)
        assert a <= u and b <= u
        assert u == SubgraphLocus(g, whole_edges=["e0", "e1"])

    def test_subset_fails_on_a_missing_vertex_or_segment(self):
        g = sk.fixtures.theta_graph()
        half = SubgraphLocus(g, segments={"e0": [(F(1, 4), F(1, 2))]})
        assert not SubgraphLocus(g, vertices=["u"]) <= half
        assert not half <= SubgraphLocus(g, vertices=["u", "v"])
        assert not half <= SubgraphLocus(g, segments={"e0": [(F(1, 3), F(3, 4))]})
        assert half <= SubgraphLocus(g, segments={"e0": [(F(1, 4), F(3, 4))]})

    def test_ray_points_lie_outside(self):
        g = sk.WeightedDualGraph(vertices=[sk.VertexLabel("u")], rays=[sk.Ray("u", "x")])
        locus = SubgraphLocus(g, vertices=["u"])
        assert locus.contains("u") and not locus.contains(P.on_ray("x", 1))

    def test_out_of_range_segment_rejected(self):
        g = sk.fixtures.kodaira_type_ii()
        with pytest.raises(sk.InvalidPointError):
            SubgraphLocus(g, segments={"e0": [(0, 1)]})  # e0 has length 1/6
