"""Laplacians, Poisson solving, reduced divisors, bridges, lemmas."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import skelgraph as sk
from skelgraph import plfunction, potential
from skelgraph.graphs import refine
from skelgraph import (
    GraphDivisor as D,
    GraphPoint as P,
    PLFunction,
    VertexLabel as V,
    WeightedDualGraph,
)
from conftest import (
    brute_bridges,
    brute_min_points,
    random_degree_zero_divisor,
    random_lattice_tropical,
    random_multigraph,
    random_plfunction,
)
from laplacian_reference import laplacian_by_segments, min_locus_by_segments, slopes_by_segments
from lattice_reducer import reduce_on_lattice
from refined_graph import refined_graph


def to_networkx(graph):
    import networkx as nx
    G = nx.MultiGraph()
    G.add_nodes_from(graph.vertex_ids)
    for e in graph.edges:
        G.add_edge(e.a, e.b, key=e.id)
    return G


def k4_graph(*mults):
    """K4 on v0..v3 with the given multiplicities and model lengths."""
    vs = [V(f"v{i}", m) for i, m in enumerate(mults)]
    return WeightedDualGraph(vertices=vs,
                             edges=list(itertools.combinations([v.id for v in vs], 2)))


def unit_edge():
    return WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")])


def distance_function(graph, source):
    return PLFunction({v: sk.distance(graph, source, v) for v in graph.vertex_ids})


class TestLaplacian:
    def test_constant_is_zero(self):
        g = sk.fixtures.theta_graph()
        assert sk.laplacian(g, PLFunction.constant(g)) == D()

    def test_distance_on_unit_edge(self):
        g = unit_edge()
        f = distance_function(g, "a")
        assert sk.laplacian(g, f) == D({P.at_vertex("a"): 1, P.at_vertex("b"): -1})

    def test_kodaira_weight(self):
        g = sk.fixtures.kodaira_type_ii()
        wt = sk.weight_function(g, sk.fixtures.kodaira_type_ii_data())
        assert sk.laplacian(g, wt) == D({
            P.at_vertex("v1"): -1, P.at_vertex("v2"): -2,
            P.at_vertex("v3"): -3, P.at_vertex("v4"): 6,
        })

    def test_div_is_negative_laplacian(self):
        g = sk.fixtures.kodaira_type_ii()
        wt = sk.weight_function(g, sk.fixtures.kodaira_type_ii_data())
        assert sk.div(g, wt) == -sk.laplacian(g, wt)
        assert sk.div(g, PLFunction.constant(g)) == D()

    def test_interior_kink(self):
        g = unit_edge()
        f = PLFunction({P.at_vertex("a"): 0, P.at_vertex("b"): 0,
                        P.on_edge("e0", F(1, 2)): F(1, 2)})
        assert sk.laplacian(g, f) == D({
            P.at_vertex("a"): 1, P.at_vertex("b"): 1,
            P.on_edge("e0", F(1, 2)): -2,
        })

    def test_ray_slopes_count_outgoing(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[sk.Ray("a", "x", 1)])
        f = PLFunction({P.at_vertex("a"): 0}, {"x": 3})
        assert sk.laplacian(g, f) == D({P.at_vertex("a"): 3})

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_degree_zero_on_compact(self, seed):
        rng = random.Random(seed)
        from skelgraph.sampling import random_graph
        g = random_graph(rng, max_vertices=6, max_multiplicity=5)
        f = random_plfunction(rng, g)
        assert sk.laplacian(g, f).degree == 0

    def test_compact_degree_equals_ray_slope_sum(self, rng):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")],
                              rays=[sk.Ray("a", "x", 1), sk.Ray("b", "y", 1)])
        f = PLFunction({P.at_vertex("a"): 1, P.at_vertex("b"): F(1, 3)},
                       {"x": 2, "y": -5})
        assert sk.laplacian(g, f).degree == -3

    def test_loops_allowed(self):
        g = WeightedDualGraph(vertices=[V("a")], edges=[("a", "a", F(1))])
        f = PLFunction({P.at_vertex("a"): 0, P.on_edge("e0", F(1, 2)): F(1, 2)})
        assert sk.laplacian(g, f) == D({P.at_vertex("a"): 2,
                                        P.on_edge("e0", F(1, 2)): -2})


class TestLaplacianOracle:
    """laplacian against the per-segment accumulation it replaced: ==
    divisors with identical repr, so int and Fraction coefficients match."""

    @staticmethod
    def graphs(rng, n):
        """Loop-free graphs with multiplicities in both metrics, plus a
        loop and a ray; random multigraphs with loops, parallel edges,
        rays and unit or rational lengths."""
        from skelgraph.sampling import random_graph
        for i in range(n):
            g = random_graph(rng, max_vertices=5, max_multiplicity=5)
            v = rng.choice(g.vertex_ids)
            g = g.replace(edges=list(g.edges) + [(v, v)], rays=[sk.Ray(v, "x", 1)])
            yield g
            yield g.replace(metric="stable")
            yield random_multigraph(rng, max_vertices=5, extra=3, loops=2,
                                    rays=rng.randint(0, 2), lengths=i % 2 == 0)

    @staticmethod
    def functions(rng, g):
        """Random rational values (non-integral slopes), then, on graphs
        with unit lengths, an integer-slope function; breakpoints are
        inserted in shuffled order and every ray gets a slope."""
        slopes = {r.label: rng.randint(-3, 3) for r in g.rays}
        pairs = [(P.at_vertex(v), F(rng.randint(-4, 4), rng.randint(1, 3)))
                 for v in g.vertex_ids]
        for e in g.edges:
            ell = g.edge_length(e.id)
            pairs += [(P.on_edge(e.id, ell * k / 8), F(rng.randint(-4, 4), rng.randint(1, 3)))
                      for k in rng.sample(range(1, 8), rng.randint(0, 3))]
        rng.shuffle(pairs)
        yield PLFunction(pairs, slopes)
        if all(g.edge_length(e.id) == 1 for e in g.edges):
            pairs = list(random_lattice_tropical(rng, g, L=4).values.items())
            rng.shuffle(pairs)
            yield PLFunction(pairs, slopes)

    def test_matches_per_segment_accumulation(self):
        rng = random.Random(1011)
        seen = set()
        for g in self.graphs(rng, 40):
            for f in self.functions(rng, g):
                got, want = sk.laplacian(g, f), laplacian_by_segments(g, f)
                assert got == want
                assert repr(got) == repr(want)
                seen.update((p.kind, type(c).__name__) for p, c in got.items())
        # both coefficient types at vertices and at interior kinks
        assert seen == {("vertex", "int"), ("vertex", "Fraction"),
                             ("edge", "int"), ("edge", "Fraction")}


def _primes(count):
    found = []
    n = 2
    while len(found) < count:
        if all(n % p for p in found if p * p <= n):
            found.append(n)
        n += 1
    return found


class TestIntegerWalk:
    """The walk keeps each slope as an unreduced integer pair (n, d) with
    d > 0, and every reader agrees with the Fraction quotients."""

    def test_slopes_match_fraction_quotients(self):
        rng = random.Random(1213)
        seen = set()
        for g in TestLaplacianOracle.graphs(rng, 30):
            for f in TestLaplacianOracle.functions(rng, g):
                want = slopes_by_segments(g, f)
                walk = f._walk(g)
                for e in g.edges:
                    got = f.slopes_on_edge(g, e.id)
                    profile = f.edge_profile(g, e.id)
                    direct = tuple((y1 - y0) / (x1 - x0)
                                   for (x0, y0), (x1, y1) in zip(profile, profile[1:]))
                    assert got == want[e.id] == direct
                    assert all(type(s) is F for s in got)
                    assert len(walk[e.id][2]) == len(got)
                    for (n, d), s in zip(walk[e.id][2], got):
                        assert type(n) is int and type(d) is int and d > 0
                        assert F(n, d) == s
                integral = all(s.denominator == 1 for slopes in want.values() for s in slopes)
                assert f.has_integer_slopes(g) == integral
                seen.add(integral)
        assert seen == {True, False}

    def test_star_with_coprime_multiplicities(self):
        """200 leaves of distinct prime multiplicities, values of mixed
        denominators and interior breakpoints: the centre sums 200 end
        slopes whose denominators differ."""
        rng = random.Random(1217)
        primes = _primes(200)
        g = WeightedDualGraph(vertices=[V("c")] + [V(f"l{i:03}", p) for i, p in enumerate(primes)],
                              edges=[("c", f"l{i:03}") for i in range(200)])
        values = {P.at_vertex(v): F(rng.randint(-9, 9), rng.randint(1, 12))
                  for v in g.vertex_ids}
        for e in g.edges:
            ell = g.edge_length(e.id)
            for x in {F(rng.randint(1, m - 1), m) for m in rng.sample(range(2, 13), 2)}:
                values[P.on_edge(e.id, ell * x)] = F(rng.randint(-9, 9), rng.randint(1, 12))
        f = PLFunction(values)
        walk = f._walk(g)
        assert len({walk[e.id][2][0][1] for e in g.edges}) > 10
        got, want = sk.laplacian(g, f), laplacian_by_segments(g, f)
        assert got == want
        assert repr(got) == repr(want)
        assert type(got.coeff("c")) is F and got.coeff("c").denominator > 1

    @pytest.mark.parametrize("graph, eid", [
        (sk.fixtures.theta_graph(), "e1"),
        (sk.fixtures.triangle_chain(3), "e4"),
    ], ids=["theta", "triangle-chain-3"])
    def test_integer_path_builds_no_fraction(self, monkeypatch, graph, eid):
        """With Fraction construction patched to raise in ``potential`` and
        ``plfunction``, and Fraction arithmetic patched to raise anywhere,
        ``laplacian`` and ``has_integer_slopes`` still run on a fresh copy
        of a witness's function: with integral slopes the path is integer
        only."""
        f = sk.witness_cycle(graph, eid).function
        want = sk.laplacian(graph, f)  # the graph keeps its edge lengths
        fresh = [copy.copy(f) for _ in range(2)]

        def boom(*args, **kwargs):
            raise AssertionError("a Fraction was built or combined on the integer path")
        for module in (potential, plfunction):
            monkeypatch.setattr(module, "Fraction", boom)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                     "__mod__", "__rmod__", "__neg__"):
            monkeypatch.setattr(F, name, boom)
        got = sk.laplacian(graph, fresh[0])
        tropical = fresh[1].has_integer_slopes(graph)
        monkeypatch.undo()
        assert tropical and got == want and got.items() == want.items()
        assert any(p.kind == "edge" for p in got.support)
        assert all(type(c) is int for _, c in got.items())


class TestCanonicalDivisor:
    def test_kodaira_ii(self):
        g = sk.fixtures.kodaira_type_ii()
        assert sk.canonical_divisor(g) == D({
            P.at_vertex("v1"): -1, P.at_vertex("v2"): -2,
            P.at_vertex("v3"): -3, P.at_vertex("v4"): 6,
        })

    def test_reduced_is_valency_minus_two(self, rng):
        from skelgraph.sampling import random_reduced_graph
        g = random_reduced_graph(rng)
        K = sk.canonical_divisor(g)
        for v in g.vertex_ids:
            assert K.coeff(P.at_vertex(v)) == g.valency(v) - 2

    def test_two_canonical_of_cycle_vanishes(self):
        g = sk.fixtures.cycle_graph(3)
        assert sk.canonical_divisor(g, m=2) == D()

    def test_rays_count_toward_valency(self):
        g = WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[sk.Ray("a", "x", 2), sk.Ray("a", "y", 2)],
                              pair_model=True)
        assert sk.canonical_divisor(g) == D({P.at_vertex("a"): 0})

    def test_loops_rejected(self):
        g = WeightedDualGraph(vertices=[V("a")], edges=[("a", "a")])
        with pytest.raises(sk.LoopsPresentError):
            sk.canonical_divisor(g)

    def test_degree_identity_reduced(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(25):
            g = random_reduced_graph(rng, max_genus_label=2)
            assert sk.canonical_divisor(g).degree == 2 * (sk.graph_genus(g) - 1)


def long_edge():
    """a --2-- b: the edge points at 0 and 2 are the vertices a and b."""
    return WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b", 2)])


# (target with endpoint points, its vertex form)
ENDPOINT_TARGETS = [
    ({P.on_edge("e0", 0): 1, "b": -1}, {"a": 1, "b": -1}),
    ({P.on_edge("e0", 0): 1, "a": 2, "b": -3}, {"a": 3, "b": -3}),
    ({P.on_edge("e0", 2): -3, "b": 1, "a": 2}, {"a": 2, "b": -2}),
]


class TestEndpointPoints:
    """An edge point at an end of its edge is that vertex, and it adds
    to any coefficient the vertex itself carries."""

    @pytest.mark.parametrize("given, vertex_form", ENDPOINT_TARGETS)
    def test_solve_poisson_reads_the_vertex_form(self, given, vertex_form):
        g = long_edge()
        f = sk.solve_poisson(g, D(given), anchor="a")
        assert f == sk.solve_poisson(g, D(vertex_form), anchor="a")
        assert sk.laplacian(g, f) == D(vertex_form)

    @pytest.mark.parametrize("given, vertex_form", ENDPOINT_TARGETS)
    def test_reduce_divisor_reads_the_vertex_form(self, given, vertex_form):
        g = long_edge()
        for q in ("a", P.on_edge("e0", 2)):
            assert sk.reduce_divisor(g, D(given), q) == sk.reduce_divisor(g, D(vertex_form), q)


class TestSolvePoisson:
    def test_zero_target(self):
        g = sk.fixtures.theta_graph()
        f = sk.solve_poisson(g, D())
        assert set(f.values.values()) == {0}

    def test_unit_edge_inverse(self):
        g = unit_edge()
        f = sk.solve_poisson(g, D({P.at_vertex("a"): 1, P.at_vertex("b"): -1}),
                             anchor="a")
        assert f == distance_function(g, "a")

    def test_kodaira_values(self):
        g = sk.fixtures.kodaira_type_ii()
        f = sk.solve_poisson(g, sk.canonical_divisor(g), anchor="v4").shift(F(5, 6))
        assert {p.where: x for p, x in f.values.items()} == {
            "v1": 1, "v2": 1, "v3": 1, "v4": F(5, 6)}

    def test_degree_mismatch(self):
        g = unit_edge()
        with pytest.raises(sk.DegreeMismatchError):
            sk.solve_poisson(g, D.at("a", 1))

    def test_ray_boundary_data(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")],
                              rays=[sk.Ray("a", "x", 1)])
        f = sk.solve_poisson(g, D({P.at_vertex("b"): 2}),
                             ray_slopes={"x": 2}, anchor="a")
        assert sk.laplacian(g, f) == D({P.at_vertex("a"): 0, P.at_vertex("b"): 2}) \
            + D({P.at_vertex("a"): 0})
        assert f.ray_slopes == {"x": 2}

    def test_ray_slopes_never_truncated(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")],
                              rays=[sk.Ray("a", "x", 1)])
        f = sk.solve_poisson(g, D({P.at_vertex("b"): 2}),
                             ray_slopes={"x": F(4, 2)}, anchor="a")
        assert f.ray_slopes == {"x": 2}
        for bad in (F(3, 2), 1.5):
            with pytest.raises(sk.NonIntegralError):
                sk.solve_poisson(g, D({P.at_vertex("b"): F(3, 2)}),
                                 ray_slopes={"x": bad}, anchor="a")

    def test_interior_target(self):
        g = unit_edge()
        mid = P.on_edge("e0", F(1, 2))
        t = D({mid: 2, P.at_vertex("a"): -1, P.at_vertex("b"): -1})
        f = sk.solve_poisson(g, t, anchor="a")
        assert sk.laplacian(g, f) == t

    def test_vertex_named_like_a_cut(self):
        # a refined graph would name the cut at e0's midpoint "e0@1/2";
        # a base vertex with that id gets the same solution as under any
        # other name
        def solve(name):
            g = WeightedDualGraph(vertices=[V("a"), V(name)], edges=[("a", name)])
            t = D({P.on_edge("e0", F(1, 2)): 1, P.at_vertex(name): -1})
            f = sk.solve_poisson(g, t, anchor="a")
            assert sk.laplacian(g, f) == t
            return f
        renamed = {P.at_vertex("e0@1/2"): P.at_vertex("b")}
        assert {renamed.get(p, p): x for p, x in solve("e0@1/2").values.items()} \
            == solve("b").values

    def test_one_refine_call_and_no_graph_built(self, monkeypatch):
        # the Poisson solve and the reduction each run on the integer
        # layout of one refine call and build no graph
        from skelgraph import graphs, potential

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built")

        def counted(*args):
            calls.append(args)
            return graphs.refine(*args)

        g = sk.fixtures.theta_graph()
        cut = P.on_edge("e2", F(1, 4))
        target = D({P.on_edge("e0", F(1, 2)): 2, P.on_edge("e1", F(1, 3)): -1, "v": -1})
        calls = []
        monkeypatch.setattr(graphs, "split_edges", no_graph)
        monkeypatch.setattr(WeightedDualGraph, "__init__", no_graph)
        monkeypatch.setattr(potential, "refine", counted)
        f = sk.solve_poisson(g, target, anchor=cut)
        assert len(calls) == 1
        reduced, _ = sk.reduce_divisor(g, D({cut: 1, "u": 2}), cut)
        assert len(calls) == 2
        monkeypatch.undo()
        assert sk.laplacian(g, f) == target and f.evaluate(g, cut) == 0
        assert reduced.degree == 3 and reduced.is_effective()

    def test_ray_supported_target_rejected(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[sk.Ray("a", "x", 1)])
        t = D({P.on_ray("x", F(1, 2)): 1})
        with pytest.raises(sk.InvalidPointError):
            sk.solve_poisson(g, t, ray_slopes={"x": 1}, anchor="a")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip_and_constant_ambiguity(self, seed):
        rng = random.Random(seed)
        from skelgraph.sampling import random_graph
        g = random_graph(rng, max_vertices=6, max_multiplicity=4)
        t = random_degree_zero_divisor(rng, g)
        f1 = sk.solve_poisson(g, t, anchor=g.vertex_ids[0])
        assert sk.laplacian(g, f1) == t
        f2 = sk.solve_poisson(g, t, anchor=g.vertex_ids[-1])
        assert sk.differ_by_constant(g, f1, f2)

    def test_solve_of_laplacian_recovers_up_to_constant(self, rng):
        from skelgraph.sampling import random_graph
        for _ in range(10):
            g = random_graph(rng, max_vertices=5, max_multiplicity=4)
            f = random_plfunction(rng, g)
            back = sk.solve_poisson(g, sk.laplacian(g, f), anchor=g.vertex_ids[0])
            assert sk.differ_by_constant(g, back, f)


def sympy_poisson(graph, target, ray_slopes, anchor):
    """Oracle: sympy's exact LU solve of the dense Laplacian system on the
    refined graph, with the anchor's row replaced by f(anchor) = 0, as a
    map from base points to values."""
    import sympy

    anchor = graph.check_point(anchor)
    rg, cut_points = refined_graph(graph, [*map(graph.check_point, target.support), anchor])
    pos = {v: i for i, v in enumerate(rg.vertex_ids)}
    cut_at = {p: v for v, p in cut_points.items()}  # base point -> cut vertex

    def row(p):
        return pos[p.where if p.kind == "vertex" else cut_at[p]]

    n = len(pos)
    lap, rhs = sympy.zeros(n, n), sympy.zeros(n, 1)
    for e in rg.edges:
        ell = rg.edge_length(e.id)
        c = sympy.Rational(ell.denominator, ell.numerator)
        i, j = pos[e.a], pos[e.b]
        lap[i, i] -= c
        lap[i, j] += c
        lap[j, j] -= c
        lap[j, i] += c
    for p in target.support:
        c = F(target.coeff(p))
        rhs[row(p)] += sympy.Rational(c.numerator, c.denominator)
    for label, s in ray_slopes.items():
        rhs[pos[graph.ray(label).attach]] -= s
    a = row(anchor)
    lap[a, :] = sympy.zeros(1, n)
    lap[a, a] = 1
    rhs[a] = 0
    sol = lap.LUsolve(rhs)
    return {cut_points.get(v) or P.at_vertex(v): F(int(sol[i].p), int(sol[i].q))
            for v, i in pos.items()}


def random_poisson_problem(rng):
    """A solvable problem on a random graph with parallel edges, loops
    and rays: rational targets at vertices and interior edge points
    (loops included), integer ray slopes, and a vertex or interior
    anchor."""
    g = random_multigraph(rng, rays=rng.randint(0, 2))
    slopes = {r.label: rng.randint(-2, 2) for r in g.rays}
    coeffs = {P.at_vertex(v): F(rng.randint(-3, 3), rng.randint(1, 3))
              for v in g.vertex_ids}
    for _ in range(rng.randint(1, 3)):
        e = rng.choice(g.edges)
        p = P.on_edge(e.id, g.edge_length(e.id) * rng.randint(1, 3) / 4)
        coeffs[p] = coeffs.get(p, 0) + rng.randint(-2, 2)
    first = P.at_vertex(g.vertex_ids[0])
    coeffs[first] += sum(slopes.values()) - sum(coeffs.values())
    if rng.random() < 0.5:
        anchor = P.at_vertex(rng.choice(g.vertex_ids))
    else:
        e = rng.choice(g.edges)
        anchor = P.on_edge(e.id, g.edge_length(e.id) * rng.randint(1, 4) / 5)
    return g, D(coeffs), slopes, anchor


class TestPoissonOracle:
    def test_matches_dense_sympy_solve(self):
        rng = random.Random(1506)
        for _ in range(40):
            g, t, slopes, anchor = random_poisson_problem(rng)
            f = sk.solve_poisson(g, t, ray_slopes=slopes, anchor=anchor)
            assert f.values == sympy_poisson(g, t, slopes, anchor)
            assert f.ray_slopes == slopes

    def test_tree_needs_no_linear_solve(self, monkeypatch):
        def refuse(rows, rhs):
            raise AssertionError("linear solve called")

        monkeypatch.setattr(sk.potential, "_solve_linear", refuse)
        # a tree with a loop that carries no target: no chords
        g = WeightedDualGraph(vertices=[V("a"), V("b"), V("c"), V("d")],
                              edges=[("a", "b", F(1, 2)), ("b", "c", 2), ("b", "d"),
                                     ("c", "c", 3)],
                              rays=[sk.Ray("d", "x", 1)])
        t = D({P.on_edge("e1", 1): F(5, 2), P.at_vertex("a"): -1, P.at_vertex("c"): F(3, 2)})
        anchor = P.on_edge("e0", F(1, 4))
        f = sk.solve_poisson(g, t, ray_slopes={"x": 3}, anchor=anchor)
        assert f.values == sympy_poisson(g, t, {"x": 3}, anchor)
        assert sk.laplacian(g, f) == t
        with pytest.raises(AssertionError, match="linear solve called"):
            sk.solve_poisson(sk.fixtures.theta_graph(), D())


    def test_high_genus_reduced_graph(self):
        from skelgraph.sampling import random_reduced_graph
        rng = random.Random(40)
        g = random_reduced_graph(rng, max_vertices=12, genus=40)
        assert sk.graph_genus(g) >= 40
        coeffs = {P.at_vertex(v): F(rng.randint(-3, 3), rng.randint(1, 5))
                  for v in g.vertex_ids}
        for _ in range(3):
            e = rng.choice(g.edges)
            coeffs[P.on_edge(e.id, F(rng.randint(1, 6), 7))] = F(rng.randint(-3, 3), 5)
        coeffs[P.at_vertex(g.vertex_ids[0])] -= sum(coeffs.values())
        t, anchor = D(coeffs), P.at_vertex(g.vertex_ids[-1])
        f = sk.solve_poisson(g, t, anchor=anchor)
        assert f.values == sympy_poisson(g, t, {}, anchor)

    @staticmethod
    def coprime_problems():
        """Lengths 1/101, 1/103, 1/107 and coefficients 1/2, 1/3, 5/7,
        with a ray, on a theta and on a K4 with a parallel edge."""
        theta = WeightedDualGraph(
            vertices=[V("u"), V("v")],
            edges=[("u", "v", F(1, 101)), ("u", "v", F(1, 103)), ("u", "v", F(1, 107))],
            rays=[sk.Ray("v", "x", 1)])
        k4 = WeightedDualGraph(
            vertices=[V(f"w{i}") for i in range(4)],
            edges=[(a, b, F(1, [101, 103, 107][i % 3]))
                   for i, (a, b) in enumerate([*itertools.combinations(
                       [f"w{i}" for i in range(4)], 2), ("w0", "w1")])],
            rays=[sk.Ray("w2", "x", 1), sk.Ray("w3", "y", 1)])
        for g, slopes in ((theta, {"x": 2}), (k4, {"x": -1, "y": 3})):
            e0, e1 = g.edges[0].id, g.edges[1].id
            coeffs = {P.at_vertex(g.vertex_ids[0]): F(1, 2),
                      P.at_vertex(g.vertex_ids[1]): F(1, 3),
                      P.on_edge(e0, F(1, 202)): F(5, 7)}
            coeffs[P.on_edge(e1, F(1, 309))] = sum(slopes.values()) - sum(coeffs.values())
            for anchor in (P.at_vertex(g.vertex_ids[-1]), P.on_edge(e1, F(2, 309))):
                yield g, D(coeffs), slopes, anchor

    def test_coprime_denominators(self):
        for g, t, slopes, anchor in self.coprime_problems():
            assert {F(c).denominator for _, c in t.items()} >= {2, 3, 7}
            f = sk.solve_poisson(g, t, ray_slopes=slopes, anchor=anchor)
            assert f.values == sympy_poisson(g, t, slopes, anchor)
            assert f.ray_slopes == slopes
            assert sk.laplacian(g, f) == t
            assert f.evaluate(g, anchor) == 0


class TestSolveLinear:
    """Bareiss elimination without pivoting on symmetric positive
    definite systems, against sympy's exact LU solve: x / det is the
    solution and det the determinant.  The chord systems solve_poisson
    builds are such systems.  General and singular systems are outside
    the helper's contract; it only guarantees that a pivot that is not
    positive raises."""

    def test_matches_sympy(self):
        import sympy
        rng = random.Random(1968)
        for _ in range(3):
            for n in range(1, 13):
                b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                rows = [[sum(b[k][i] * b[k][j] for k in range(n)) + (i == j)
                         for j in range(n)] for i in range(n)]
                rhs = [rng.randint(-50, 50) for _ in range(n)]
                x, d = sk.potential._solve_linear(rows, rhs)
                assert all(type(v) is int for v in [*x, d])
                m = sympy.Matrix(rows)
                assert d == m.det() > 0
                expected = m.LUsolve(sympy.Matrix(rhs))
                assert [F(v, d) for v in x] == [F(int(e.p), int(e.q)) for e in expected]

    def test_poisson_chord_systems_are_symmetric(self, monkeypatch):
        seen = []
        solve_linear = sk.potential._solve_linear

        def spy(rows, rhs):
            seen.append(rows)
            return solve_linear(rows, rhs)

        monkeypatch.setattr(sk.potential, "_solve_linear", spy)
        rng = random.Random(1506)
        for _ in range(40):
            g, t, slopes, anchor = random_poisson_problem(rng)
            sk.solve_poisson(g, t, ray_slopes=slopes, anchor=anchor)
        assert len(seen) >= 20 and max(len(rows) for rows in seen) >= 3
        for rows in seen:
            assert all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))

    def test_non_positive_pivot_raises(self):
        # singular, negative definite, indefinite, and a zero first pivot
        for rows in ([[0]], [[1, 2], [2, 4]], [[-1]], [[1, 2], [2, 1]], [[0, 1], [1, 0]]):
            with pytest.raises(sk.PipelineError,
                               match=r"^Poisson chord system is not positive definite: "
                                     r"pivot -?\d+$"):
                sk.potential._solve_linear(rows, [1] * len(rows))


class TestMinLocus:
    def test_constant_whole_graph(self):
        g = sk.fixtures.theta_graph()
        assert sk.min_locus(g, PLFunction.constant(g, 7)) == sk.full_locus(g)

    def test_distance_single_edge(self):
        g = unit_edge()
        assert sk.min_locus(g, distance_function(g, "a")) == \
            sk.vertex_locus(g, "a")

    def test_kodaira_weight(self):
        g = sk.fixtures.kodaira_type_ii()
        wt = sk.weight_function(g, sk.fixtures.kodaira_type_ii_data())
        assert sk.min_locus(g, wt) == sk.vertex_locus(g, "v4")

    def test_raw_vertex_point_with_an_offset_never_reaches_it(self):
        """A raw vertex point with an offset is refused where it is
        made, so it cannot hide the value at u from the minimum; the
        function without it has minimum locus {u}."""
        g = sk.fixtures.theta_graph()
        with pytest.raises(sk.InvalidPointError, match="vertex point offset must be None, got 5"):
            PLFunction({P("vertex", "u", 5): -5, "u": 0, "v": 1})
        assert sk.min_locus(g, PLFunction({"u": 0, "v": 1})) == sk.vertex_locus(g, "u")

    def test_negative_ray_slope_rejected(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[sk.Ray("a", "x", 1)])
        f = PLFunction({P.at_vertex("a"): 0}, {"x": -1})
        with pytest.raises(sk.MinimumNotAttainedError):
            sk.min_locus(g, f)

    def test_isolated_interior_minimum(self):
        g = unit_edge()
        f = PLFunction({P.at_vertex("a"): 1, P.at_vertex("b"): 1,
                        P.on_edge("e0", F(1, 3)): 0})
        locus = sk.min_locus(g, f)
        assert locus.vertices == frozenset()
        assert locus.segments == {"e0": ((F(1, 3), F(1, 3)),)}
        assert locus.contains(P.on_edge("e0", F(1, 3)))
        assert not locus.contains(P.on_edge("e0", F(1, 2)))

    def test_agrees_with_sampling_oracle(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(10):
            g = random_reduced_graph(rng, max_vertices=5)
            f = random_lattice_tropical(rng, g, L=2)
            locus = sk.min_locus(g, f)
            argmin, m = brute_min_points(g, f, samples_per_edge=8)
            assert m >= f.min_over_compact()
            for p in argmin:
                if f.evaluate(g, p) == f.min_over_compact():
                    assert locus.contains(p)
            # nothing outside the locus evaluates to the minimum
            for p in argmin:
                assert locus.contains(p) == (f.evaluate(g, p) == f.min_over_compact())


class TestMinLocusOracle:
    """min_locus against the per-segment reading it replaced: == loci
    with identical repr and segment order, on multigraphs with parallel
    edges, loops and rays, and functions whose values come from a few
    levels, so that minima tie in every way a locus can be shaped."""

    @staticmethod
    def cases(rng, n):
        for i in range(n):
            g = random_multigraph(rng, max_vertices=4, extra=3, loops=2,
                                  rays=rng.randint(0, 2), lengths=i % 3 != 0)
            slopes = {r.label: rng.randint(0, 2) for r in g.rays}
            if slopes and i % 10 == 0:
                slopes[g.rays[0].label] = -1
            base = F(rng.randint(-3, 3), rng.randint(1, 2))
            levels = [F(0), F(0), F(0), F(1, 2), F(2)]
            pairs = [(P.at_vertex(v), base + rng.choice(levels)) for v in g.vertex_ids]
            for e in g.edges:
                ell = g.edge_length(e.id)
                pairs += [(P.on_edge(e.id, ell * k / 6), base + rng.choice(levels))
                          for k in rng.sample(range(1, 6), rng.randint(0, 4))]
            rng.shuffle(pairs)
            yield g, PLFunction(pairs, slopes)

    @staticmethod
    def shapes(g, f, locus):
        """The kinds of pieces the locus and the case are made of."""
        ends = [frozenset((e.a, e.b)) for e in g.edges]
        out = {f"ray-slope-{'0' if s == 0 else '+'}" for s in f.ray_slopes.values()}
        for eid, segs in locus.segments.items():
            e, ell = g.edge(eid), g.edge_length(eid)
            if e.a == e.b:
                out.add("loop")
            if ends.count(frozenset((e.a, e.b))) > 1:
                out.add("parallel")
            for a, b in segs:
                if a == b:
                    out.add("isolated-interior")
                elif (a, b) == (0, ell):
                    out.add("whole-edge")
                elif a == 0 or b == ell:
                    out.add("plateau-at-vertex")
                else:
                    out.add("interior-plateau")
        return out

    def test_matches_per_segment_reading(self):
        rng = random.Random(1506)
        seen, compared, rejected = set(), 0, 0
        for g, f in self.cases(rng, 150):
            try:
                want = min_locus_by_segments(g, f)
            except sk.MinimumNotAttainedError as exc:
                with pytest.raises(sk.MinimumNotAttainedError, match=f"^{re.escape(str(exc))}$"):
                    sk.min_locus(g, f)
                rejected += 1
                continue
            got = sk.min_locus(g, f)
            assert got == want
            assert repr(got) == repr(want)
            assert list(got.segments.items()) == list(want.segments.items())
            seen |= self.shapes(g, f, got)
            compared += 1
        assert compared >= 120 and rejected > 0
        assert seen == {"ray-slope-0", "ray-slope-+", "loop", "parallel", "isolated-interior",
                        "whole-edge", "plateau-at-vertex", "interior-plateau"}


class TestBridges:
    def test_triangle(self):
        assert sk.bridges(sk.fixtures.cycle_graph(3)) == frozenset()

    def test_path(self):
        g = sk.fixtures.path_graph(3)
        assert sk.bridges(g) == frozenset(e.id for e in g.edges)

    def test_dumbbell_joining_edge(self):
        g = sk.fixtures.dumbbell(1)
        assert sk.bridges(g) == brute_bridges(g)
        assert len(sk.bridges(g)) == 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_deletion_oracle(self, seed):
        rng = random.Random(seed)
        from skelgraph.sampling import random_graph
        g = random_graph(rng, max_vertices=7, max_multiplicity=3)
        assert sk.bridges(g) == brute_bridges(g)

    def test_matches_networkx(self):
        import networkx as nx
        rng = random.Random(2006)
        for _ in range(40):
            g = random_multigraph(rng, max_vertices=7, lengths=False)
            ours = {frozenset((g.edge(eid).a, g.edge(eid).b)) for eid in sk.bridges(g)}
            assert ours == {frozenset(p) for p in nx.bridges(to_networkx(g))}

    def test_parallel_and_loops_never_bridges(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")],
                              edges=[("a", "b"), ("a", "b"), ("a", "a")])
        assert sk.bridges(g) == frozenset()


def _memo_answers(g, m, f, Din, q):
    """What every reader of the graph's memos answers on g: K for m, the
    bridges, laplacian(f), the q-reduced form of mK + Din with its
    function (on a compact graph) and the Poisson solution of mK + Din
    less its degree at q, anchored at q; functions as their ordered
    values."""
    K = sk.canonical_divisor(g, m)
    target = m * K + Din - D.at(q, (m * K + Din).degree)
    out = [K, sk.bridges(g), sk.laplacian(g, f),
           list(sk.solve_poisson(g, target, anchor=q).values.items())]
    if not g.rays:
        reduced, h = sk.reduce_divisor(g, m * K + Din, q)
        out += [reduced, list(h.values.items())]
    return out


class TestGraphMemos:
    """A graph keeps its vertex points, K for each m asked for and its
    bridges.  None of that changes an answer: a cold graph, the same
    graph warm, and its pickle, deepcopy and replace copies all give
    == results, and bad input raises on every call."""

    @staticmethod
    def graphs():
        rng = random.Random(4711)
        out = [sk.resolve_loops(random_multigraph(rng, max_vertices=6)) for _ in range(20)]
        out += [sk.resolve_loops(random_multigraph(rng, max_vertices=4, rays=2))
                for _ in range(3)]
        out += [sk.fixtures.fixture(name) for name in sk.fixtures.fixture_names()]
        out.append(sk.fixtures.triangle_chain(3, 2))
        return rng, out

    def test_cold_warm_and_copies_agree(self):
        import networkx as nx
        rng, graphs = self.graphs()
        for g in graphs:
            f = random_plfunction(rng, g)
            Din = random_degree_zero_divisor(rng, g)
            for m in (1, 2, 3):
                for q in (g.vertex_ids[-1], g.midpoint(rng.choice(g.edges).id)):
                    cold = pickle.loads(pickle.dumps(g))
                    want = _memo_answers(cold, m, f, Din, q)
                    assert _memo_answers(cold, m, f, Din, q) == want  # warm
                    for copied in (pickle.loads(pickle.dumps(cold)), copy.deepcopy(cold),
                                   cold.replace()):
                        assert copied._bridges is None and copied._canonical == {}
                        assert _memo_answers(copied, m, f, Din, q) == want
                    assert _memo_answers(g, m, f, Din, q) == want  # warm across m and q
                    K, cut = sk.canonical_divisor(cold, m), sk.bridges(cold)
                    assert sk.canonical_divisor(cold, m) is K and sk.bridges(cold) is cut
                    assert type(K) is D and type(cut) is frozenset
            ours = {frozenset((g.edge(eid).a, g.edge(eid).b)) for eid in sk.bridges(g)}
            assert ours == {frozenset(p) for p in nx.bridges(to_networkx(g))}

    def test_vertex_keys_are_the_graph_points(self):
        g = sk.fixtures.triangle_chain(2)
        points = g._vertex_points()
        assert list(points) == list(g.vertex_ids) and g._vertex_points() is points
        f = sk.witness_cycle(g, "e0").function
        for divisor in (sk.canonical_divisor(g), sk.laplacian(g, f)):
            assert all(p is points[p.where] for p in divisor.support if p.kind == "vertex")
        assert all(p is points[p.where] for p in f.values if p.kind == "vertex")

    def test_replace_with_new_labels_has_its_own_canonical_divisor(self):
        g = sk.fixtures.triangle_chain(2)
        K = sk.canonical_divisor(g)
        labels = [V(v.id, 1 + i % 3, i % 2) for i, v in enumerate(g.vertices)]
        h = g.replace(vertices=labels)
        for m in (1, 2, 3):
            assert sk.canonical_divisor(h, m) == D({
                v.id: m * v.multiplicity * (h.valency(v.id) + 2 * v.genus - 2)
                for v in labels})
        assert sk.canonical_divisor(h) != K and sk.canonical_divisor(g) is K

    @pytest.mark.parametrize("m", [0, -1, 1.0, True, F(1), "1", None])
    def test_bad_m_raises_on_every_call(self, m):
        g = sk.fixtures.theta_graph()
        sk.canonical_divisor(g, 1)  # 1.0, True and F(1) hash as the memo's key 1
        for _ in range(3):
            with pytest.raises(sk.GraphStructureError, match="m must be a positive integer"):
                sk.canonical_divisor(g, m)

    def test_loops_raise_on_every_call(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b"), ("b", "b")])
        sk.bridges(g)
        for m in (1, 2, 1, 2):
            with pytest.raises(sk.LoopsPresentError):
                sk.canonical_divisor(g, m)
        assert g._canonical == {}


def _view_answers(g, f, points):
    """What the graph layer and K answer on g: its edge lengths, every
    vertex's distances, the distances among ``points``, the midpoints,
    the bridges, K for m = 1, 2, 3, laplacian(f) and the layout of g
    cut at ``points``."""
    cut = refine(g, [g.check_point(p) for p in points])
    return [[g.edge_length(e.id) for e in g.edges],
            [sk.vertex_distances(g, v) for v in g.vertex_ids],
            [sk.distance(g, p, q) for p in points for q in points],
            [g.midpoint(e.id) for e in g.edges], sk.bridges(g),
            [sk.canonical_divisor(g, m) for m in (1, 2, 3)], sk.laplacian(g, f),
            (cut.marks, cut.segments, cut.inc, cut.L)]


class TestDerivedViews:
    """``without_rays()`` and ``strip_genus`` derive views that share
    their parent's edges, vertex points and the kept values whose inputs
    they leave unchanged.  Each view is == the graph the constructor
    builds from the same parts and answers as it does, cold and warm;
    the parent answers as before once its views have filled the shared
    values; and each view has its own K."""

    @staticmethod
    def graphs():
        from skelgraph.sampling import random_pair_fixture
        rng = random.Random(1506)
        out = [random_pair_fixture(rng, m)[0] for m in (1, 2, 3) for _ in range(4)]
        for genus, bridge in ((1, 1), (2, 1), (3, 2)):
            chain = sk.fixtures.triangle_chain(genus, bridge)
            chain = chain.replace(vertices=[V(v.id, 1, i % 3)
                                            for i, v in enumerate(chain.vertices)])
            out += [chain, chain.replace(rays=[sk.Ray(chain.vertex_ids[0], "x")])]
        return rng, out

    @staticmethod
    def views(g):
        """(view, the same graph built cold) for both derived views of g."""
        compact = WeightedDualGraph(g.vertices, g.edges, (), g.metric, g.name, False)
        flat = WeightedDualGraph([V(v.id, v.multiplicity, 0) for v in g.vertices], g.edges,
                                 g.rays, g.metric, g.name, g.pair_model)
        return (g.without_rays(), compact), (sk.strip_genus(g), flat)

    def test_views_answer_as_cold_graphs(self):
        rng, graphs = self.graphs()
        for g in graphs:
            f = random_plfunction(rng, g)
            points = [*map(P.at_vertex, g.vertex_ids), g.midpoint(g.edges[0].id),
                      P.on_edge(g.edges[-1].id, g.edge_length(g.edges[-1].id) / 3)]
            before = _view_answers(pickle.loads(pickle.dumps(g)), f, points)
            f.validate_on(g)  # the views read the parent's walk
            for view, cold in self.views(g):
                assert view == cold and (view.name, view.pair_model) == (cold.name, cold.pair_model)
                want = _view_answers(cold, f, points)
                assert _view_answers(view, f, points) == want
                assert _view_answers(view, f, points) == want  # warm
            assert _view_answers(g, f, points) == before

    def test_views_answer_the_memo_readers_as_cold_graphs(self):
        rng, graphs = self.graphs()
        for g in graphs:
            f = random_plfunction(rng, g)
            for view, cold in self.views(g):
                Din = random_degree_zero_divisor(rng, cold)
                for m, q in ((1, g.vertex_ids[-1]), (2, g.midpoint(g.edges[0].id))):
                    want = _memo_answers(cold, m, f, Din, q)
                    assert _memo_answers(view, m, f, Din, q) == want

    def test_views_share_the_parent_points(self):
        _, graphs = self.graphs()
        for g in graphs:
            sk.canonical_divisor(g, 1)
            compact, flat = g.without_rays(), sk.strip_genus(g)
            for view in (compact, flat):
                assert view is g or view._canonical == {}
                assert all(view._vertex_points()[v] is p for v, p in g._vertex_points().items())
                assert all(view.midpoint(e.id) is g.midpoint(e.id) for e in g.edges)
            assert compact.without_rays() is compact
            assert sk.strip_genus(g) is not flat
            if g.rays or g.pair_model:
                assert g.without_rays() is not compact

    def test_views_have_their_own_canonical_divisor(self):
        _, graphs = self.graphs()
        for g in graphs:
            compact, flat = g.without_rays(), sk.strip_genus(g)
            for m in (1, 2, 3):
                K = sk.canonical_divisor(g, m)
                Kc, Kf = sk.canonical_divisor(compact, m), sk.canonical_divisor(flat, m)
                for v in g.vertices:
                    rays = len(g.rays_at(v.id))
                    assert Kc.coeff(v.id) == K.coeff(v.id) - m * v.multiplicity * rays
                    assert (Kc.coeff(v.id) != K.coeff(v.id)) == (rays > 0)
                    assert Kf.coeff(v.id) == K.coeff(v.id) - 2 * m * v.multiplicity * v.genus


def _key_of(keys, p):
    """The key object among ``keys`` that is == p."""
    return next(k for k in keys if k == p)


def _reduced(g):
    """g without its rays and with every vertex made multiplicity 1 and
    genus 0."""
    return g.replace(vertices=[V(v.id) for v in g.vertices], rays=(), pair_model=False)


class TestKeptEdgePoints:
    """A graph keeps one midpoint per edge, as it keeps one point per
    vertex, and the readers on the witness path pass each other their
    own key objects: witness divisors and functions key the non-tree
    midpoints with the graph's midpoints, laplacian keys a kink with f's
    breakpoint, reduce_divisor keys its output at an input point with
    that point, and min_locus and fundamental_cycle read the same loci
    as their Fraction-comparing and public-constructor references."""

    @staticmethod
    def graphs():
        return TestGraphMemos.graphs()[1]

    def test_midpoint_is_kept_and_copies_start_without(self):
        for g in self.graphs():
            mids = [g.midpoint(e.id) for e in g.edges]
            assert all(g.midpoint(e.id) is p for e, p in zip(g.edges, mids))
            for e, p in zip(g.edges, mids):
                assert p == P.on_edge(e.id, g.edge_length(e.id) / 2) and type(p.offset) is F
            for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), g.replace()):
                assert copied._midpoints == {}
                assert [copied.midpoint(e.id) for e in g.edges] == mids
                assert all(copied.midpoint(e.id) is not p for e, p in zip(g.edges, mids))
            with pytest.raises(sk.UnknownElementError):
                g.midpoint("e999")

    def test_edge_ends_check_to_the_graph_vertex_points(self):
        for g in self.graphs():
            points = g._vertex_points()
            for e in g.edges:
                assert g.check_point(P.on_edge(e.id, 0)) is points[e.a]
                assert g.check_point(P.on_edge(e.id, g.edge_length(e.id))) is points[e.b]
                mid = g.midpoint(e.id)
                assert g.check_point(mid) is mid

    def test_witness_keys_are_the_graph_midpoints(self):
        checked = 0
        for g in map(_reduced, self.graphs()):
            if not g.is_maximally_degenerate():
                continue
            cut = sk.bridges(g)
            for eid in [e.id for e in g.edges if e.id not in cut][:3]:
                bundle = sk.witness_cycle(g, eid)
                D, f = bundle.divisor, bundle.function
                for e in g.edges:
                    if e.id in bundle.tree or e.id == eid:
                        continue
                    mid = g.midpoint(e.id)
                    assert _key_of(D._support, mid) is mid
                    assert _key_of(f._values, mid) is mid
                    checked += 1
        assert checked > 40

    def test_laplacian_keys_kinks_with_the_function_breakpoints(self):
        rng = random.Random(2411)
        kinks = 0
        for g in self.graphs():
            f = random_plfunction(rng, g)
            for p in sk.laplacian(g, f).support:
                if p.kind == "edge":
                    assert _key_of(f._values, p) is p
                    kinks += 1
        assert kinks > 40

    def test_reduce_divisor_keys_input_points_with_themselves(self):
        rng = random.Random(2412)
        reused = 0
        for g in self.graphs():
            if g.rays:
                continue
            Din = sk.canonical_divisor(g, 2) + random_degree_zero_divisor(rng, g)
            for q in (g.vertex_ids[0], g.midpoint(g.edges[-1].id)):
                before = Din.items()
                reduced, h = sk.reduce_divisor(g, Din, q)
                assert Din.items() == before
                inputs = [p for p in Din._support if p.kind == "edge"]
                for keys in (reduced._support, h._values):
                    for p in keys:
                        if p in inputs:
                            assert _key_of(inputs, p) is p
                            reused += 1
        assert reused > 10

    @staticmethod
    def min_locus_cases():
        """Hand-made shapes: a plateau at the minimum over a whole edge
        with interior breakpoints, touching both of its ends; a plateau
        from one end; a one-vertex graph with and without a loop; and a
        minimum tied between a vertex and an interior point."""
        loop = WeightedDualGraph(vertices=[V("a")], edges=[("a", "a", 2)])
        bare = WeightedDualGraph(vertices=[V("a")])
        path = WeightedDualGraph(vertices=[V("a"), V("b"), V("c")],
                                 edges=[("a", "b", 3), ("b", "c", 3)])
        E = P.on_edge
        return [
            (path, {"a": 0, "b": 0, "c": 1, E("e0", 1): 0, E("e0", 2): 0}),
            (path, {"a": 0, "b": 1, "c": 1, E("e0", 1): 0, E("e0", 2): F(1, 2)}),
            (path, {"a": 1, "b": 0, "c": 1, E("e0", 1): 0, E("e1", 2): 0}),
            (loop, {"a": 0, E("e0", 1): 0}),
            (loop, {"a": 1, E("e0", F(1, 2)): F(1, 3), E("e0", F(3, 2)): F(1, 3)}),
            (bare, {"a": F(-7, 3)}),
        ]

    def test_min_locus_matches_the_reference_on_hand_made_shapes(self):
        for g, values in self.min_locus_cases():
            f = PLFunction(values)
            got, want = sk.min_locus(g, f), min_locus_by_segments(g, f)
            assert got == want and repr(got) == repr(want)
            assert list(got.segments.items()) == list(want.segments.items())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9), shape=st.sampled_from(["bare", "loop", "multigraph"]),
           levels=st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=3))
    def test_min_locus_matches_the_reference(self, seed, shape, levels):
        rng = random.Random(seed)
        if shape == "multigraph":
            g = random_multigraph(rng, max_vertices=4, extra=3, loops=2)
        else:
            g = WeightedDualGraph(vertices=[V("a")],
                                  edges=[("a", "a", F(rng.randint(1, 5), rng.randint(1, 3)))]
                                  if shape == "loop" else [])
        values = {P.at_vertex(v): rng.choice(levels) for v in g.vertex_ids}
        for e in g.edges:
            ell = g.edge_length(e.id)
            for k in rng.sample(range(1, 6), rng.randint(0, 5)):
                values[P.on_edge(e.id, ell * k / 6)] = rng.choice(levels)
        f = PLFunction(values)
        got, want = sk.min_locus(g, f), min_locus_by_segments(g, f)
        assert got == want and repr(got) == repr(want)
        assert list(got.segments.items()) == list(want.segments.items())

    @staticmethod
    def tree_path(g, tree, e):
        """Z(tree, e) from the public constructor: the tree path from e.b
        to e.a, by networkx, its edges in that order and then e."""
        import networkx as nx
        T = nx.Graph()
        T.add_nodes_from(g.vertex_ids)
        T.add_edges_from((g.edge(t).a, g.edge(t).b, {"id": t}) for t in tree)
        nodes = nx.shortest_path(T, e.b, e.a)
        edges = [T.edges[u, w]["id"] for u, w in zip(nodes, nodes[1:])]
        return sk.SubgraphLocus(g, vertices=nodes, whole_edges=edges + [e.id])

    def test_fundamental_cycle_is_the_public_constructor_locus(self):
        rng = random.Random(2413)
        graphs = [sk.resolve_loops(g) for g in self.graphs()]
        compared = 0
        for g in graphs:
            trees = [sk.spanning_tree(g)] + [sk.spanning_tree(g, avoid=[rng.choice(g.edges).id])
                                             for _ in range(2) if len(sk.bridges(g)) == 0]
            for T in trees:
                for e in g.edges:
                    if e.id in T:
                        continue
                    got, want = sk.fundamental_cycle(g, T, e.id), self.tree_path(g, T, e)
                    assert got == want and repr(got) == repr(want)
                    assert list(got.segments.items()) == list(want.segments.items())
                    assert list(got.vertices) == list(want.vertices)
                    compared += 1
        loop = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b"), ("b", "b", 3)])
        got = sk.fundamental_cycle(loop, ["e0"], "e1")
        want = sk.SubgraphLocus(loop, vertices=["b"], whole_edges=["e1"])
        assert got == want and list(got.segments.items()) == list(want.segments.items())
        assert compared > 60


class TestSpanningTrees:
    def test_triangle_cycle_is_whole(self):
        g = sk.fixtures.cycle_graph(3)
        T = sk.spanning_tree(g, avoid=["e2"])
        assert sk.fundamental_cycle(g, T, "e2") == sk.full_locus(g)

    def test_theta_cycle(self):
        g = sk.fixtures.theta_graph()
        locus = sk.fundamental_cycle(g, ["e0"], "e1")
        assert locus == sk.SubgraphLocus(g, vertices=["u", "v"],
                                         whole_edges=["e0", "e1"])

    def test_loop_cycle_is_the_loop(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b"), ("a", "a")])
        locus = sk.fundamental_cycle(g, ["e0"], "e1")
        assert locus == sk.SubgraphLocus(g, vertices=["a"], whole_edges=["e1"])
        assert locus.vertices == {"a"} and locus.whole_edges() == {"e1"}

    def test_tree_graph_has_no_pair(self):
        g = sk.fixtures.path_graph(3)
        T = sk.spanning_tree(g)
        assert T == frozenset(e.id for e in g.edges)
        with pytest.raises(sk.GraphStructureError):
            sk.fundamental_cycle(g, T, "e0")

    def test_bad_tree_rejected(self):
        g = sk.fixtures.theta_graph()
        with pytest.raises(sk.GraphStructureError):
            sk.fundamental_cycle(g, ["e0", "e1"], "e2")

    def test_tree_count_matches_kirchhoff(self):
        import networkx as nx
        rng = random.Random(2013)
        for _ in range(25):
            g = random_multigraph(rng, max_vertices=6, lengths=False)
            # networkx returns a float for multigraphs
            assert len(sk.all_spanning_trees(g)) == \
                round(nx.number_of_spanning_trees(to_networkx(g)))

    def test_loops_never_in_a_tree(self):
        """On loopy multigraphs, against networkx: spanning_tree spans and
        holds no loop, also when it avoids an edge, and is_spanning_tree
        rejects every edge set that holds a loop."""
        import networkx as nx
        rng = random.Random(1263)
        loopy = 0
        for _ in range(30):
            g = random_multigraph(rng, max_vertices=6, loops=3, lengths=False)
            loops = {e.id for e in g.edges if e.a == e.b}
            loopy += bool(loops)
            cut = sk.bridges(g)
            trees = [sk.spanning_tree(g)] + [sk.spanning_tree(g, avoid=[e.id])
                                             for e in g.edges if e.id not in cut]
            for T in trees:
                assert not T & loops
                assert nx.is_tree(to_networkx(g).edge_subgraph(
                    [(g.edge(t).a, g.edge(t).b, t) for t in T]))
            size = len(g.vertex_ids) - 1
            for _ in range(20):
                S = rng.sample([e.id for e in g.edges], size)
                H = nx.MultiGraph()
                H.add_nodes_from(g.vertex_ids)
                H.add_edges_from((g.edge(t).a, g.edge(t).b) for t in S)
                assert sk.is_spanning_tree(g, S) == nx.is_tree(H)
                if set(S) & loops:
                    assert not sk.is_spanning_tree(g, S)
            for loop in loops:
                assert not sk.is_spanning_tree(g, [*sorted(trees[0])[1:], loop])
        assert loopy > 20

    def test_all_spanning_trees_theta(self):
        g = sk.fixtures.theta_graph()
        assert sorted(sk.all_spanning_trees(g)) == \
            [frozenset({"e0"}), frozenset({"e1"}), frozenset({"e2"})]


class TestReduceDivisor:
    def test_already_reduced(self):
        g = unit_edge()
        Din = D.at("a", 2)
        out, f = sk.reduce_divisor(g, Din, "a")
        assert out == Din
        assert len(set(f.values.values())) == 1

    def test_two_chips_across_an_edge(self):
        g = unit_edge()
        out, f = sk.reduce_divisor(g, D.at("b", 2), "a")
        assert out == D.at("a", 2)
        assert out == D.at("b", 2) - sk.laplacian(g, f)

    @staticmethod
    def inputs(rng, count):
        """(graph, divisor, q): random reduced graphs with vertex and
        interior support, reduced at a vertex and inside an edge, then
        debts four or more hops from q on a triangle chain and a ring."""
        from skelgraph.sampling import random_reduced_graph
        for _ in range(count):
            g = random_reduced_graph(rng, max_vertices=5)
            e = rng.choice(g.edges)
            for q in (g.vertex_ids[-1], P.on_edge(e.id, g.edge_length(e.id) / 2)):
                yield g, random_degree_zero_divisor(rng, g) \
                    + D.at(g.vertex_ids[0], rng.randint(0, 4)), q
        chain = sk.fixtures.triangle_chain(3)
        yield chain, D({P.at_vertex("t2v1"): -3, P.at_vertex("t2v2"): -2,
                        P.on_edge("e10", F(1, 2)): -1, P.at_vertex("t0v0"): 8}), "t0v0"
        ring = sk.fixtures.cycle_graph(6)
        yield ring, D({P.at_vertex("v3"): -4, P.on_edge("e2", F(1, 4)): -1,
                       P.at_vertex("v1"): 2}), P.on_edge("e5", F(1, 2))
        # lattice shapes, each reduced at a vertex and inside an edge: odd
        # loops (only the two-segment rule makes L = 2), parallel edges,
        # and K4 with coprime multiplicities (L = 1155)
        loops = WeightedDualGraph(vertices=[V("a"), V("b")],
                                  edges=[("a", "b"), ("a", "a"), ("b", "b", 3)])
        parallel = WeightedDualGraph(vertices=[V("u"), V("v")],
                                     edges=[("u", "v", F(1, 2)), ("u", "v", F(1, 3)),
                                            ("u", "v", 1)])
        yield from [(loops, D({P.at_vertex("a"): 3, P.at_vertex("b"): -2,
                               P.on_edge("e2", 1): -1}), q)
                    for q in ("a", P.on_edge("e2", 2))]
        yield from [(parallel, D({P.at_vertex("u"): -3, P.at_vertex("v"): 2,
                                  P.on_edge("e2", F(1, 2)): 1}), q)
                    for q in ("v", P.on_edge("e1", F(1, 6)))]
        k4 = k4_graph(3, 5, 7, 11)
        yield from [(k4, D({P.at_vertex("v0"): -4, P.at_vertex("v1"): 2,
                            P.on_edge("e0", F(1, 35)): 3, P.at_vertex("v3"): -1}), q)
                    for q in ("v2", P.on_edge("e5", F(1, 231)))]

    def test_equivalence_is_exact(self, rng):
        for g, Din, q in self.inputs(rng, 10):
            out, f = sk.reduce_divisor(g, Din, q)
            assert out == Din - sk.laplacian(g, f)
            assert f.has_integer_slopes(g)
            q_pt = g.check_point(q)
            assert all(out.coeff(p) >= 0 for p in out.support if p != q_pt)

    def test_high_degree_becomes_effective(self, rng):
        from skelgraph.sampling import random_reduced_graph
        for _ in range(15):
            g = random_reduced_graph(rng, max_vertices=4)
            genus = sk.graph_genus(g)
            entries = [(P.at_vertex(v), rng.randint(-1, 2)) for v in g.vertex_ids]
            Din = D(dict(entries))
            if Din.degree < genus:
                Din = Din + D.at(g.vertex_ids[0], genus - Din.degree)
            out, _ = sk.reduce_divisor(g, Din, g.vertex_ids[-1])
            assert out.is_effective()

    def test_class_invariance_oracle(self, rng):
        # the reduced representative only depends on the divisor class:
        # perturbing by div of a random lattice tropical function must
        # not change the output; h lives on the 1/L grid the edge lengths
        # need, refined to halves at least
        for g, Din, q in self.inputs(rng, 8):
            L = lcm(2, *(g.edge_length(e.id).denominator for e in g.edges))
            h = random_lattice_tropical(rng, g, L=L, bound=2)
            Dtwisted = Din - sk.laplacian(g, h)
            assert sk.reduce_divisor(g, Din, q)[0] == \
                sk.reduce_divisor(g, Dtwisted, q)[0]

    def test_interior_base_point(self):
        g = sk.fixtures.cycle_graph(3)
        q = P.on_edge("e0", F(1, 2))
        out, f = sk.reduce_divisor(g, D.at("v2", 3), q)
        assert out.degree == 3
        assert out == D.at("v2", 3) - sk.laplacian(g, f)

    def test_non_integral_rejected(self):
        g = unit_edge()
        with pytest.raises(sk.NonIntegralError):
            sk.reduce_divisor(g, D({P.at_vertex("a"): F(1, 2),
                                    P.at_vertex("b"): F(-1, 2)}), "a")

    def test_lattice_past_the_cap_rejected(self):
        with pytest.raises(sk.PipelineError, match="would need 24916 segments"):
            sk.reduce_divisor(k4_graph(59, 61, 67, 71), D.at("v1", 1) - D.at("v2", 1), "v0")

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(potential, "_MAX_DHAR_ROUNDS", 0)
        with pytest.raises(sk.PipelineError, match="^Dhar reduction did not terminate$"):
            sk.reduce_divisor(sk.fixtures.theta_graph(), D.at("v", 3), "u")

    def test_failed_certificate_raises(self, monkeypatch):
        """The certificate reads div(f) from ``laplacian``; a wrong one
        is caught, since 3(v) is not u-reduced on theta."""
        monkeypatch.setattr(potential, "laplacian", lambda graph, f: D())
        with pytest.raises(sk.PipelineError,
                           match=re.escape("reduction certificate failed: D' != D + div(f)")):
            sk.reduce_divisor(sk.fixtures.theta_graph(), D.at("v", 3), "u")


class TestLatticeOracle:
    """reduce_divisor against the uniform-lattice reducer it replaced:
    == reduced divisors and == f, breakpoints in the same order, on
    inputs where stage 2 fires as well as where it does not."""

    @staticmethod
    def lattice_rounds(g, Din, q):
        """Check one input; return the oracle's stage-2 firing count."""
        reduced, f = sk.reduce_divisor(g, Din, q)
        want, want_f, rounds = reduce_on_lattice(g, Din, q)
        assert reduced == want
        assert list(f.values.items()) == list(want_f.values.items())
        return rounds

    def test_reduce_divisor_inputs(self, rng):
        rounds = [self.lattice_rounds(*case) for case in TestReduceDivisor.inputs(rng, 10)]
        assert sum(r > 0 for r in rounds) >= 10

    @pytest.mark.parametrize("mults", [(3, 5, 7, 11), (5, 7, 11, 13), (7, 11, 13, 17),
                                       (13, 17, 19, 23)])
    def test_k4_ladder(self, mults):
        g = k4_graph(*mults)
        Din = D({P.at_vertex(f"v{i}"): c for i, c in enumerate((2, -1, 1, -2))})
        for q in ("v0", P.on_edge("e5", g.edge_length("e5") / 2)):
            self.lattice_rounds(g, Din, q)

    def test_random_multigraphs(self):
        # loops, parallel edges, lengths with denominators up to 7, and q
        # at a vertex and at an edge midpoint
        rng = random.Random(907)
        rounds = []
        for _ in range(24):
            shape = random_multigraph(rng, max_vertices=4, extra=3, loops=2, lengths=False)
            g = WeightedDualGraph(vertices=shape.vertices, edges=[
                (e.a, e.b, F(rng.randint(1, 2), rng.randint(1, 7))) for e in shape.edges])
            Din = random_degree_zero_divisor(rng, g) + D.at(g.vertex_ids[0], rng.randint(0, 4))
            for q in (g.vertex_ids[-1], g.midpoint(rng.choice(g.edges).id)):
                rounds.append(self.lattice_rounds(g, Din, q))
        assert sum(r > 0 for r in rounds) >= 10


class TestMinLocusLemma:
    def theta_witness(self, eid="e1"):
        g = sk.fixtures.theta_graph()
        return g, sk.witness_cycle(g, eid)

    def test_theta_pipeline(self):
        g, b = self.theta_witness()
        report = sk.check_min_locus_lemma(g, b.tree, "e1", b.divisor, b.function)
        assert report.ok and report.conclusion_holds
        assert b.locus == sk.SubgraphLocus(g, vertices=["u", "v"],
                                           whole_edges=sorted(b.tree) + ["e1"])

    def test_far_edge_of_a_long_chain(self):
        # K - D0 is reduced at an end of e28, ten triangles from most of
        # the debt
        g = sk.fixtures.triangle_chain(10)
        b = sk.witness_cycle(g, "e28")
        assert b.locus == sk.fundamental_cycle(g, b.tree, "e28")

    def test_missing_support_flagged(self):
        g = sk.fixtures.theta_graph()
        K = sk.canonical_divisor(g)
        f = sk.solve_poisson(g, D(), anchor="u")  # div(f) = 0 = K - K
        report = sk.check_min_locus_lemma(g, ["e0"], "e1", K, f)
        assert not report.ok
        assert "support-on-e2" in report.failed_hypotheses
        assert report.conclusion_holds is None

    def test_cycle_graph_vacuous(self):
        g = sk.fixtures.cycle_graph(4)
        K = sk.canonical_divisor(g)
        assert K == D()
        f = PLFunction.constant(g)
        T = sk.spanning_tree(g, avoid=["e3"])
        report = sk.check_min_locus_lemma(g, T, "e3", K, f)
        assert report.ok
        assert report.computed_locus == sk.full_locus(g)

    def test_wrong_function_raises(self):
        g = sk.fixtures.theta_graph()
        K = sk.canonical_divisor(g)
        f = distance_function(g, "u")
        with pytest.raises(sk.DivisorMismatchError):
            sk.check_min_locus_lemma(g, ["e0"], "e1", K, f)


class TestBridgeLemma:
    def test_dumbbell_pipeline(self):
        g = sk.fixtures.dumbbell(1)
        b = sk.witness_bridge_chain(g)
        chain = sk.maximal_bridge_chains(g)[0]
        report = sk.check_bridge_lemma(g, chain, b.tree, b.divisor, b.function)
        assert report.ok
        assert b.locus == chain.as_locus(g)

    def test_no_bridges_fails_precondition(self):
        g = sk.fixtures.theta_graph()
        with pytest.raises(sk.GraphStructureError):
            sk.witness_bridge_chain(g)

    def test_hypothesis_violation_flagged(self):
        g = sk.fixtures.dumbbell(1)
        chain = sk.maximal_bridge_chains(g)[0]
        K = sk.canonical_divisor(g)
        # D = 2K itself: equivalent via the constant function, but has no
        # interior support on the non-tree edges
        f = PLFunction.constant(g)
        T = sk.spanning_tree(g)
        report = sk.check_bridge_lemma(g, chain, T, 2 * K, f)
        assert not report.ok
        assert any(h.startswith("support-on-") for h in report.failed_hypotheses)
        assert report.conclusion_holds is None

    def test_domination_condition_flagged(self):
        # with three triangles in a row, reducing 2K - D0 at a far corner
        # starves the endpoints of the other chain: condition (2) fails
        # while the rest of the hypotheses hold
        g = sk.fixtures.triangle_chain(3, bridge_len=1)
        chain = next(c for c in sk.maximal_bridge_chains(g)
                     if set(c.endpoints) == {"t1v1", "t2v0"})
        K = sk.canonical_divisor(g)
        T = sk.spanning_tree(g)
        D0 = D({g.midpoint(eid): 1
                for eid in (e.id for e in g.edges) if eid not in T})
        E, _ = sk.reduce_divisor(g, 2 * K - D0, "t0v0")
        Dfull = D0 + E
        assert Dfull.is_effective()
        f = sk.solve_poisson(g, 2 * K - Dfull, anchor="t0v0")
        report = sk.check_bridge_lemma(g, chain, T, Dfull, f)
        assert not report.ok
        assert report.failed_hypotheses == ("dominates-K-minus-endpoints",)
        assert report.conclusion_holds is None


class TestMaximalBridgeChains:
    @staticmethod
    def check_partition(g):
        """The chains partition the bridges; each runs from its first
        endpoint to its second through vertices of valency 2 only, and
        no endpoint has valency 2."""
        chains = sk.maximal_bridge_chains(g)
        edges = [eid for c in chains for eid in c.edges]
        assert len(edges) == len(set(edges)) and set(edges) == sk.bridges(g)
        for c in chains:
            walk = [c.endpoints[0]]
            for eid in c.edges:
                e = g.edge(eid)
                assert walk[-1] in (e.a, e.b)
                walk.append(e.b if e.a == walk[-1] else e.a)
            assert walk[-1] == c.endpoints[1]
            assert all(g.valency(v, include_rays=False) == 2 for v in walk[1:-1])
            assert all(g.valency(v, include_rays=False) != 2 for v in c.endpoints)
        return chains

    @staticmethod
    def subdivided(rng, g):
        """g with a third of its edges cut once, so chains grow longer."""
        return refined_graph(g, [g.midpoint(e.id) for e in g.edges
                                 if rng.random() < 1 / 3])[0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_chains_partition_the_bridges(self, seed):
        rng = random.Random(seed)
        g = random_multigraph(rng, max_vertices=7, extra=3, loops=2)
        self.check_partition(self.subdivided(rng, g))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_leaf_free_endpoints_have_valency_three(self, seed):
        from skelgraph.sampling import random_reduced_graph
        rng = random.Random(seed)
        g = random_reduced_graph(rng, max_vertices=7, genus=rng.randint(0, 2))
        leaves = [v for v in g.vertex_ids if g.valency(v, include_rays=False) == 1]
        # hang a digon on every leaf
        g = g.replace(vertices=[*g.vertices, *(V(f"{v}'") for v in leaves)],
                      edges=[*g.edges, *((v, f"{v}'") for v in leaves for _ in range(2))])
        g = self.subdivided(rng, g)
        assert g.is_maximally_degenerate()
        assert all(g.valency(v, include_rays=False) > 1 for v in g.vertex_ids)
        K = sk.canonical_divisor(g, 1)
        for c in self.check_partition(g):
            v1, v2 = c.endpoints
            assert v1 != v2
            assert min(g.valency(v, include_rays=False) for v in c.endpoints) >= 3
            assert (K - D.at(v1) - D.at(v2)).is_effective()

    def test_dumbbell_long_chain(self):
        g = sk.fixtures.dumbbell(3)
        chains = sk.maximal_bridge_chains(g)
        assert len(chains) == 1
        assert len(chains[0].edges) == 3
        assert set(chains[0].endpoints) == {"l0", "r0"}

    def test_triangle_chain_two_chains(self):
        g = sk.fixtures.triangle_chain(3, bridge_len=2)
        chains = sk.maximal_bridge_chains(g)
        assert len(chains) == 2
        assert all(len(c.edges) == 2 for c in chains)
