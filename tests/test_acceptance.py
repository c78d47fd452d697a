"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single pass line with its runtime (visible with
pytest -s); a failed assertion is the fail line.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, lcm

import skelgraph as sk
from skelgraph import (
    BlowUpStep,
    GraphDivisor as D,
    GraphPoint as P,
    VertexLabel as V,
    WeightedDualGraph,
)
from skelgraph.sampling import (
    random_graph,
    random_pair_fixture,
    random_reduced_graph,
)
from conftest import brute_min_points, random_degree_zero_divisor


def report(num, label, t0, budget=None):
    dt = time.perf_counter() - t0
    line = f"[acceptance] criterion {num} ({label}): PASS in {dt:.2f}s"
    if budget is not None:
        assert dt < budget, f"criterion {num} exceeded its {budget}s budget: {dt:.2f}s"
        line += f" (budget {budget:.0f}s)"
    print(line)


def test_criterion_1_kodaira_type_ii_reproduction():
    t0 = time.perf_counter()
    g = sk.fixtures.kodaira_type_ii()
    data = sk.fixtures.kodaira_type_ii_data()

    by_pair = {frozenset((e.a, e.b)): g.edge_length(e.id) for e in g.edges}
    assert by_pair == {
        frozenset(("v1", "v4")): F(1, 6),
        frozenset(("v2", "v4")): F(1, 12),
        frozenset(("v3", "v4")): F(1, 18),
    }

    wt = sk.weight_function(g, data)
    assert {p.where: x for p, x in wt.values.items()} == {
        "v1": F(1), "v2": F(1), "v3": F(1), "v4": F(5, 6)}

    expected = D({P.at_vertex("v1"): -1, P.at_vertex("v2"): -2,
                  P.at_vertex("v3"): -3, P.at_vertex("v4"): 6})
    assert sk.laplacian(g, wt) == expected
    assert sk.canonical_divisor(g, 1) == expected

    assert sk.ks_skeleton(g, data) == sk.vertex_locus(g, "v4")
    essential = sk.essential_skeleton(g)
    assert essential.vertex_ids == ("v4",) and essential.edges == ()

    report(1, "Kodaira type-II reproduction", t0, budget=1.0)


def test_criterion_2_metric_invariance_under_blowups():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for trial in range(200):
        g = random_graph(rng, max_vertices=10, max_multiplicity=8)
        cur = g
        seq = []
        for _ in range(50):
            if rng.random() < 0.5 and cur.edges:
                step = BlowUpStep("node", rng.choice(cur.edges).id)
            else:
                step = BlowUpStep("interior", rng.choice(cur.vertex_ids))
            seq.append(step)
            cur = sk.apply_blowups(cur, [step])
        result = sk.verify_metric_invariance(g, seq)
        assert result.ok, f"trial {trial}: {result.discrepancies}"
    report(2, "200 graphs x 50 random blow-ups preserve distances", t0, budget=30.0)


def test_criterion_3_laplacian_identity_random_fixtures():
    t0 = time.perf_counter()
    count = 0
    for seed in range(100):
        for m in (1, 2, 3):
            rng = random.Random(31_000 + 3 * seed + m)
            g, data = random_pair_fixture(rng, m, moves=7)
            wt = sk.weight_function(g, data)
            stripped = g.without_rays()
            lhs = sk.laplacian(stripped, wt.without_rays())
            rhs = sk.canonical_divisor(stripped, m) - sk.pushforward_divisor(g, data)
            assert lhs == rhs, f"seed {seed} m {m}"
            # the pair-skeleton identity holds as well
            assert sk.laplacian(g, wt) == sk.canonical_divisor(g, m)
            count += 1
    assert count == 300
    report(3, "Delta(wt) = mK - pushforward on 100 fixtures, m in {1,2,3}",
           t0, budget=30.0)


def test_criterion_4_poisson_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(44)
    for trial in range(100):
        g = random_graph(rng, max_vertices=8, max_multiplicity=5)
        target = random_degree_zero_divisor(rng, g, interior=(trial % 3 == 0))
        f1 = sk.solve_poisson(g, target, anchor=g.vertex_ids[0])
        assert sk.laplacian(g, f1) == target, f"trial {trial}"
        f2 = sk.solve_poisson(g, target, anchor=g.vertex_ids[-1])
        assert sk.differ_by_constant(g, f1, f2), f"trial {trial}"
    report(4, "Delta(solve(D)) = D exactly, solutions differ by a constant",
           t0, budget=30.0)


def test_criterion_5_canonical_degree_identity():
    t0 = time.perf_counter()
    fixtures = [sk.fixtures.cycle_graph(n) for n in (2, 3, 5)]
    fixtures += [sk.fixtures.theta_graph(), sk.fixtures.dumbbell(1),
                 sk.fixtures.dumbbell(3), sk.fixtures.path_graph(4),
                 sk.fixtures.triangle_chain(3, 2)]
    rng = random.Random(55)
    fixtures += [random_reduced_graph(rng, max_genus_label=2) for _ in range(100)]
    for g in fixtures:
        assert g.is_reduced() and g.is_loop_free()
        assert sk.canonical_divisor(g).degree == 2 * (sk.graph_genus(g) - 1)
    report(5, "deg K = 2(genus - 1) on fixtures and 100 random reduced graphs", t0)


def test_criterion_6_min_locus_lemma_over_all_tree_edge_pairs():
    t0 = time.perf_counter()
    rng = random.Random(66)
    graphs = 0
    pairs = 0
    while graphs < 50:
        g = random_reduced_graph(rng, max_vertices=5, genus=rng.randint(1, 4))
        genus = sk.graph_genus(g)
        trees = sk.all_spanning_trees(g)
        if genus < 1 or genus > 4 or len(trees) * genus > 120:
            continue
        graphs += 1
        for T in trees:
            for e in g.edges:
                if e.id in T:
                    continue
                bundle = sk.witness_cycle(g, e.id, tree=T)
                expected = sk.fundamental_cycle(g, T, e.id)
                assert bundle.locus == expected, (g, sorted(T), e.id)
                argmin, m = brute_min_points(g, bundle.function,
                                             samples_per_edge=8)
                assert m >= bundle.function.min_over_compact()
                for p in argmin:
                    assert bundle.locus.contains(p) == \
                        (bundle.function.evaluate(g, p)
                         == bundle.function.min_over_compact())
                pairs += 1
    assert pairs >= 50
    report(6, f"min-locus lemma on {pairs} (tree, edge) pairs over 50 graphs",
           t0, budget=120.0)


def test_criterion_7_bridge_chain_witnesses_on_dumbbell_family():
    t0 = time.perf_counter()
    family = []
    for g_count in (2, 3, 4):
        for bridge_len in (1, 2):
            family.append(sk.fixtures.triangle_chain(g_count, bridge_len))
    family += [sk.fixtures.dumbbell(k) for k in (1, 2, 3)]
    total = 0
    for g in family:
        assert 2 <= sk.graph_genus(g) <= 4
        for chain in sk.maximal_bridge_chains(g):
            bundle = sk.witness_bridge_chain(g, chain)
            assert bundle.locus == chain.as_locus(g)
            total += 1
    assert total >= 9
    report(7, f"bridge-chain witnesses exact on {total} chains (g = 2..4)",
           t0, budget=60.0)


def test_criterion_8_nonbridge_locus_cross_validation():
    t0 = time.perf_counter()
    rng = random.Random(88)
    checked = 0
    while checked < 50:
        g = random_reduced_graph(rng, max_vertices=5, genus=rng.randint(0, 3),
                                 max_genus_label=1)
        # leaves only with positive genus: the shape of a reduced
        # minimal semistable model
        relabeled = []
        for v in g.vertices:
            if g.valency(v.id, include_rays=False) == 1 and v.genus == 0:
                relabeled.append(V(v.id, 1, rng.randint(1, 2)))
            else:
                relabeled.append(v)
        g = g.replace(vertices=relabeled)
        if sk.graph_genus(g) < 1:
            continue
        checked += 1
        result = sk.verify_canonical_locus(g)
        assert result.ok, (g, result.failed_edge, result.error)
    report(8, "witness-cycle union + genus vertices = canonical-form locus "
              "on 50 graphs", t0)


def test_criterion_9_in_star_contraction():
    t0 = time.perf_counter()
    for n in range(1, 6):
        got = sk.combinatorial_skeleton(sk.fixtures.kodaira_in_star(n))
        expected = WeightedDualGraph(
            vertices=[V(f"c{i}", 2) for i in range(n + 1)],
            edges=[(f"c{i}", f"c{i+1}") for i in range(n)],
            name=f"kodaira-I{n}*")
        assert got == expected, n
        assert sk.essential_skeleton(sk.fixtures.kodaira_in_star(n)) == expected
    report(9, "I_n* contracts to the (n+1)-vertex multiplicity-2 chain, n = 1..5", t0)


def test_criterion_10_stable_metric_gap():
    t0 = time.perf_counter()
    for n1 in range(1, 13):
        for n2 in range(1, 13):
            bound = n1 * n2
            best = None
            # |a/n1 - b/n2| = |a n2 - b n1| / (n1 n2); for each a the
            # minimum over b is at the two integers nearest a n2 / n1,
            # so scanning those is the full minimization over the box
            for a in range(-bound, bound + 1):
                near = (a * n2) // n1
                for b in (near - 1, near, near + 1):
                    if abs(b) > bound:
                        continue
                    val = abs(a * n2 - b * n1)
                    if val and (best is None or val < best):
                        best = val
            gap = F(best, n1 * n2)
            assert gap == F(gcd(n1, n2), n1 * n2) == F(1, lcm(n1, n2)), (n1, n2)
            g = WeightedDualGraph(vertices=[V("a", n1), V("b", n2)],
                                  edges=[("a", "b")])
            assert g.replace(metric="stable").edge_length("e0") == gap
    # the pruning is exact: cross-check against the full double loop
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            bound = n1 * n2
            full = min(abs(a * n2 - b * n1)
                       for a in range(-bound, bound + 1)
                       for b in range(-bound, bound + 1)
                       if a * n2 != b * n1)
            assert F(full, n1 * n2) == F(1, lcm(n1, n2))
    report(10, "stable-metric gap equals 1/lcm for all N1, N2 <= 12", t0)
