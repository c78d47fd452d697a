"""Weight functions, the Laplacian identities, pushforwards, KS skeleta."""

import copy
import dataclasses
import operator
import pickle
import random
from fractions import Fraction as F

import pytest

import skelgraph as sk
from skelgraph import (
    GraphDivisor as D,
    GraphPoint as P,
    PluricanonicalModelData,
    Ray,
    VertexLabel as V,
    WeightedDualGraph,
)


def kodaira():
    return sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data()


class TestWeightFunction:
    def test_kodaira_values(self):
        g, data = kodaira()
        wt = sk.weight_function(g, data)
        assert {p.where: x for p, x in wt.values.items()} == {
            "v1": 1, "v2": 1, "v3": 1, "v4": F(5, 6)}

    def test_proportional_nu_is_constant(self, rng):
        from skelgraph.sampling import random_graph
        g = random_graph(rng, max_vertices=6, max_multiplicity=5)
        c = 3
        data = PluricanonicalModelData(
            m=2, nu={v.id: c * v.multiplicity for v in g.vertices})
        wt = sk.weight_function(g, data)
        assert set(wt.values.values()) == {F(c)}

    def test_ray_slope(self):
        g = WeightedDualGraph(vertices=[V("a", 2)],
                              rays=[Ray("a", "x", 2)], pair_model=True)
        data = PluricanonicalModelData(m=1, nu={"a": 0}, ray_degrees={"x": 0})
        wt = sk.weight_function(g, data)
        assert wt.ray_slopes == {"x": 2}

    def test_horizontal_edge_rejected(self):
        g, _ = kodaira()
        data = PluricanonicalModelData(m=1, nu={"v1": 1, "v2": 2, "v3": 3, "v4": 5},
                                       horizontal_edges={"e0"})
        with pytest.raises(sk.HorizontalEdgeError):
            sk.weight_function(g, data)

    def test_missing_nu_rejected(self):
        g, _ = kodaira()
        with pytest.raises(sk.MissingDataError):
            sk.weight_function(g, PluricanonicalModelData(m=1, nu={"v1": 1}))

    def test_integer_slopes_in_model_metric(self):
        g, data = kodaira()
        wt = sk.weight_function(g, data)
        assert wt.has_integer_slopes(g)

    def test_integrality_flags_per_metric(self):
        g, data = kodaira()
        wt = sk.weight_function(g, data)
        # the type-II weight function is integral in both structures
        assert wt.has_integer_slopes(g)
        assert wt.has_integer_slopes(g.replace(metric="stable"))
        # unit slope in the model metric on a gcd-2 edge halves in the
        # stable metric
        h = WeightedDualGraph(vertices=[V("a", 2), V("b", 6)], edges=[("a", "b")])
        f = sk.PLFunction({"a": 0, "b": F(1, 12)})
        assert f.has_integer_slopes(h)
        assert not f.has_integer_slopes(h.replace(metric="stable"))

    def test_denominators_divide_multiplicity(self, rng):
        from skelgraph.sampling import random_pair_fixture
        for seed in range(5):
            g, data = random_pair_fixture(random.Random(seed), m=2, moves=5)
            wt = sk.weight_function(g, data)
            for v in g.vertices:
                x = wt.values[P.at_vertex(v.id)]
                assert v.multiplicity % x.denominator == 0

    def test_min_zero_normalization(self):
        g, data = kodaira()
        wt = sk.weight_function(g, data)
        wt = wt.shift(-wt.min_over_compact())
        assert wt.min_over_compact() == 0
        assert wt.values[P.at_vertex("v1")] == F(1, 6)


class TestVerifyLaplacianTheorem:
    def test_kodaira(self):
        g, data = kodaira()
        report = sk.verify_laplacian_theorem(g, data)
        assert report.ok and report.pair_identity_holds and report.compact_identity_holds

    def test_kodaira_scaled_m(self):
        g = sk.fixtures.kodaira_type_ii()
        for m in (1, 2, 3):
            assert sk.verify_laplacian_theorem(
                g, sk.fixtures.kodaira_type_ii_data(m)).ok

    def test_cycle_constant_weight(self):
        g = sk.fixtures.cycle_graph(4)
        data = PluricanonicalModelData(m=1, nu={v: 0 for v in g.vertex_ids})
        report = sk.verify_laplacian_theorem(g, data)
        assert report.ok
        wt = sk.weight_function(g, data)
        assert sk.laplacian(g, wt) == D()
        assert sk.canonical_divisor(g) == D()

    def test_inconsistent_nu_fails_with_per_vertex_report(self):
        g = sk.fixtures.kodaira_type_ii()
        bad = PluricanonicalModelData(m=1, nu={"v1": 2, "v2": 2, "v3": 3, "v4": 5})
        report = sk.verify_laplacian_theorem(g, bad)
        assert not report.ok
        assert report.pair_discrepancy  # nonzero divisor names the vertices
        assert "v1" in repr(report.pair_discrepancy) or "v4" in repr(report.pair_discrepancy)

    def test_random_fixtures_all_m(self):
        from skelgraph.sampling import random_pair_fixture
        for m in (1, 2, 3):
            for seed in range(12):
                rng = random.Random(100 * m + seed)
                g, data = random_pair_fixture(rng, m, moves=6)
                report = sk.verify_laplacian_theorem(g, data)
                assert report.ok, report.describe()

    def test_regular_form_bound(self):
        # nonnegative nu and ray coefficients: Delta(wt restricted) <= m K
        from skelgraph.sampling import random_pair_fixture
        count = 0
        for seed in range(60):
            rng = random.Random(seed)
            g, data = random_pair_fixture(rng, m=1, moves=5)
            if any(x < 0 for x in data.nu.values()) or \
               any(d < 0 for d in data.ray_degrees.values()):
                continue
            count += 1
            wt = sk.weight_function(g, data)
            stripped = g.without_rays()
            lap = sk.laplacian(stripped, wt.without_rays())
            mK = sk.canonical_divisor(stripped, data.m)
            assert mK >= lap
        assert count > 5


class TestPushforward:
    def test_no_rays_zero(self):
        g, data = kodaira()
        assert sk.pushforward_divisor(g, data) == D()

    def test_single_ray(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[Ray("a", "x", 1)],
                              pair_model=True)
        data = PluricanonicalModelData(m=1, nu={"a": 0}, ray_degrees={"x": 2})
        assert sk.pushforward_divisor(g, data) == D.at("a", 2)

    def test_degree_scales(self):
        g = WeightedDualGraph(vertices=[V("a", 3)], rays=[Ray("a", "x", 3)],
                              pair_model=True)
        data = PluricanonicalModelData(m=1, nu={"a": 0}, ray_degrees={"x": -2})
        assert sk.pushforward_divisor(g, data) == D.at("a", -6)

    def test_missing_ray_data(self):
        g = WeightedDualGraph(vertices=[V("a")], rays=[Ray("a", "x", 1)])
        data = PluricanonicalModelData(m=1, nu={"a": 0})
        with pytest.raises(sk.MissingDataError):
            sk.pushforward_divisor(g, data)


class TestKSSkeleton:
    def test_kodaira(self):
        g, data = kodaira()
        assert sk.ks_skeleton(g, data) == sk.vertex_locus(g, "v4")

    def test_constant_weight_whole_graph(self):
        g = sk.fixtures.cycle_graph(5)
        data = PluricanonicalModelData(m=1, nu={v: 0 for v in g.vertex_ids})
        assert sk.ks_skeleton(g, data) == sk.full_locus(g)

    def test_horizontal_edge_excluded(self):
        g = WeightedDualGraph(vertices=[V("a"), V("b")], edges=[("a", "b")])
        data = PluricanonicalModelData(m=1, nu={"a": 0, "b": 0},
                                       horizontal_edges={"e0"})
        locus = sk.ks_skeleton(g, data)
        assert locus.vertices == frozenset({"a", "b"})
        assert locus.segments == {}

    def test_matches_min_locus_on_pair_models(self):
        from skelgraph.sampling import random_pair_fixture
        for seed in range(15):
            rng = random.Random(seed)
            g, data = random_pair_fixture(rng, m=2, moves=5)
            wt = sk.weight_function(g, data)
            if any(s < 0 for s in wt.ray_slopes.values()):
                continue
            assert sk.ks_skeleton(g, data) == sk.min_locus(g, wt)

    def test_min_locus_is_union_of_whole_faces(self):
        # weight functions are affine on edges, so their Laplacians are
        # vertex-supported and in particular nonpositive at interior
        # points: the minimum locus never cuts an edge
        from skelgraph.sampling import random_pair_fixture
        for seed in range(20):
            rng = random.Random(1000 + seed)
            g, data = random_pair_fixture(rng, m=1, moves=6)
            wt = sk.weight_function(g, data)
            if any(s < 0 for s in wt.ray_slopes.values()):
                continue
            locus = sk.min_locus(g, wt)
            assert not locus.partial_segments()

    def test_disagreeing_min_locus_raises(self, monkeypatch):
        """The KS skeleton is checked against the weight function's
        minimum locus, here replaced by an empty one."""
        monkeypatch.setattr(sk.weight, "min_locus", lambda graph, f: sk.SubgraphLocus(graph))
        with pytest.raises(sk.PipelineError,
                           match="^KS skeleton disagrees with the weight function's "
                                 "minimum locus$"):
            sk.ks_skeleton(*kodaira())


class TestBlowUpDataTransport:
    def test_node_blowup_restricts(self):
        g, data = kodaira()
        wt = sk.weight_function(g, data)
        e34 = next(e for e in g.edges if {e.a, e.b} == {"v3", "v4"})
        g2, data2 = sk.blow_up_node_with_data(g, data, e34.id)
        wt2 = sk.weight_function(g2, data2)
        for v in g.vertex_ids:
            assert wt2.values[P.at_vertex(v)] == wt.values[P.at_vertex(v)]
        new = next(v for v in g2.vertex_ids if not g.has_vertex(v))
        # the new value is the affine interpolation along the old edge
        assert wt2.values[P.at_vertex(new)] == \
            wt.evaluate(g, P.on_edge(e34.id, g2.edge_length(
                next(e.id for e in g2.edges if {e.a, e.b} == {"v3", new}))))
        assert sk.verify_laplacian_theorem(g2, data2).ok

    def test_interior_blowup_nu_rules(self):
        g = WeightedDualGraph(vertices=[V("a", 2)], rays=[Ray("a", "x", 2)],
                              pair_model=True)
        data = PluricanonicalModelData(m=3, nu={"a": 4}, ray_degrees={"x": 5})
        g2, data2 = sk.blow_up_interior_with_data(g, data, "a")
        new = next(v for v in g2.vertex_ids if v != "a")
        assert data2.nu[new] == 4 + 3

        g3, data3 = sk.blow_up_interior_with_data(g, data, "a", toward_ray="x")
        new3 = next(v for v in g3.vertex_ids if v != "a")
        assert data3.nu[new3] == 4 + 3 + 5
        assert g3.ray("x").attach == new3

    def test_blowups_preserve_identity_residual(self):
        # even on inconsistent data, both blow-ups change the two sides
        # of each identity equally: the discrepancy divisor is unchanged
        # on the old vertices and vanishes at the new one
        g = WeightedDualGraph(vertices=[V("a", 2)], rays=[Ray("a", "x", 2)],
                              pair_model=True)
        data = PluricanonicalModelData(m=3, nu={"a": 4}, ray_degrees={"x": 5})
        before = sk.verify_laplacian_theorem(g, data).pair_discrepancy
        for toward in (None, "x"):
            g2, data2 = sk.blow_up_interior_with_data(g, data, "a",
                                                      toward_ray=toward)
            after = sk.verify_laplacian_theorem(g2, data2).pair_discrepancy
            assert after == before

    def test_interior_blowup_keeps_valid_seed_valid(self):
        # a genus-1 component of multiplicity 2 carrying one marked point
        # outside the form's divisor satisfies both identities
        g = WeightedDualGraph(vertices=[V("a", 2, 1)], rays=[Ray("a", "x", 2)],
                              pair_model=True)
        data = PluricanonicalModelData(m=3, nu={"a": 4}, ray_degrees={"x": 0})
        assert sk.verify_laplacian_theorem(g, data).ok
        g2, data2 = sk.blow_up_interior_with_data(g, data, "a")
        assert sk.verify_laplacian_theorem(g2, data2).ok
        g3, data3 = sk.blow_up_interior_with_data(g, data, "a", toward_ray="x")
        assert sk.verify_laplacian_theorem(g3, data3).ok

    def test_exceptional_slope_matches_ray_slope(self):
        # pulling the marked point onto the exceptional component turns
        # the declared ray slope into the slope of the new compact edge;
        # this is a local property of the transport rule
        g = WeightedDualGraph(vertices=[V("a", 2)], rays=[Ray("a", "x", 2)],
                              pair_model=True)
        data = PluricanonicalModelData(m=1, nu={"a": 0}, ray_degrees={"x": 3})
        wt = sk.weight_function(g, data)
        g2, data2 = sk.blow_up_interior_with_data(g, data, "a", toward_ray="x")
        wt2 = sk.weight_function(g2, data2)
        new = next(v for v in g2.vertex_ids if v != "a")
        eid = g2.edges[0].id
        slope = (wt2.values[P.at_vertex(new)] - wt2.values[P.at_vertex("a")]) \
            / g2.edge_length(eid)
        assert slope == wt.ray_slopes["x"] == 2 * (1 + 3)


def test_sprouted_rays_get_fresh_labels():
    """Sprouting onto rays that already use the ``x{n}_{i}`` labels primes
    the new ones until they are fresh, and keeps both identities."""
    from skelgraph.sampling import _sprout_ray_pack
    g = WeightedDualGraph(vertices=[V("a", 2, 1)],
                          rays=[Ray("a", "x2_0", 2), Ray("a", "x2_1", 2)], pair_model=True)
    data = PluricanonicalModelData(m=2, nu={"a": 4}, ray_degrees={"x2_0": 1, "x2_1": -1})
    assert sk.verify_laplacian_theorem(g, data).ok
    primed = 0
    for seed in range(8):
        g2, data2 = _sprout_ray_pack(random.Random(seed), g, data)
        old, new = g.rays, g2.rays[len(g.rays):]
        assert g2.rays[:len(old)] == old and new
        labels = [r.label for r in g2.rays]
        assert len(set(labels)) == len(labels)
        assert set(data2.ray_degrees) == set(labels)
        primed += sum(r.label.endswith("'") for r in new)
        report = sk.verify_laplacian_theorem(g2, data2)
        assert report.pair_identity_holds and report.compact_identity_holds
    assert primed >= 8


class TestRayDerivations:
    """A ray pack and a toward-ray blow-up move only rays, so each result
    is a derived view: the graph ``replace`` builds with those rays, with
    no canonical divisor kept yet (``TestDerivedViews`` in
    test_potential.py checks which kept values it shares)."""

    @staticmethod
    def fixtures_with_rays():
        from skelgraph.sampling import random_pair_fixture
        rng = random.Random(4242)
        out = []
        while len(out) < 24:
            g, data = random_pair_fixture(rng, rng.randint(1, 3), moves=rng.randint(0, 8))
            if g.rays:
                out.append((g, data))
        return out

    @staticmethod
    def warm(g):
        for v in g.vertex_ids:
            sk.vertex_distances(g, v)
        for e in g.edges:
            g.midpoint(e.id)
        sk.canonical_divisor(g, 1)

    @staticmethod
    def assert_view(out, expected, data):
        assert out == expected
        assert (out.pair_model, out.name) == (expected.pair_model, expected.name)
        assert list(out._ray_index.items()) == list(expected._ray_index.items())
        assert out._canonical == {}
        report = sk.verify_laplacian_theorem(out, data)
        assert report.pair_identity_holds and report.compact_identity_holds

    def test_sprouted_ray_pack(self):
        from skelgraph.sampling import _sprout_ray_pack
        for seed, (g, data) in enumerate(self.fixtures_with_rays()):
            self.warm(g)
            out, data2 = _sprout_ray_pack(random.Random(seed), g, data)
            self.assert_view(out, g.replace(rays=out.rays, pair_model=True), data2)

    def toward_ray(self, monkeypatch, g, data, ray):
        """The toward-ray blow-up of ``ray``, the graph the blow-up made
        before the ray moved, and the new vertex's id."""
        real, made = sk.weight._blow_up, []

        def kept(graph, steps):
            made.append(real(graph, steps))
            return made[-1]

        monkeypatch.setattr("skelgraph.weight._blow_up", kept)
        out, data2 = sk.blow_up_interior_with_data(g, data, ray.attach, toward_ray=ray.label)
        (blown, (wid,)), = made
        self.warm(blown)
        return out, data2, blown, wid

    def test_toward_ray(self, monkeypatch):
        for g, data in self.fixtures_with_rays():
            ray = g.rays[-1]
            out, data2, blown, wid = self.toward_ray(monkeypatch, g, data, ray)
            moved = [Ray(wid, r.label, r.degree) if r.label == ray.label else r
                     for r in blown.rays]
            self.assert_view(out, blown.replace(rays=moved), data2)
            assert out.ray(ray.label).attach == wid


def _weight_answers(g, data):
    """What the weight layer answers on g: the weight function, the
    pushforward, the Laplacian report and the KS skeleton."""
    return (sk.weight_function(g, data), sk.pushforward_divisor(g, data),
            sk.verify_laplacian_theorem(g, data), sk.ks_skeleton(g, data))


class TestWeightMemos:
    """The weight layer keys its vertices with the graph's own points.
    That changes no answer: a cold graph, the same graph warm, and its
    pickle, deepcopy and replace copies, which start without a network,
    give == results, and bad data raises on every call."""

    @staticmethod
    def fixtures():
        from skelgraph.sampling import random_pair_fixture
        rng = random.Random(2718)
        return [random_pair_fixture(rng, m) for m in (1, 2, 3) for _ in range(8)]

    @staticmethod
    def copies(g):
        return pickle.loads(pickle.dumps(g)), copy.deepcopy(g), g.replace()

    def test_cold_warm_and_copies_agree(self):
        for g, data in self.fixtures():
            want = _weight_answers(pickle.loads(pickle.dumps(g)), data)
            assert want[2].ok, want[2].describe()
            assert _weight_answers(g, data) == want
            assert _weight_answers(g, data) == want  # warm
            for copied in self.copies(g):
                assert copied._network is None
                assert _weight_answers(copied, data) == want

    def test_rays_free_graph_is_its_own_compact_graph(self):
        for g, _ in self.fixtures():
            compact = g.without_rays()
            assert compact.rays == () and not compact.pair_model
            assert compact == g.replace(rays=(), pair_model=False)
            assert compact is not g and g.without_rays() is compact
            assert compact._distances == {} and compact._points == {}
            assert compact.without_rays() is compact

    def test_weight_keys_are_the_graph_points(self):
        for g, data in self.fixtures():
            points = g._vertex_points()
            wt = sk.weight_function(g, data)
            assert list(wt.values) == list(points.values())
            assert all(p is points[p.where] for p in wt.values)
            assert all(p is points[p.where] for p in sk.pushforward_divisor(g, data).support)
            stripped = wt.without_rays()
            assert stripped.values == wt.values and stripped.ray_slopes == {}

    @pytest.mark.parametrize("bad, error", [
        (PluricanonicalModelData(m=1, nu={"v1": 1, "v2": 2, "v3": 3}), sk.MissingDataError),
        (PluricanonicalModelData(m=1, nu={"v1": 1, "v2": 2, "v3": 3, "v4": 5, "zz": 0}),
         sk.UnknownElementError),
        (PluricanonicalModelData(m=1, nu={"v1": 1, "v2": 2, "v3": 3, "v4": 5},
                                 horizontal_edges={"e9"}), sk.UnknownElementError),
    ])
    def test_bad_data_raises_on_every_call(self, bad, error):
        g, data = kodaira()
        readers = (sk.weight_function, sk.pushforward_divisor,
                   sk.verify_laplacian_theorem, sk.ks_skeleton)
        for read in readers:
            read(g, data)
        for _ in range(3):
            for read in readers:
                with pytest.raises(error):
                    read(g, bad)
        flagged = PluricanonicalModelData(m=1, nu=data.nu, horizontal_edges={"e0"})
        for _ in range(3):
            with pytest.raises(sk.HorizontalEdgeError):
                sk.verify_laplacian_theorem(g, flagged)


@pytest.fixture
def validations(monkeypatch):
    """The graphs PluricanonicalModelData.validate_on is called on."""
    seen = []
    real = PluricanonicalModelData.validate_on

    def counted(self, graph):
        seen.append(graph)
        return real(self, graph)

    monkeypatch.setattr(PluricanonicalModelData, "validate_on", counted)
    return seen


class TestOneReading:
    """Each reader validates the model data once; the Laplacian check
    too, through the weight function, and its pushforward reads the
    validated data."""

    @pytest.mark.parametrize("read, count", [
        (sk.weight_function, 1), (sk.pushforward_divisor, 1), (sk.ks_skeleton, 1),
        (sk.verify_laplacian_theorem, 1),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_validations_per_call(self, validations, read, count):
        for g, data in TestWeightMemos.fixtures()[:6]:
            validations.clear()
            read(g, data)
            assert validations == [g] * count

    @pytest.mark.parametrize("first, then, count", [
        (sk.weight_function, sk.weight_function, 0), (sk.ks_skeleton, sk.ks_skeleton, 0),
        (sk.verify_laplacian_theorem, sk.verify_laplacian_theorem, 0),
        (sk.verify_laplacian_theorem, sk.ks_skeleton, 0),
        (sk.pushforward_divisor, sk.pushforward_divisor, 1),
        (sk.pushforward_divisor, sk.weight_function, 1),
    ], ids=lambda x: getattr(x, "__name__", str(x)))
    def test_validations_per_warm_call(self, validations, first, then, count):
        """A reader after one that read the same graph and data: only
        the pushforward keeps no reading."""
        for g, data in TestWeightMemos.fixtures()[:6]:
            first(g, data)
            validations.clear()
            then(g, data)
            assert validations == [g] * count


class TestKeptReading:
    """Model data keeps its last reading per graph object: a repeated
    call validates nothing, while another graph object is read afresh.
    The tables refuse edits in place, so nothing else can stale the
    reading.  Copies carry the fields alone, so they pickle as a cold
    copy does."""

    @staticmethod
    def fixtures():
        return TestWeightMemos.fixtures() + TestRayDerivations.fixtures_with_rays()

    @staticmethod
    def answers(g, data):
        return (sk.weight_function(g, data), sk.ks_skeleton(g, data),
                sk.verify_laplacian_theorem(g, data))

    @staticmethod
    def copies(data):
        return (copy.copy(data), copy.deepcopy(data), pickle.loads(pickle.dumps(data)),
                dataclasses.replace(data))

    def test_cold_warm_and_copies_agree(self):
        for g, data in self.fixtures():
            want = self.answers(g, copy.deepcopy(data))
            assert want[2].ok, want[2].describe()
            assert self.answers(g, data) == want
            assert self.answers(g, data) == want  # warm
            for copied in self.copies(data):
                assert copied == data and copied._reading is None
                assert self.answers(g, copied) == want

    def test_the_reading_is_kept_per_graph_object(self, validations):
        for g, data in self.fixtures():
            sk.weight_function(g, data)
            twin = pickle.loads(pickle.dumps(g))
            validations.clear()
            assert sk.weight_function(twin, data) == sk.weight_function(twin, data)
            assert validations == [twin]
            sk.ks_skeleton(g, data)
            assert validations == [twin, g]

    @pytest.mark.parametrize("edit", [
        lambda d: operator.setitem(d.nu, next(iter(d.nu)), 7),
        lambda d: operator.delitem(d.nu, next(iter(d.nu))),
        lambda d: d.nu.pop(next(iter(d.nu))),
        lambda d: d.nu.clear(),
        lambda d: d.nu.update({"w": 0}),
        lambda d: operator.setitem(d.ray_degrees, next(iter(d.ray_degrees), "x"), 7),
    ], ids=["nu-set", "nu-del", "nu-pop", "nu-clear", "nu-update", "ray-degrees-set"])
    def test_the_tables_refuse_edits_cold_and_read(self, edit):
        """An edit in place raises on cold data and on data already read,
        and every reader then answers as on a cold deep copy."""
        for g, read in self.fixtures():
            cold, fresh = copy.deepcopy(read), copy.deepcopy(read)
            want = (*self.answers(g, fresh), sk.pushforward_divisor(g, fresh))
            self.answers(g, read)
            for data in (cold, read):
                with pytest.raises((TypeError, AttributeError)):
                    edit(data)
                assert (*self.answers(g, data), sk.pushforward_divisor(g, data)) == want

    def test_read_data_pickles_as_a_cold_copy(self):
        for g, data in self.fixtures():
            cold = pickle.dumps(copy.deepcopy(data))
            self.answers(g, data)
            assert data._reading is not None
            assert pickle.dumps(data) == cold


class TestKeptCompactView:
    """A graph keeps its compact view: ``without_rays()`` is the same
    object on every call, with the canonical divisors it keeps, while a
    new graph and every derived view start without one, since their
    rays or genera may differ."""

    fixtures = staticmethod(TestRayDerivations.fixtures_with_rays)

    def test_the_same_view_on_every_call(self):
        for g, _ in self.fixtures():
            assert g._compact is None
            compact = g.without_rays()
            assert g._compact is compact and compact is not g
            assert all(g.without_rays() is compact for _ in range(3))
            assert compact._compact is None and compact.without_rays() is compact

    def test_new_graphs_and_views_start_without_one(self):
        from skelgraph.graphs import _series_reduction
        from skelgraph.sampling import _sprout_ray_pack
        for seed, (g, data) in enumerate(self.fixtures()):
            g.without_rays()
            ray = g.rays[0]
            made = [WeightedDualGraph(*g.__reduce__()[1]), pickle.loads(pickle.dumps(g)),
                    copy.copy(g), copy.deepcopy(g), g.replace(),
                    sk.apply_blowups(g, [sk.BlowUpStep("interior", g.vertex_ids[0])]),
                    _series_reduction(g, g.vertex_ids),
                    g.without_rays(), sk.strip_genus(g),
                    _sprout_ray_pack(random.Random(seed), g, data)[0],
                    sk.blow_up_interior_with_data(g, data, ray.attach, toward_ray=ray.label)[0]]
            assert all(out._compact is None for out in made)

    def test_a_stripped_view_has_its_own_compact_view(self):
        for g, _ in self.fixtures():
            g = g.replace(vertices=[V(v.id, v.multiplicity, (i + 1) % 2)
                                    for i, v in enumerate(g.vertices)])
            compact = g.without_rays()
            flat = sk.strip_genus(g).without_rays()
            cold = WeightedDualGraph([V(v.id, v.multiplicity, 0) for v in g.vertices], g.edges,
                                     (), g.metric, g.name, False)
            assert flat is not compact and flat == cold and not flat.pair_model
            for m in (1, 2):
                assert sk.canonical_divisor(flat, m) == sk.canonical_divisor(cold, m)
                assert sk.canonical_divisor(compact, m) != sk.canonical_divisor(flat, m)

    def test_compact_canonical_divisor_is_computed_once(self, monkeypatch):
        real, computed = sk.weight.canonical_divisor, []

        def counted(graph, m=1):
            if m not in graph._canonical:
                computed.append(graph)
            return real(graph, m)

        monkeypatch.setattr("skelgraph.weight.canonical_divisor", counted)
        for g, data in self.fixtures():
            computed.clear()
            for _ in range(3):
                assert sk.verify_laplacian_theorem(g, data).ok
            assert computed == [g, g.without_rays()]

    def test_reports_equal_a_pickled_copys_cold_and_warm(self):
        fixtures = self.fixtures()
        assert len(fixtures) >= 24
        for g, data in fixtures:
            copied = pickle.loads(pickle.dumps(g))
            want = sk.verify_laplacian_theorem(copied, data)
            assert want.ok, want.describe()
            for _ in range(2):
                assert sk.verify_laplacian_theorem(g, data) == want
                assert sk.verify_laplacian_theorem(copied, data) == want
