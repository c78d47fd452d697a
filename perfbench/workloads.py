"""The three workloads: seeded input generation, jobs and output checks.

A workload is a list of jobs built at set-up from ``--seed``.  A job's
``run`` makes one timed call into skelgraph; its ``check`` then tests
the output against an independent public identity and raises
``WrongOutput`` if the identity fails.  A job *fails* (rather than
being wrong) when it raises a typed ``SkelgraphError`` or when a CLI
run exits non-zero on the well-formed input generated for it.

skelgraph is imported inside the workload functions, never at module
level: set-up is repeated with fresh imports, and every job must close
over the modules of the last import, the one the tracer patches.

Why these workloads (each stresses different layers):

- ``model-refinement``: distances and blow-up graph construction, no
  Poisson or reduction calls.  It shows distance and blow-up changes and
  is the null workload for ``potential`` changes.
- ``witness-loci``: thousands of ~5 ms witness jobs on graphs of genus
  1-4 with at most 5 vertices.  Per-call overhead (``refine``, small
  lattices, 3-10-dimensional solves) dominates; no ``distance`` calls.
- ``skeleton-scale``: a few large jobs on the user path (the CLI), where
  asymptotic cost dominates.  It runs the same ``potential`` functions as
  ``witness-loci`` on large inputs, so a change that trades per-call cost
  for asymptotic cost shows on one of the two.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


class WrongOutput(Exception):
    """A job returned an answer that fails its output check."""


class CliFailure(Exception):
    """A CLI run exited non-zero on a well-formed generated input."""


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    inputs: Callable[[], Any]  # JSON-able description, for the fingerprint


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _strata_graph(rng, make, n):
    """Draw from a library sampler until it returns exactly n vertices,
    so every seed gets the same size mix (the samplers draw their own
    vertex count, and cost grows steeply with it)."""
    while True:
        g = make()
        if len(g.vertex_ids) == n:
            return g


# -- model-refinement ---------------------------------------------------------


def model_refinement(rng: random.Random, tiny: bool, workdir: Path) -> list[Job]:
    """Per size stratum, one random non-reduced model (N <= 8) with 50
    random node and interior blow-ups, followed by three random pair
    fixtures (m = 1, 2, 3).  Three quarters of the jobs are the cheap
    pair fixtures, so job_p50_ms reads the weight layer and job_p90_ms
    the distance-bound invariance jobs."""
    import skelgraph as sk
    from skelgraph import io as sio
    from skelgraph.sampling import random_graph, random_pair_fixture

    sizes = (3, 4) if tiny else range(2, 11)
    extra_edges = (0, 1) if tiny else range(4)
    per_stratum = 1 if tiny else 2
    jobs = []
    for n, k, _ in itertools.product(sizes, extra_edges, range(per_stratum)):
        g = _strata_graph(rng, lambda: random_graph(
            rng, max_vertices=n, max_multiplicity=8, extra_edges=k), n)
        cur, steps = g, []
        for _ in range(50):
            if rng.random() < 0.5 and cur.edges:
                step = sk.BlowUpStep("node", rng.choice(cur.edges).id)
            else:
                step = sk.BlowUpStep("interior", rng.choice(cur.vertex_ids))
            steps.append(step)
            cur = sk.apply_blowups(cur, [step])
        jobs.append(_invariance_job(sk, sio, g, steps))
        for m in (1, 2, 3):
            pg, data = random_pair_fixture(random.Random(rng.getrandbits(64)), m)
            jobs.append(_pair_job(sk, sio, pg, data))
    return jobs


def _invariance_job(sk, sio, g, steps) -> Job:
    n = len(g.vertex_ids)

    def check(report):
        _require(bool(report) and not report.discrepancies,
                 f"metric invariance failed: {report.discrepancies[:3]}")
        _require(report.checked_pairs == n * (n - 1) // 2,
                 f"checked {report.checked_pairs} pairs of {n} vertices")

    return Job("invariance", lambda: sk.verify_metric_invariance(g, steps), check,
               lambda: {"graph": sio.graph_to_json(g),
                        "steps": sio.blowups_to_json(steps)})


def _pair_job(sk, sio, g, data) -> Job:
    def run():
        return sk.verify_laplacian_theorem(g, data), sk.ks_skeleton(g, data)

    def check(out):
        report, ks = out
        _require(bool(report), f"Laplacian theorem failed: {report.describe()}")
        ratios = {v.id: Fraction(data.nu[v.id], v.multiplicity) for v in g.vertices}
        lowest = min(ratios.values())
        _require(ks.vertices == {v for v, r in ratios.items() if r == lowest},
                 "KS skeleton vertices are not the minimizers of nu/N")

    return Job("pair-fixture", run, check,
               lambda: {"graph": sio.graph_to_json(g), "data": sio.data_to_json(data)})


# -- witness-loci -------------------------------------------------------------

PAIRS_PER_GRAPH = 12


def witness_loci(rng: random.Random, tiny: bool, workdir: Path) -> list[Job]:
    """Per (genus, vertex count) stratum four random reduced graphs: the
    tree enumeration of each is one job, and each of up to
    PAIRS_PER_GRAPH random (spanning tree, non-tree edge) pairs is one
    witness_cycle job.  Then bridge-chain witnesses on the
    dumbbell and triangle-chain family (genus 2-4) and canonical-form
    locus cross-validation on random graphs with genus labels and on the
    family's largest member."""
    import skelgraph as sk
    from skelgraph import io as sio
    from skelgraph.sampling import random_reduced_graph

    jobs = []
    genera = (1, 2) if tiny else (1, 2, 3, 4)
    sizes = (2, 3) if tiny else (2, 3, 4, 5)
    per_stratum = 1 if tiny else 4
    for genus, n, _ in itertools.product(genera, sizes, range(per_stratum)):
        g = _strata_graph(rng, lambda: random_reduced_graph(
            rng, max_vertices=n, genus=genus), n)
        trees = sk.all_spanning_trees(g)
        jobs.append(_trees_job(sk, sio, g, len(trees)))
        pairs = [(tree, e.id) for tree in trees for e in g.edges if e.id not in tree]
        # a fixed number of pairs per graph keeps the job mix the same for
        # every seed (graphs of one stratum differ a lot in tree count)
        for i in sorted(rng.sample(range(len(pairs)), min(len(pairs), PAIRS_PER_GRAPH))):
            jobs.append(_cycle_job(sk, sio, g, *pairs[i]))

    family = [sk.fixtures.dumbbell(k) for k in ((1,) if tiny else (1, 2, 3))]
    family += [sk.fixtures.triangle_chain(gc, bl)
               for gc in ((2,) if tiny else (2, 3, 4)) for bl in (1, 2)]
    for g in family:
        for chain in sk.maximal_bridge_chains(g):
            jobs.append(_chain_job(sk, sio, g, chain))
    # cross-validating the family's largest member (12 non-bridge
    # witnesses) is the slowest job for every seed: job_max_ms stays steady
    jobs.append(_canonical_locus_job(sk, sio, family[-1]))

    for n, genus in itertools.product(sizes, (1, 2) if tiny else (1, 2, 3)):
        g = _strata_graph(rng, lambda: random_reduced_graph(
            rng, max_vertices=n, genus=genus, max_genus_label=1), n)
        # genus-0 leaves get positive genus: the shape of a reduced
        # minimal semistable model (as in acceptance criterion 8)
        g = g.replace(vertices=[
            sk.VertexLabel(v.id, 1, rng.randint(1, 2))
            if g.valency(v.id, include_rays=False) == 1 and v.genus == 0 else v
            for v in g.vertices])
        jobs.append(_canonical_locus_job(sk, sio, g))
    return jobs


def _kirchhoff_count(g) -> int:
    """Spanning-tree count by the matrix-tree theorem (exact)."""
    ids = list(g.vertex_ids)
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in g.edges:
        if e.a == e.b:
            continue
        a, b = pos[e.a], pos[e.b]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for col in range(n - 1):
        piv = next((r for r in range(col, n - 1) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n - 1):
            fac = m[r][col] / m[col][col]
            m[r] = [x - fac * y for x, y in zip(m[r], m[col])]
    return int(det)


def _trees_job(sk, sio, g, tree_count) -> Job:
    def check(trees):
        _require(len(set(trees)) == len(trees) == _kirchhoff_count(g),
                 f"{len(trees)} trees, matrix-tree count {_kirchhoff_count(g)}")
        _require(all(sk.is_spanning_tree(g, t) for t in trees), "non-tree returned")

    return Job("spanning-trees", lambda: sk.all_spanning_trees(g), check,
               lambda: {"graph": sio.graph_to_json(g), "trees": tree_count})


def _cycle_job(sk, sio, g, tree, eid) -> Job:
    def check(bundle):
        _require(bundle.locus == sk.fundamental_cycle(g, tree, eid),
                 f"witness locus for {eid!r} is not Z(T, e)")

    return Job("witness-cycle", lambda: sk.witness_cycle(g, eid, tree=tree), check,
               lambda: {"graph": sio.graph_to_json(g), "tree": sorted(tree), "edge": eid})


def _chain_job(sk, sio, g, chain) -> Job:
    def check(bundle):
        _require(bundle.locus == chain.as_locus(g),
                 f"bridge witness locus is not the chain {chain.edges}")

    return Job("witness-bridge-chain", lambda: sk.witness_bridge_chain(g, chain), check,
               lambda: {"graph": sio.graph_to_json(g), "chain": list(chain.edges)})


def _canonical_locus_job(sk, sio, g) -> Job:
    def run():
        expected = sk.canonical_form_locus(g)
        work = sk.strip_genus(g)
        non_bridges = sorted(e.id for e in work.edges if e.id not in sk.bridges(work))
        loci = [sk.witness_cycle(work, eid).locus for eid in non_bridges]
        genus_vertices = [v.id for v in g.vertices if v.genus > 0]
        got = sk.union_loci(work, loci + [sk.vertex_locus(work, *genus_vertices)])
        return expected, got

    def check(out):
        expected, got = out
        _require(got.vertices == expected.vertices and got.segments == expected.segments,
                 "witness union differs from the canonical-form locus")

    return Job("canonical-form-locus", run, check,
               lambda: {"graph": sio.graph_to_json(g)})


# -- skeleton-scale -----------------------------------------------------------

# Triangle chains verified end to end through the CLI.  The ladder stops
# at genus 7: at genus 9, verify min-locus and nonbridge take 11-13 s each.
CHAIN_GENERA = (3, 5, 7)
# The top rung: on triangle_chain(10) the witness for e28 runs into the
# 200 000-round Dhar cap (after 7-10 s on a 2-core host; exit 1).
CAPPED_CHAIN = (10, "e28")
# Reduced theta graph whose edge lengths need a 64 462-segment lattice,
# past the 20 000-segment cap: `verify nonbridge` exits 2 on it.
CAPPED_THETA_LENGTHS = ("1/101", "1/103", "1/107")
# solve_poisson sizes, each with the seed of its pinned random graph.  The
# cost of dense elimination varies up to fivefold between random graphs
# of one size, so only the target and anchor follow --seed.  Seed 12 gives
# a V=40 graph whose solve (~50 ms) stays clear of the three ~80 ms jobs
# that set job_p50_ms.
POISSON_GRAPHS = {20: 20, 40: 12, 80: 80}
# K4 with pairwise coprime multiplicities: the lattice has
# e2(multiplicities) segments, so reduction cost grows with their lcm.
K4_LADDER = ((3, 5, 7, 11), (5, 7, 11, 13), (7, 11, 13, 17), (13, 17, 19, 23))
K4_PAST_CAP = (59, 61, 67, 71)  # 24 916 segments
K4_DIVISOR = (2, -1, 1, -2)


def skeleton_scale(rng: random.Random, tiny: bool, workdir: Path) -> list[Job]:
    """CLI ``verify`` runs of min-locus, bridge and nonbridge on
    triangle-chain JSON written at set-up, the capped chain edge and the
    capped theta, then solve_poisson on random graphs of growing size
    and reduce_divisor on the K4 ladder and past the lattice cap."""
    import skelgraph as sk
    from skelgraph import cli
    from skelgraph import io as sio

    def write(name, doc):
        path = workdir / name
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return str(path)

    jobs = []
    for genus in ((2, 3) if tiny else CHAIN_GENERA):
        g = sk.fixtures.triangle_chain(genus)
        path = write(f"chain{genus}.json", sio.graph_to_json(g))
        for subject in ("min-locus", "bridge", "nonbridge"):
            jobs.append(_cli_job(sk, sio, cli, g, subject, path, None))
    if not tiny:
        genus, eid = CAPPED_CHAIN
        g = sk.fixtures.triangle_chain(genus)
        path = write(f"chain{genus}.json", sio.graph_to_json(g))
        data = write(f"{eid}.json", {"edge": eid})
        jobs.append(_cli_job(sk, sio, cli, g, "min-locus", path, data))
    theta = sio.graph_from_json({
        "name": "theta-past-lattice-cap",
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [{"a": "u", "b": "v", "length": x} for x in CAPPED_THETA_LENGTHS]})
    path = write("theta-cap.json", sio.graph_to_json(theta))
    jobs.append(_cli_job(sk, sio, cli, theta, "nonbridge", path, None))

    for n, graph_seed in ({10: 10} if tiny else POISSON_GRAPHS).items():
        g = _random_reduced(sk, random.Random(graph_seed), n)
        jobs.append(_poisson_job(sk, sio, g, _random_target(sk, rng, g),
                                 rng.choice(g.vertex_ids)))
    for mults in (((2, 3, 5, 7),) if tiny else K4_LADDER) + (K4_PAST_CAP,):
        g = sk.WeightedDualGraph(
            vertices=[sk.VertexLabel(f"v{i}", m) for i, m in enumerate(mults)],
            edges=list(itertools.combinations([f"v{i}" for i in range(4)], 2)),
            name=f"K4-{'-'.join(map(str, mults))}")
        divisor = sk.GraphDivisor({sk.GraphPoint.at_vertex(f"v{i}"): c
                                   for i, c in enumerate(K4_DIVISOR)})
        jobs.append(_reduce_job(sk, sio, g, divisor, "v0"))
    return jobs


def _random_reduced(sk, rng, n):
    """Random connected reduced graph with exactly n vertices: a random
    tree plus three extra edges, as sampling.random_reduced_graph builds
    them."""
    vertices = [sk.VertexLabel(f"v{i}", 1) for i in range(n)]
    edges = [(f"v{rng.randrange(i)}", f"v{i}") for i in range(1, n)]
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.append((f"v{i}", f"v{(j + 1) % n if i == j else j}"))
    return sk.WeightedDualGraph(vertices=vertices, edges=edges, name=f"random-V{n}")


def _random_target(sk, rng, g):
    """Degree-zero integer divisor on the vertices plus two interior
    edge points."""
    coeffs = {sk.GraphPoint.at_vertex(v): rng.randint(-3, 3) for v in g.vertex_ids}
    for _ in range(2):
        e = rng.choice(g.edges)
        p = sk.GraphPoint.on_edge(e.id, g.edge_length(e.id) * rng.randint(1, 3) / 4)
        coeffs[p] = coeffs.get(p, 0) + rng.randint(-2, 2)
    first = sk.GraphPoint.at_vertex(g.vertex_ids[0])
    coeffs[first] -= sum(coeffs.values())
    return sk.GraphDivisor(coeffs)


def _poisson_job(sk, sio, g, target, anchor) -> Job:
    def check(f):
        _require(sk.laplacian(g, f) == target, "laplacian(f) != target")
        _require(f.evaluate(g, anchor) == 0, "f(anchor) != 0")

    return Job(f"solve-poisson-V{len(g.vertex_ids)}",
               lambda: sk.solve_poisson(g, target, anchor=anchor), check,
               lambda: {"graph": sio.graph_to_json(g),
                        "target": sio.divisor_to_json(target), "anchor": anchor})


def _reduce_job(sk, sio, g, divisor, q) -> Job:
    def check(out):
        reduced, f = out
        _require(reduced == divisor - sk.laplacian(g, f),
                 "reduced != D - laplacian(f)")
        q_pt = sk.GraphPoint.at_vertex(q)
        _require(all(reduced.coeff(p) >= 0 for p in reduced.support if p != q_pt),
                 "reduced divisor is not effective off q")

    return Job(f"reduce-{g.name}", lambda: sk.reduce_divisor(g, divisor, q), check,
               lambda: {"graph": sio.graph_to_json(g),
                        "divisor": sio.divisor_to_json(divisor), "q": q})


def _cli_job(sk, sio, cli, g, subject, graph_path, data_path) -> Job:
    argv = ["verify", subject, "--graph", graph_path]
    if data_path is not None:
        argv += ["--data", data_path]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliFailure(f"exit {code}: {err.getvalue().strip()[:200]}")
        return json.loads(out.getvalue())

    def check(report):
        _require(report.get("ok") is True, f"verify {subject}: ok is not true")
        if subject == "min-locus":
            for eid, entry in report["edges"].items():
                cycle = sk.fundamental_cycle(g, entry["witness"]["tree"], eid)
                _require(entry["witness"]["locus"] == sio.locus_to_json(cycle),
                         f"min-locus witness for {eid!r} is not Z(T, e)")
        elif subject == "bridge":
            chains = {c.edges: c for c in sk.maximal_bridge_chains(g)}
            _require(len(report["chains"]) == len(chains), "bridge chain count")
            for entry in report["chains"]:
                chain = chains[tuple(entry["chain"])]
                _require(entry["witness"]["locus"] == sio.locus_to_json(chain.as_locus(g)),
                         f"bridge witness for {chain.edges} is not the chain")
        else:
            expected = sio.locus_to_json(sk.canonical_form_locus(g))
            _require(report["witness_union"] == expected
                     and report["canonical_form_locus"] == expected,
                     "nonbridge witness union differs from canonical_form_locus")

    kind = f"cli-{subject}-{g.name}"
    if data_path is not None:
        kind += "-" + Path(data_path).stem

    return Job(kind, run, check,
               lambda: {"argv": argv[:2], "graph": sio.graph_to_json(g),
                        "data": None if data_path is None
                        else json.loads(Path(data_path).read_text(encoding="utf-8"))})


WORKLOADS = {
    "model-refinement": model_refinement,
    "witness-loci": witness_loci,
    "skeleton-scale": skeleton_scale,
}

# Per workload, wrapped functions predicted to do work ("work": at least
# one call) or none at all ("none": zero calls).  A traced run reports
# the contradictions as trace.coverage_misses.
_NO_CLI = {"cli.main": "none", "io.graph_from_json": "none",
           "io.witness_to_json": "none", "io.locus_to_json": "none"}
EXPECT = {
    "model-refinement": {
        "graphs.distance": "work", "graphs.vertex_distances": "work",
        "models.apply_blowups": "work", "models.verify_metric_invariance": "work",
        "weight.verify_laplacian_theorem": "work", "weight.ks_skeleton": "work",
        "potential.laplacian": "work",
        "potential.solve_poisson": "none", "potential.reduce_divisor": "none",
        "potential.all_spanning_trees": "none",
        "skeleton.witness_cycle": "none", "skeleton.witness_bridge_chain": "none",
        "skeleton.canonical_form_locus": "none", **_NO_CLI,
    },
    "witness-loci": {
        "graphs.refine": "work", "potential.solve_poisson": "work",
        "potential.reduce_divisor": "work", "potential.laplacian": "work",
        "potential.min_locus": "work", "potential.check_min_locus_lemma": "work",
        "potential.check_bridge_lemma": "work", "potential.all_spanning_trees": "work",
        "potential.bridges": "work", "skeleton.witness_cycle": "work",
        "skeleton.witness_bridge_chain": "work", "skeleton.canonical_form_locus": "work",
        "graphs.distance": "none", "graphs.vertex_distances": "none",
        "models.apply_blowups": "none", "models.verify_metric_invariance": "none",
        "weight.verify_laplacian_theorem": "none", "weight.ks_skeleton": "none",
        **_NO_CLI,
    },
    "skeleton-scale": {
        "cli.main": "work", "io.graph_from_json": "work",
        "io.witness_to_json": "work", "io.locus_to_json": "work",
        "potential.solve_poisson": "work", "potential.reduce_divisor": "work",
        "potential.check_min_locus_lemma": "work", "potential.check_bridge_lemma": "work",
        "skeleton.witness_cycle": "work", "skeleton.witness_bridge_chain": "work",
        "skeleton.canonical_form_locus": "work",
        "graphs.distance": "none", "graphs.vertex_distances": "none",
        "models.apply_blowups": "none", "models.verify_metric_invariance": "none",
        "weight.verify_laplacian_theorem": "none", "weight.ks_skeleton": "none",
        "potential.all_spanning_trees": "none",
    },
}
