#!/usr/bin/env python3
"""The two exact metrics and their behavior under model refinement.

An edge between components of multiplicities N1 and N2 has model
length 1/(N1*N2) and stable length 1/lcm(N1, N2).  Blowing up the node
inserts a component of multiplicity N1+N2 and splits the edge into
pieces of lengths 1/(N1*(N1+N2)) and 1/((N1+N2)*N2), which sum back to
1/(N1*N2): refinement never moves points of the skeleton.
"""

import random

import skelgraph as sk
from skelgraph import BlowUpStep, VertexLabel as V

g = sk.WeightedDualGraph(vertices=[V("a", 4), V("b", 6)], edges=[("a", "b")])
print("One edge, multiplicities 4 and 6:")
print("  model length ", g.edge_length("e0"))
print("  stable length", g.replace(metric="stable").edge_length("e0"))

out = sk.blow_up_node(g, "e0")
mid = next(v for v in out.vertices if v.id not in ("a", "b"))
print(f"\nNode blow-up inserts multiplicity {mid.multiplicity}:")
for e in out.edges:
    print(f"  {e.a} -- {e.b}: {out.edge_length(e.id)}")
print("  total:", sum(out.edge_length(e.id) for e in out.edges),
      "= the original edge length")

# A long random refinement chain never changes pairwise distances
# among the original vertices.
rng = random.Random(1)
base = sk.sampling.random_graph(rng, max_vertices=6, max_multiplicity=5)
cur, seq = base, []
for _ in range(40):
    if rng.random() < 0.5 and cur.edges:
        step = BlowUpStep("node", rng.choice(cur.edges).id)
    else:
        step = BlowUpStep("interior", rng.choice(cur.vertex_ids))
    seq.append(step)
    cur = sk.apply_blowups(cur, [step])
result = sk.verify_metric_invariance(base, seq)
print(f"\n40 random blow-ups on a random graph: "
      f"{result.checked_pairs} vertex pairs checked, "
      f"{'all distances preserved' if result.ok else result.discrepancies}")

# Base change of degree n subdivides every edge of a reduced graph into
# n equal pieces; composites agree with single extensions isometrically.
tri = sk.fixtures.cycle_graph(3)
hexagon = sk.base_change_subdivide(tri, 2)
print(f"\nDegree-2 base change of a triangle: {len(hexagon.vertex_ids)} vertices,"
      f" genus {sk.graph_genus(hexagon)} (unchanged)")
twice = sk.base_change_subdivide(hexagon, 3)
once = sk.base_change_subdivide(tri, 6)
assert all(sk.distance(twice, v, w) == sk.distance(once, v, w)
           for v in tri.vertex_ids for w in tri.vertex_ids)
print("Base change by 2 then 3 is isometric to base change by 6.")
