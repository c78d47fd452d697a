"""Potential theory on weighted metric graphs, all exact.

Laplacians of piecewise-linear functions, canonical divisors of
labelled graphs, exact Poisson solving, reduced divisors by borrowing,
then Dhar burning, bridges, spanning trees and fundamental cycles, and
the two min-locus lemma checkers used by the witness constructions.
The spanning tree, the tree check and the tree paths behind bridges and
fundamental cycles are all read off one depth-first search,
``graphs._search``, the one the graph constructor checks connectivity
with.

Poisson solving and reduction both run on one integer layout, built by
``graphs.refine`` at the interior points they are given and described
on ``Refinement``: the marks (the vertices, then the cuts) joined by
segments whose lengths are integers in units of 1/L.  Neither builds a
graph.

Reduced divisors are computed by chip-firing on the metric graph
itself (Luo, "Rank-determining sets of metric graphs"; Baker-Shokrieh,
"Chip-firing games, potential theory on graphs, and spanning trees").
State lives only at marks, joined by chip-free segments along which
the script is linear with an integer slope.  One loop burns and
moves: Dhar's burn grows from the last mark off q in debt, or from q
once no mark is, and the burnt set borrows one chip along each segment
out of it, all by the length of the shortest, so the work is bounded by
events and not by L.  Least action makes a burn from a debt a set that
must rise, and the loop ends when the burn from q reaches every mark.

The Laplacian, the integer-slope test and the minimum locus read one
walk of f per graph (``PLFunction._walk``): one pass validates f
against the graph and computes each edge's profile, the slopes of its
pieces, its values scaled to integers and f's own points of its
interior breakpoints, and f keeps them for that graph object.  The
slopes are unreduced integer pairs (n, d), so the Laplacian sums and
compares them in integers and builds a Fraction only for a coefficient
that is not an integer; it keys each kink with f's breakpoint, and the
minimum locus finds its runs on the integer values.  The lemma checkers
read f three times (div(f), the "tropical" hypothesis, min_locus(f))
and pay for one walk.

Points are shared, not rebuilt: the witnesses put the graph's kept
midpoints into D, ``reduce_divisor`` keys its output at an input point
with that point, ``solve_poisson`` keys its values with the checked
target points, and ``laplacian`` keys kinks with f's breakpoints, so
the divisors and functions these pass each other match by identity.
``check_point`` passes the graph's own vertex points and midpoints by
identity, so on the witness path the solvers check only the points a
reduction added, and ``refine`` scales the graph's kept uncut layout
to its cuts.  Every given tree, ``spanning_tree``'s avoid set and a
model's horizontal edges are read and checked once, by ``_edge_set``,
which checks a frozenset's ids in sorted order, so the same unknown id
is named under every hash seed.  A given tree is searched once per
graph: ``_kept_tree`` keeps each tree it accepts, and ``_edge_set``
passes such a tree at once, so a witness's entry check, its lemma's
"spanning-tree" hypothesis and ``fundamental_cycle`` pay for one read
and one search.

Sign conventions: the Laplacian's degree at a point is the sum of the
outgoing slopes; div(f) = -laplacian(f) is the sum of incoming slopes.
A declared ray slope s (oriented away from the skeleton) therefore
contributes +s to the Laplacian at the attachment, and the degree of
laplacian(f) over the compact part equals the sum of the ray slopes.

Poisson problems are solved in the cycle space (the electrical-network
view of Baker-Faber, "Metrized graphs, Laplacian operators and
electrical networks"): on the marks and segments of the target's
support, a spanning tree carries slopes fixed by flow conservation up
to the slopes of the g = b1 chords, and only the g x g system that
closes the fundamental cycles is solved.  The arithmetic is on
integers: lengths in units of 1/L, slopes in units of 1/D and values
in units of 1/(L D), and the chord system is solved by Bareiss's
fraction-free elimination (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination"), which divides
exactly by the previous pivot.  The cost is O(V g + g^3) integer
operations instead of O(V^3), then one Fraction per value; a tree
needs no linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

from .divisors import GraphDivisor
from .errors import (
    DegreeMismatchError,
    DivisorMismatchError,
    GraphStructureError,
    InvalidPointError,
    LoopsPresentError,
    MinimumNotAttainedError,
    PipelineError,
    UnknownElementError,
)
from .graphs import (
    GraphPoint,
    PointLike,
    Rational,
    WeightedDualGraph,
    _ZERO,
    _bivalent_run,
    _restore_checked,
    _search,
    refine,
)
from .loci import SubgraphLocus
from .plfunction import PLFunction, _integral_ray_slopes

_MAX_LATTICE_NODES = 20000
# caps reduce_divisor's rounds seeded at q; the rounds seeded at a debt are
# not counted, as least action bounds them: u never passes the least script
_MAX_DHAR_ROUNDS = 200000


# -- Laplacian and friends ---------------------------------------------------


def laplacian(graph: WeightedDualGraph, f: PLFunction) -> GraphDivisor:
    """Divisor whose degree at each point is the sum of the outgoing
    slopes of f there; declared ray slopes count at their attachments.

    One pass over f's validated walk of the graph, in integers: with
    each piece's slope an (n, d) pair, an interior breakpoint is a kink
    when n_r d_l - n_l d_r is not 0 and gets that over d_l d_r, and the
    end slopes of each edge and the ray slopes are summed per vertex as
    one n/d pair, over the lcm of their d.  A coefficient is an int
    when d divides n and a Fraction otherwise.  A kink is keyed with
    f's own breakpoint and a vertex with the graph's own point, so the
    result shares its keys with f and with the graph's other readers."""
    points = graph._vertex_points()
    ends = {v: [] for v in points}
    support = {}
    for e, _, pieces, keys, _ in f._walk(graph).values():
        ends[e.a].append(pieces[0])
        n, d = pieces[-1]
        ends[e.b].append((-n, d))
        for p, (nl, dl), (nr, dr) in zip(keys, pieces, pieces[1:]):
            n = nr * dl - nl * dr
            if n:
                support[p] = _quotient(n, dl * dr)
    for label, s in f.ray_slopes.items():
        ends[graph.ray(label).attach].append((s, 1))
    for v, terms in ends.items():
        N, D = 0, 1
        for n, d in terms:
            if d == D:
                N += n
            else:
                g = gcd(D, d)
                N, D = N * (d // g) + n * (D // g), D // g * d
        support[points[v]] = _quotient(N, D)
    return GraphDivisor._clean(support)


def _quotient(n: int, d: int):
    """n / d for d > 0: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def div(graph: WeightedDualGraph, f: PLFunction) -> GraphDivisor:
    """div(f) = -laplacian(f): degree at a point is the sum of the
    incoming slopes."""
    return -laplacian(graph, f)


def canonical_divisor(graph: WeightedDualGraph, m: int = 1) -> GraphDivisor:
    """The m-canonical divisor sum_v N(v) (val(v) + 2 g(v) - 2) v, with
    the valency counting bounded edges and rays alike.

    The graph keeps it for each m asked for, so every call after the
    first returns the same immutable divisor; the graph and m are
    checked on every call."""
    if not graph.is_loop_free():
        raise LoopsPresentError("canonical divisor needs a loop-free graph")
    if type(m) is not int or m < 1:
        raise GraphStructureError(f"m must be a positive integer, got {m!r}")
    K = graph._canonical.get(m)
    if K is None:
        points = graph._vertex_points()
        K = graph._canonical[m] = GraphDivisor._clean({
            points[v.id]: m * v.multiplicity * (graph.valency(v.id) + 2 * v.genus - 2)
            for v in graph.vertices})
    return K


# -- exact Poisson solving ----------------------------------------------------


def _solve_linear(rows: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """Bareiss's fraction-free Gauss-Jordan elimination on the chord
    system, the length-weighted Gram matrix of the fundamental cycles:
    it is symmetric positive definite, so the k-th pivot is its k-th
    leading principal minor, positive, and no row is swapped.  Every
    step divides exactly by the previous pivot, so all entries stay
    integers.  Returns (x, det) with det > 0 the determinant and
    x[i] / det the i-th unknown; raises on a pivot that is not positive."""
    n = len(rows)
    m = [list(rows[i]) + [rhs[i]] for i in range(n)]
    prev = 1
    for col in range(n):
        top = m[col]
        pv = top[col]
        if pv <= 0:
            raise PipelineError(f"Poisson chord system is not positive definite: pivot {pv}")
        for r in range(n):
            if r == col:
                continue
            row = m[r]
            fac = row[col]
            if fac:
                m[r] = [(pv * x - fac * y) // prev for x, y in zip(row, top)]
            elif pv != prev:
                m[r] = [pv * x // prev if x else x for x in row]
        prev = pv
    return [m[i][n] for i in range(n)], prev


def solve_poisson(graph: WeightedDualGraph, target: GraphDivisor,
                  ray_slopes: Optional[Mapping[str, Rational]] = None,
                  anchor: Optional[PointLike] = None) -> PLFunction:
    """The unique PLFunction f with f(anchor) = 0, the declared ray
    slopes, and laplacian(f) = target.

    Solvability requires deg(target) over the compact part to equal the
    sum of the declared ray slopes, which must be integers.

    The solve runs on the ``refine`` layout at the target's interior
    support and the anchor: segment lengths are integers in units of
    1/L and slopes in units of 1/D (D the lcm of the target's
    coefficient denominators), so values are integers in units of
    1/(L D).  A BFS tree of segments from the anchor is peeled from the
    leaves, which makes each tree slope affine in the slopes of the g
    chords; integrating down from the anchor makes each value affine in
    them too, and each chord then closes one equation of a g x g
    integer system, solved by Bareiss elimination.  Cost: O(V g + g^3)
    integer operations on V marks, then one Fraction per mark; none of
    the linear algebra on a tree.  The values come out at the marks, in
    mark order.
    """
    slopes = _integral_ray_slopes(ray_slopes or {})
    for label in slopes:
        graph.ray(label)
    support = []
    for p, c in target.items():
        p = graph.check_point(p)
        if p.kind == "ray":
            raise InvalidPointError(
                "targets supported on rays are not solvable: rays carry a "
                "single declared slope and no interior breakpoints"
            )
        support.append((p, c))
    anchor_pt = graph.check_point(graph.vertex_ids[0] if anchor is None else anchor)
    if anchor_pt.kind == "ray":
        raise InvalidPointError(f"anchor {anchor_pt!r} is on a ray; it must be on the compact part")

    D = lcm(*(c.denominator for _, c in support))
    support = [(p, c.numerator * (D // c.denominator)) for p, c in support]  # units of 1/D
    total = sum(c for _, c in support)
    if total != D * sum(slopes.values()):
        raise DegreeMismatchError(
            f"deg(target) = {Fraction(total, D)} over the compact part but the ray "
            f"slopes sum to {sum(slopes.values())}; no solution exists"
        )

    ref = refine(graph, [p for p, _ in support] + [anchor_pt])
    mark, segments, inc = ref.marks, ref.segments, ref.inc

    # t[x]: the sum of the outgoing slopes along segments at mark x, in
    # units of 1/D
    t = [0] * len(mark)
    for p, c in support:
        t[mark[p]] += c
    for label, s in slopes.items():
        t[mark[GraphPoint.at_vertex(graph.ray(label).attach)]] -= D * s

    # BFS spanning tree from the anchor; the other segments are the chords
    root = mark[anchor_pt]
    parent: dict[int, tuple[int, int]] = {}  # x -> (parent, tree-segment steps)
    order = [root]
    tree = set()
    for x in order:
        for j in inc[x]:
            _, a, b, n = segments[j]
            w = b if a == x else a
            if w != root and w not in parent:
                parent[w] = (x, n)
                tree.add(j)
                order.append(w)
    chords = [s for j, s in enumerate(segments) if j not in tree]
    g = len(chords)

    # Peel from the leaves: up[x], the outgoing slope at x along the
    # segment to its parent, is t[x] minus x's outgoing chord slopes plus
    # up[w] of each child w.  It is affine in the chord slopes y: a
    # constant in units of 1/D and integer coefficients.  Chord j runs
    # from a to b with slope y_j, so it leaves a with slope +y_j and b
    # with slope -y_j.
    up = [(c, [0] * g) for c in t]
    for j, (_, a, b, _) in enumerate(chords):
        up[a][1][j] -= 1
        up[b][1][j] += 1
    for x in reversed(order[1:]):
        p = parent[x][0]
        (c, k), (pc, pk) = up[x], up[p]
        up[p] = (pc + c, [u + w for u, w in zip(pk, k)])

    # Integrate down from the anchor, where f = 0: f(x) = f(p) - len * up[x].
    # In units of 1/(L D), with Y = D y, f(x) is the constant plus the
    # integer coefficients dotted with Y.
    f = {root: (0, [0] * g)}
    for x in order[1:]:
        p, n = parent[x]
        (c, k), (fc, fk) = up[x], f[p]
        f[x] = (fc - n * c, [u - n * w if w else u for u, w in zip(fk, k)])

    # Chord j closes a cycle: f(b) - f(a) = len_j * y_j.  Written as
    # f(a) - f(b) + len_j * y_j = 0 and scaled by L D, this is the g x g
    # integer cycle-length system in Y, symmetric positive definite; its
    # solution is sol / det.  A tree has no chords and no system.
    sol: list[int] = []
    det = 1
    if chords:
        rows, rhs = [], []
        for j, (_, a, b, n) in enumerate(chords):
            (ac, ak), (bc, bk) = f[a], f[b]
            row = [u - w for u, w in zip(ak, bk)]
            row[j] += n
            rows.append(row)
            rhs.append(bc - ac)
        sol, det = _solve_linear(rows, rhs)

    scale = ref.L * D * det
    values = {}
    for p, x in mark.items():
        c, k = f[x]
        c *= det
        for u, xj in zip(k, sol):
            if u:
                c += u * xj
        values[p] = Fraction(c, scale)
    return PLFunction._trusted(values, slopes)


# -- minimum locus -------------------------------------------------------------


def min_locus(graph: WeightedDualGraph, f: PLFunction) -> SubgraphLocus:
    """Closed locus where f attains its global minimum over the compact
    part.  Rays with negative slope push the minimum to infinity and
    are rejected.

    Along each edge of f's validated walk, every maximal run of
    consecutive breakpoints at the minimum is one closed segment, so
    the segments come out merged and sorted; a one-point run at an end
    of the edge is just that vertex.  The runs are found on the walk's
    integer values, against the minimum scaled the same way."""
    walk = f._walk(graph)
    dy = f._walked[2]
    for label, s in f.ray_slopes.items():
        if s < 0:
            raise MinimumNotAttainedError(
                f"ray {label!r} has negative slope {s}; no minimum is attained"
            )
    m = f.min_over_compact()
    low = m.numerator * (dy // m.denominator)
    values = f._values
    # a set copied into a frozenset iterates as the public constructor's
    vertices = frozenset({v for v, p in graph._vertex_points().items() if values[p] == m})
    segments = {}
    for e, profile, _, _, ys in walk.values():
        if low not in ys:
            continue
        last = len(ys) - 1
        segs = []
        i = 0
        for at_min, run in itertools.groupby(ys, low.__eq__):
            k = len(list(run))
            if at_min and (k > 1 or 0 < i < last):
                segs.append((profile[i][0], profile[i + k - 1][0]))
            i += k
        if segs:
            segments[e.id] = tuple(segs)
    return SubgraphLocus._canonical(graph, vertices, segments)


# -- bridges, trees, cycles -----------------------------------------------------


def bridges(graph: WeightedDualGraph) -> frozenset[str]:
    """The cut edges: the edges of ``spanning_tree(graph)`` on no
    fundamental cycle, as those cycles span the cycle space (a loop's
    tree path is empty, a parallel edge's is its twin, so neither is a
    bridge).  The graph keeps the result, so it is found once."""
    if graph._bridges is not None:
        return graph._bridges
    tree = spanning_tree(graph)
    cut = set(tree)
    for e in graph.edges:
        if e.id not in tree:
            cut.difference_update(_tree_path(graph, tree, e.a, e.b)[1])
    object.__setattr__(graph, "_bridges", frozenset(cut))
    return graph._bridges


def _edge_set(graph: WeightedDualGraph, ids, what: str = "tree") -> frozenset:
    """The edge ids in ``ids`` as a frozenset, each checked once.  A value
    that is not iterable raises GraphStructureError, and the first
    unknown id UnknownElementError.  A frozenset the graph keeps as a
    tree passes at once; any other frozenset keeps no given order, so its
    ids are checked sorted (strings first, anything else by its repr) and
    the same id is named under every hash seed.  Anything else is checked
    in the order given, and its frozenset is made from a dict of the ids,
    so it iterates as one made from ``ids`` itself.  A string is
    iterable, and reads as its characters."""
    if type(ids) is frozenset:
        if ids not in graph._trees:
            for eid in sorted(ids, key=lambda x: (0, x) if isinstance(x, str) else (1, repr(x))):
                graph.edge(eid)
        return ids
    try:
        given = iter(ids)
    except TypeError:
        raise GraphStructureError(
            f"{what} must be an iterable of edge ids, got {ids!r:.80}") from None
    return frozenset({eid: graph.edge(eid) for eid in given})


def _spans(graph: WeightedDualGraph, edges) -> bool:
    """Whether the edge ids in ``edges`` (a container of known ids, each
    once) are V - 1 edges that reach every vertex: a loop or a cycle
    among them leaves one unreached."""
    ids = graph.vertex_ids
    return len(edges) == len(ids) - 1 and len(_search(graph, ids[0], edges)) == len(ids)


def is_spanning_tree(graph: WeightedDualGraph, edge_ids: Iterable[str]) -> bool:
    """V - 1 edges that reach every vertex (see ``_spans``).  Repeated
    ids count once, and the ids are read by ``_edge_set`` on every call."""
    return _kept_tree(graph, _edge_set(graph, edge_ids))


def _kept_tree(graph: WeightedDualGraph, tree: frozenset) -> bool:
    """Whether ``tree``, a frozenset of known edge ids, is a spanning
    tree.  The graph keeps each tree it accepts, so the search runs once
    per tree; a rejected one is searched again on every call."""
    if tree not in graph._trees:
        if not _spans(graph, tree):
            return False
        graph._trees[tree] = None
    return True


def spanning_tree(graph: WeightedDualGraph,
                  avoid: Iterable[str] = ()) -> frozenset[str]:
    """A deterministic spanning tree: the edges by which a depth-first
    search from the smallest vertex, taking each vertex's edges in
    id-string order, first reaches each other vertex.  It uses no edge
    of ``avoid``, each of which must name an edge."""
    avoid = _edge_set(graph, avoid, "avoid")
    ids = graph.vertex_ids
    via = _search(graph, ids[0], graph._edge_index.keys() - avoid)
    if len(via) != len(ids):
        raise GraphStructureError("no spanning tree avoids the given edges")
    # built as a set and copied: a frozenset made straight from the
    # generator can iterate in another order
    return frozenset({step[1] for step in via.values() if step})


def all_spanning_trees(graph: WeightedDualGraph) -> list[frozenset[str]]:
    """Every spanning tree, by filtering edge subsets; fine for the
    small graphs this package works with.  The graph keeps none of
    them (see ``is_spanning_tree``)."""
    non_loops = [e.id for e in graph.edges if e.a != e.b]
    k = len(graph.vertex_ids) - 1
    return [frozenset(c) for c in itertools.combinations(non_loops, k)
            if _spans(graph, c)]


def _tree_path(graph, tree, a, b):
    """The vertices and the edges of the path from b to a along the edge
    ids in ``tree``, in that order: the path a search from a reached b
    by, the only one in a tree (for a = b, just [a])."""
    via = _search(graph, a, tree)
    path_vertices, path_edges = [b], []
    while b != a:
        b, teid = via[b]
        path_edges.append(teid)
        path_vertices.append(b)
    return path_vertices, path_edges


def fundamental_cycle(graph: WeightedDualGraph, tree: Iterable[str],
                      eid: str) -> SubgraphLocus:
    """Z(tree, e): the unique cycle in tree + e, as a closed locus of
    whole edges and their vertices; the tree is read by ``_edge_set``.
    It is built in canonical form, each edge as the one segment
    from 0 to its kept length, along ``_tree_path`` and then e, as the
    public constructor would order it."""
    tset = _edge_set(graph, tree)
    e = graph.edge(eid)
    if eid in tset:
        raise GraphStructureError(f"edge {eid!r} lies in the tree")
    if not _kept_tree(graph, tset):
        raise GraphStructureError("given edge set is not a spanning tree")
    path_vertices, path_edges = _tree_path(graph, tset, e.a, e.b)
    path_edges.append(eid)
    # a set copied into a frozenset iterates as the public constructor's
    return SubgraphLocus._canonical(graph, frozenset(set(path_vertices)),
                                    {t: ((_ZERO, graph.edge_length(t)),) for t in path_edges})


# -- reduced divisors -----------------------------------------------------------


def reduce_divisor(graph: WeightedDualGraph, divisor_in: GraphDivisor,
                   q: PointLike) -> tuple[GraphDivisor, PLFunction]:
    """The q-reduced divisor equivalent to the input, together with the
    tropical rational function f with D' = D + div(f).

    The reduction starts on the ``refine`` layout at the interior
    support and q, and adds a mark wherever a chip lands; a chip-free
    segment between marks carries f linearly with integer slope.
    Each round burns from a seed, the last mark off q still in debt (q
    does not burn then) or, once no mark is, q itself; the burnt set
    then borrows one chip along each segment out of it, by the shortest
    of them.  The loop ends when the burn from q reaches every mark.
    The result is certified equivalent to the input through the
    independent ``laplacian`` path, and effective off q; that it is
    q-reduced rests on the last burn from q.
    Both results key a vertex with the graph's own point, a point of
    the input with that (checked) point, and only a point the reduction
    adds with a new one.
    """
    if graph.rays:
        raise GraphStructureError("reduce_divisor works on compact graphs; drop rays")
    divisor_in.require_integral("divisor to reduce")
    q_pt = graph.check_point(q)
    support = [(graph.check_point(p), c) for p, c in divisor_in.items()]

    ref = refine(graph, [p for p, _ in support] + [q_pt])
    mark, L = ref.marks, ref.L
    # The segments as columns: segment j runs along edge E[j] from mark
    # A[j] to mark B[j], N[j] steps further from e.a.  Mark x holds
    # chips[x] and the script u[x], and an interior mark sits pos[x]
    # steps from e.a.  f is constant on a loop without marks, and no
    # chip ever enters it.
    E, A, B, N = ([s[k] for s in ref.segments] for k in range(4))
    total = sum(N)
    if total > _MAX_LATTICE_NODES:
        raise PipelineError(
            f"lattice refinement would need {total} segments (> {_MAX_LATTICE_NODES}); "
            "edge-length denominators are too heterogeneous for chip-firing"
        )
    chips = [0] * len(mark)
    for p, c in support:
        chips[mark[p]] += c
    q_mark = mark[q_pt]
    nv = len(graph.vertex_ids)
    pos = [int(p.offset * L) if x >= nv else 0 for p, x in mark.items()]
    inc = [list(js) for js in ref.inc]
    u = [0] * len(chips)

    def split(j, k, height):
        """A new mark k steps into segment j, holding one chip at script
        height; j keeps the part before it."""
        m, t, b = len(chips), len(A), B[j]
        chips.append(1)
        u.append(height)
        pos.append(pos[A[j]] + k)
        inc.append([j, t])
        inc[b][inc[b].index(j)] = t
        A.append(m), B.append(b), N.append(N[j] - k), E.append(E[j])
        B[j], N[j] = m, k

    # one loop: burn from a seed, then the burnt set borrows delta steps,
    # the shortest segment out of it.  The seed is the last mark off q
    # still in debt, and q does not burn in its round; with no debt left
    # it is q, and the loop ends when the burn from q reaches every mark,
    # which makes the divisor q-reduced (Dhar).  A mark burns once more
    # burnt segments reach it than it holds chips.  The unburnt end w of
    # each segment out of the set sends one chip delta steps toward it,
    # onto the member or onto a new mark, and u rises by delta on the set;
    # until a chip lands each lattice step burns the same set, so a round
    # is delta lattice firings.  w holds at least one chip per segment it
    # sends one along, so no mark off q goes into debt and debts only
    # clear.  Every member of a burn from a debt must rise with it, so by
    # least action u never passes the least script, and the end state
    # does not depend on the order (Fey-Levine-Peres; Baker-Shokrieh).
    debts = [x for x, c in enumerate(chips) if x != q_mark and c < 0]
    events = 0
    while True:
        while debts and chips[debts[-1]] >= 0:
            debts.pop()
        seed = debts[-1] if debts else q_mark
        burnt, arriving, stack = {seed}, {}, [seed]
        while stack:
            x = stack.pop()
            for j in inc[x]:
                y = B[j] if A[j] == x else A[j]
                if y not in burnt and y != q_mark:
                    k = arriving[y] = arriving.get(y, 0) + 1
                    if k > chips[y]:
                        burnt.add(y)
                        stack.append(y)
        if not debts:
            if len(burnt) == len(chips):
                break
            events += 1
            if events > _MAX_DHAR_ROUNDS:
                raise PipelineError("Dhar reduction did not terminate")
        out = [(x, j) for x in burnt for j in inc[x] if (B[j] if A[j] == x else A[j]) not in burnt]
        delta = min(N[j] for _, j in out)
        for x, j in out:
            w, n = B[j] if A[j] == x else A[j], N[j]
            chips[w] -= 1
            if n == delta:
                chips[x] += 1
            else:
                split(j, delta if A[j] == w else n - delta,
                      u[w] + delta * ((u[x] - u[w]) // n + 1))
        for x in burnt:
            u[x] += delta

    # read-off in units of 1/L: chips and values at the vertices, then
    # edge by edge each interior mark holding chips or where the slopes
    # on its two sides differ, keyed with the input's own point where
    # there is one
    keys = list(mark)
    base_min = min(u)
    held: dict[GraphPoint, int] = {}
    values: dict[GraphPoint, Fraction] = {}
    for p, x in itertools.islice(mark.items(), nv):
        values[p] = Fraction(u[x] - base_min, L)
        if chips[x]:
            held[p] = chips[x]
    for m in sorted(range(nv, len(chips)), key=lambda m: (E[inc[m][0]], pos[m])):
        left, right = inc[m]
        kink = (u[m] - u[A[left]]) * N[right] != (u[B[right]] - u[m]) * N[left]
        if chips[m] or kink:
            p = keys[m] if m < len(keys) else GraphPoint(
                "edge", graph.edges[E[left]].id, Fraction(pos[m], L))
            if chips[m]:
                held[p] = chips[m]
            if kink:
                values[p] = Fraction(u[m] - base_min, L)
    reduced = GraphDivisor(held)
    f = PLFunction._trusted(values, {})

    # certificate: equivalence to the checked input via the independent
    # laplacian path, and effectivity off q; reducedness is not checked
    # again here, it rests on the last burn from q
    if reduced != GraphDivisor(support) - laplacian(graph, f):
        raise PipelineError("reduction certificate failed: D' != D + div(f)")
    for p, c in reduced._support.items():
        if c < 0 and p != q_pt:
            raise PipelineError("reduction certificate failed: not effective off q")
    return reduced, f


# -- bridge chains ---------------------------------------------------------------


@dataclass(frozen=True)
class BridgeChain:
    """A maximal chain of bridge edges, with its two endpoint vertices:
    a tuple or list of string ids each, of exactly two for the endpoints,
    checked on construction and kept as given."""

    edges: tuple[str, ...]
    endpoints: tuple[str, str]

    def __post_init__(self):
        if not isinstance(self.edges, (tuple, list)):
            raise GraphStructureError(
                f"chain edges must be a tuple or list of edge ids, got {self.edges!r:.80}")
        if not isinstance(self.endpoints, (tuple, list)) or len(self.endpoints) != 2:
            raise GraphStructureError("chain endpoints must be a tuple or list of two "
                                      f"vertex ids, got {self.endpoints!r:.80}")
        for kind, ids in (("edge", self.edges), ("vertex", self.endpoints)):
            for x in ids:
                if not isinstance(x, str):
                    raise UnknownElementError(f"unknown {kind} {x!r:.80}")

    __setstate__ = _restore_checked

    def as_locus(self, graph: WeightedDualGraph) -> SubgraphLocus:
        verts = set(self.endpoints)
        for eid in self.edges:
            e = graph.edge(eid)
            verts.update((e.a, e.b))
        return SubgraphLocus(graph, vertices=verts, whole_edges=self.edges)


def maximal_bridge_chains(graph: WeightedDualGraph) -> list[BridgeChain]:
    """Decompose the bridge set into maximal chains: consecutive bridges
    share a vertex of valency two.  Each is walked both ways from its least
    bridge e, and runs from ``endpoints[0]``, on the side of ``e.a``."""
    unused = set(bridges(graph))
    chains = []
    for seed in sorted(unused):
        if seed not in unused:
            continue
        e = graph.edge(seed)
        _, back, back_end = _bivalent_run(graph, e.b, e, lambda w: True)
        _, ahead, ahead_end = _bivalent_run(graph, e.a, e, lambda w: True)
        unused.difference_update(back, ahead)
        chains.append(BridgeChain(edges=(*reversed(back), *ahead[1:]),
                                  endpoints=(back_end, ahead_end)))
    return chains


def _maximal_chain(graph: WeightedDualGraph, chain: BridgeChain) -> Optional[BridgeChain]:
    """The maximal bridge chain of the graph with ``chain``'s edges and
    endpoints, each in any order, or None if there is none."""
    if not isinstance(chain, BridgeChain):
        raise GraphStructureError(f"chain must be a BridgeChain, got {chain!r:.80}")
    edges, endpoints = set(chain.edges), set(chain.endpoints)
    return next((c for c in maximal_bridge_chains(graph)
                 if edges == set(c.edges) and endpoints == set(c.endpoints)), None)


# -- lemma checkers ---------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    ok: bool
    failed_hypotheses: tuple[str, ...]
    conclusion_holds: Optional[bool]
    computed_locus: Optional[SubgraphLocus] = None

    def __bool__(self):
        return self.ok


def _witness_hypotheses(graph, D, f, covered):
    """D effective, f tropical, and D's support meeting the relative
    interior of every edge outside ``covered``.  ``_check_lemma`` runs
    these only once div(f) = D - mK holds, and then every edge point of
    D is interior: mK lies on vertices, and div(f) has an edge
    coefficient only at a breakpoint of f, which lies strictly inside
    its edge (see ``PLFunction._walk``)."""
    yield "effective", D.is_effective()
    yield "tropical", f.has_integer_slopes(graph)
    hit = {p.where for p in D._support if p.kind == "edge"}
    for other in graph.edges:
        if other.id not in covered:
            yield f"support-on-{other.id}", other.id in hit


def _check_lemma(graph, m, D, f, hypotheses, expected) -> LemmaReport:
    """Raise unless div(f) = D - mK; report the failed (name, holds) pairs
    of ``hypotheses(K)``, or else whether min_locus(f) == expected()."""
    K = canonical_divisor(graph, 1)
    if div(graph, f) != D - m * K:
        raise DivisorMismatchError(
            f"div(f) != D - {'' if m == 1 else m}K; not a valid lemma witness")
    failed = tuple(name for name, holds in hypotheses(K) if not holds)
    if failed:
        return LemmaReport(ok=False, failed_hypotheses=failed, conclusion_holds=None)
    computed = min_locus(graph, f)
    holds = computed == expected()
    return LemmaReport(ok=holds, failed_hypotheses=(), conclusion_holds=holds,
                       computed_locus=computed)


def check_min_locus_lemma(graph: WeightedDualGraph, tree: Iterable[str],
                          eid: str, D: GraphDivisor,
                          f: PLFunction) -> LemmaReport:
    """Hypotheses: the graph is loop-free with labelled vertices, D is
    effective and equivalent to the canonical divisor via f (an exact
    requirement, raised on violation), and D's support meets the
    relative interior of every non-tree edge other than e.  Conclusion:
    the minimum locus of f is the fundamental cycle Z(tree, e)."""
    tset = _edge_set(graph, tree)

    def hypotheses(K):
        yield "loop-free", graph.is_loop_free()
        yield "spanning-tree", _kept_tree(graph, tset)
        yield "edge-outside-tree", eid not in tset
        yield from _witness_hypotheses(graph, D, f, {*tset, eid})

    return _check_lemma(graph, 1, D, f, hypotheses,
                        lambda: fundamental_cycle(graph, tset, eid))


def check_bridge_lemma(graph: WeightedDualGraph, chain: BridgeChain,
                       tree: Iterable[str], D: GraphDivisor,
                       f: PLFunction) -> LemmaReport:
    """Hypotheses: loop-free, no 1-valent vertices, chain is a maximal
    bridge chain with endpoints v1, v2, D is effective and equivalent
    to 2K via f (exact, raised on violation), D's support meets the
    interior of every non-tree edge, and D >= K - (v1) - (v2).
    Conclusion: the minimum locus of f is the chain."""
    tset = _edge_set(graph, tree)

    def hypotheses(K):
        yield "loop-free", graph.is_loop_free()
        yield "no-1-valent", not any(graph.valency(v, include_rays=False) == 1
                                     for v in graph.vertex_ids)
        yield "maximal-bridge-chain", _maximal_chain(graph, chain) is not None
        yield "spanning-tree", _kept_tree(graph, tset)
        yield from _witness_hypotheses(graph, D, f, tset)
        v1, v2 = chain.endpoints
        yield "dominates-K-minus-endpoints", D >= K - GraphDivisor.at(v1) - GraphDivisor.at(v2)

    return _check_lemma(graph, 2, D, f, hypotheses, lambda: chain.as_locus(graph))
