"""Per-module tracing from outside the package.

The tracer wraps a fixed list of public skelgraph functions and binds
each wrapper under every name that refers to the original in any
loaded ``skelgraph`` module.  Modules that import a function with
``from .x import f`` hold their own reference (``skeleton`` binds
``solve_poisson`` and ``reduce_divisor``, ``cli`` binds
``witness_cycle``), so patching only the defining module would miss
those calls.

Each wrapped call is a span; a span's self time is its duration minus
the time of the wrapped calls made inside it.  Spans are folded into
per-function totals as they close, so memory stays flat however many
calls a run makes.  ``plfunction``, ``divisors`` and ``loci`` are value
types called millions of times; they are not wrapped, and their cost
lands in the self time of their callers.
"""

from __future__ import annotations

import functools
import sys

# (module, function) pairs wrapped in a traced run, grouped by layer.
TRACED = (
    ("graphs", "distance"), ("graphs", "vertex_distances"), ("graphs", "refine"),
    ("models", "apply_blowups"), ("models", "verify_metric_invariance"),
    ("weight", "verify_laplacian_theorem"), ("weight", "ks_skeleton"),
    ("potential", "solve_poisson"), ("potential", "reduce_divisor"),
    ("potential", "laplacian"), ("potential", "min_locus"),
    ("potential", "check_min_locus_lemma"), ("potential", "check_bridge_lemma"),
    ("potential", "all_spanning_trees"), ("potential", "bridges"),
    ("skeleton", "witness_cycle"), ("skeleton", "witness_bridge_chain"),
    ("skeleton", "canonical_form_locus"),
    ("io", "graph_from_json"), ("io", "witness_to_json"), ("io", "locus_to_json"),
    ("cli", "main"),
)

# Reported per-module metrics and their units.  Times are raw seconds net
# of the speed probe (speed.py).
PER_MODULE = {
    "graphs.distance.calls": "count",
    "graphs.distance.self_s": "s",
    "graphs.vertex_distances.calls": "count",
    "graphs.vertex_distances.self_s": "s",
    "graphs.refine.self_s": "s",
    "models.apply_blowups.self_s": "s",
    "models.verify_metric_invariance.self_s": "s",
    "models.verify_metric_invariance.pairs": "count",
    "weight.verify_laplacian_theorem.self_s": "s",
    "weight.ks_skeleton.self_s": "s",
    "potential.solve_poisson.calls": "count",
    "potential.solve_poisson.self_s": "s",
    "potential.solve_poisson.max_ms": "ms",
    "potential.solve_poisson.dim": "count_computed",
    "potential.reduce_divisor.calls": "count",
    "potential.reduce_divisor.self_s": "s",
    "potential.reduce_divisor.max_ms": "ms",
    "potential.reduce_divisor.fail": "count",
    "potential.laplacian.calls": "count",
    "potential.laplacian.self_s": "s",
    "potential.min_locus.self_s": "s",
    "potential.check_min_locus_lemma.self_s": "s",
    "potential.check_bridge_lemma.self_s": "s",
    "potential.all_spanning_trees.self_s": "s",
    "potential.all_spanning_trees.trees": "count",
    "potential.bridges.self_s": "s",
    "skeleton.witness_cycle.calls": "count",
    "skeleton.witness_cycle.self_s": "s",
    "skeleton.witness_cycle.fail": "count",
    "skeleton.witness_bridge_chain.calls": "count",
    "skeleton.witness_bridge_chain.self_s": "s",
    "skeleton.witness_bridge_chain.fail": "count",
    "skeleton.canonical_form_locus.self_s": "s",
    "io.graph_from_json.self_s": "s",
    "io.witness_to_json.self_s": "s",
    "io.locus_to_json.self_s": "s",
    "cli.main.self_s": "s",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.2": "count",
}


class FunctionStats:
    __slots__ = ("calls", "self_s", "max_s", "fail", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0
        self.fail = 0
        self.extra: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def raise_to(self, key: str, value: int) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)


def _solve_poisson_dim(stats, args, kwargs, result):
    """Size of the dense system solve_poisson sets up, computed from the
    call's public inputs: the vertex count plus the distinct interior
    edge points of the target's support and of the anchor."""
    graph = args[0]
    target = args[1] if len(args) > 1 else kwargs["target"]
    anchor = args[3] if len(args) > 3 else kwargs.get("anchor")
    points = list(target.support)
    if anchor is not None:
        points.append(anchor)
    interior = set()
    for p in points:
        p = graph.check_point(p)
        if p.kind == "edge":
            interior.add((p.where, p.offset))
    stats.raise_to("dim", len(graph.vertex_ids) + len(interior))


def _invariance_pairs(stats, args, kwargs, result):
    stats.add("pairs", result.checked_pairs)


def _tree_count(stats, args, kwargs, result):
    stats.add("trees", len(result))


def _cli_exit(stats, args, kwargs, result):
    stats.add(f"exit.{result}", 1)


OBSERVERS = {
    "potential.solve_poisson": _solve_poisson_dim,
    "models.verify_metric_invariance": _invariance_pairs,
    "potential.all_spanning_trees": _tree_count,
    "cli.main": _cli_exit,
}


class Tracer:
    """Wraps the TRACED functions of the currently imported skelgraph.

    Use as a context manager: entering binds the wrappers, leaving puts
    the originals back.  Spans are timed on the speed probe's clock, so
    probe time is never charged to a function.  ``paused`` lets output
    checks call wrapped functions without being counted."""

    def __init__(self, probe):
        self.probe = probe
        self.stats = {f"{m}.{f}": FunctionStats() for m, f in TRACED}
        self.paused = False
        self._children: list[list[float]] = []
        self._bound: list[tuple[object, str, object]] = []
        self._fail_type = sys.modules["skelgraph.errors"].SkelgraphError

    def _wrap(self, name, fn):
        stats = self.stats[name]
        observe = OBSERVERS.get(name)
        children = self._children
        fail_type = self._fail_type
        stamp, since = self.probe.stamp, self.probe.since
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            inner = [0.0]
            children.append(inner)
            start = stamp()
            try:
                result = fn(*args, **kwargs)
            except fail_type:
                stats.fail += 1
                raise
            finally:
                dt = since(start)[2]
                children.pop()
                if children:
                    children[-1][0] += dt
                stats.calls += 1
                stats.self_s += dt - inner[0]
                if dt > stats.max_s:
                    stats.max_s = dt
            if observe is not None:
                observe(stats, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "skelgraph" or n.startswith("skelgraph."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"skelgraph.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()
        return False

    def metrics(self) -> dict[str, float]:
        """Every PER_MODULE metric, read off the accumulated stats."""
        out = {}
        for name in PER_MODULE:
            fn, _, field = name.rpartition(".")
            if fn == "cli.exit":
                out[name] = self.stats["cli.main"].extra.get(f"exit.{field}", 0)
                continue
            stats = self.stats[fn]
            if field == "calls":
                out[name] = stats.calls
            elif field == "self_s":
                out[name] = stats.self_s
            elif field == "max_ms":
                out[name] = stats.max_s * 1e3
            elif field == "fail":
                out[name] = stats.fail
            else:
                out[name] = stats.extra.get(field, 0)
        return out

    def call_counts(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}


def coverage_misses(counts: dict[str, int], expect: dict[str, str]) -> list[str]:
    """Wrapped functions whose call count contradicts the workload's
    prediction: 'work' needs at least one call, 'none' needs zero."""
    misses = []
    for name, want in sorted(expect.items()):
        n = counts[name]
        if (want == "work" and n == 0) or (want == "none" and n != 0):
            misses.append(f"{name}: expected {want}, saw {n} calls")
    return misses
