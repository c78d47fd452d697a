"""Command-line entry point.

Subcommands: ``fixture`` emits a named fixture graph as JSON,
``verify`` runs one of the theorem verifications, ``export-dot``
renders a graph (with an optional locus overlay) to DOT, and ``solve``
solves a Poisson problem exactly.  All I/O is JSON on files or
stdin/stdout ("-" means stdin).

Exit codes: 0 success, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import io as sio
from .errors import GraphStructureError, SkelgraphError
from .fixtures import fixture, fixture_names
from .potential import (
    bridges,
    canonical_divisor,
    is_spanning_tree,
    maximal_bridge_chains,
    solve_poisson,
)
from .skeleton import (
    essential_skeleton,
    strip_genus,
    verify_canonical_locus,
    witness_bridge_chain,
    witness_cycle,
)
from .weight import ks_skeleton, verify_laplacian_theorem

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2


def _read_json(path: str):
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        # not UTF-8, not JSON, or an integer longer than sys.get_int_max_str_digits()
        raise GraphStructureError(str(exc)) from exc


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _load_graph(path: str):
    return sio.graph_from_json(_read_json(path))


def _cmd_fixture(args) -> int:
    g = fixture(args.name, n=args.n, metric=args.metric)
    _emit(sio.graph_to_json(g))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    g = _load_graph(args.graph)
    locus = sio.locus_from_json(g, _read_json(args.locus)) if args.locus else None
    sys.stdout.write(sio.export_dot(g, locus))
    return EXIT_OK


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    target = sio.divisor_from_json(_read_json(args.divisor))
    doc = _read_json(args.ray_slopes) if args.ray_slopes else None
    slopes = {} if doc is None else sio.ray_slopes_from_json(doc)
    f = solve_poisson(g, target, ray_slopes=slopes, anchor=args.anchor)
    _emit(sio.function_to_json(f))
    return EXIT_OK


def _verify_laplacian(g, data_doc) -> dict:
    data = sio.data_from_json(data_doc)
    report = verify_laplacian_theorem(g, data)
    # the report holds Delta(wt) - mK, so Delta(wt) needs no second weight function
    lap = report.pair_discrepancy + canonical_divisor(g, data.m)
    return {
        "ok": bool(report),
        "laplacian": sio.divisor_to_json(lap),
        "detail": report.describe(),
    }


def _verify_ks(g, data_doc) -> dict:
    data = sio.data_from_json(data_doc)
    locus = ks_skeleton(g, data)
    return {"ok": True, "ks_skeleton": sio.locus_to_json(locus)}


def _verify_essential(g, data_doc) -> dict:
    skel = essential_skeleton(g)
    return {"ok": True, "essential_skeleton": sio.graph_to_json(skel)}


def _attempt(build, *args) -> dict:
    """One witness entry: the witness build(*args) made, or its error."""
    try:
        return {"ok": True, "witness": sio.witness_to_json(build(*args))}
    except SkelgraphError as exc:
        return {"ok": False, "error": str(exc)}


def _verify_min_locus(g, data_doc) -> dict:
    work = strip_genus(g)
    edge, tree = sio.min_locus_request_from_json(data_doc)
    if edge is not None:
        work.edge(edge)
        if tree is not None and (edge in tree or not is_spanning_tree(work, tree)):
            raise GraphStructureError(f"tree {tree} is not a spanning tree avoiding {edge!r}")
        eids = [edge]
    else:
        cut_edges = bridges(work)
        eids = sorted(e.id for e in work.edges if e.id not in cut_edges)
    results = {eid: _attempt(witness_cycle, work, eid, tree) for eid in eids}
    return {"ok": all(r["ok"] for r in results.values()), "edges": results}


def _verify_bridge(g, data_doc) -> dict:
    work = strip_genus(g)
    wanted = sio.bridge_request_from_json(data_doc)
    if wanted is not None:
        chains = [c for c in maximal_bridge_chains(work) if set(c.edges) == wanted]
        if not chains:
            raise SkelgraphError(f"no maximal bridge chain with edges {sorted(wanted)}")
    else:
        chains = maximal_bridge_chains(work)
    results = [{"chain": list(chain.edges), **_attempt(witness_bridge_chain, work, chain)}
               for chain in chains]
    return {"ok": all(r["ok"] for r in results), "chains": results}


def _verify_nonbridge(g, data_doc) -> dict:
    report = verify_canonical_locus(g)
    out = {
        "ok": report.ok,
        "canonical_form_locus": sio.locus_to_json(report.expected),
        "witness_union": sio.locus_to_json(report.witness_union),
    }
    if report.failed_edge is not None:
        out["failed"] = {"edge": report.failed_edge, "error": str(report.error)}
    return out


# verify subject -> handler(graph, --data document or None), in --help order
_VERIFY = {
    "laplacian": _verify_laplacian,
    "ks": _verify_ks,
    "essential": _verify_essential,
    "min-locus": _verify_min_locus,
    "bridge": _verify_bridge,
    "nonbridge": _verify_nonbridge,
}


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    data_doc = _read_json(args.data) if args.data else None
    needs_data = {"laplacian", "ks"}
    if args.subject in needs_data and data_doc is None:
        raise SkelgraphError(f"verify {args.subject} requires --data")
    report = _VERIFY[args.subject](g, data_doc)
    report["subject"] = args.subject
    report["graph"] = g.name or args.graph
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing, failed parses included, leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="skelgraph",
        description="Exact computations on weighted dual graphs of curve models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fix = sub.add_parser("fixture", help="emit a named fixture graph as JSON")
    p_fix.add_argument("name", choices=fixture_names())
    p_fix.add_argument("--n", type=int, default=None,
                       help="family parameter (chain length, cycle size, ...)")
    p_fix.add_argument("--metric", choices=["model", "stable"], default="model")
    p_fix.set_defaults(func=_cmd_fixture)

    p_ver = sub.add_parser("verify", help="run a verification and report")
    p_ver.add_argument("subject", choices=list(_VERIFY))
    p_ver.add_argument("--graph", required=True, help="graph JSON file or -")
    p_ver.add_argument("--data", default=None, help="subject-specific JSON file")
    p_ver.set_defaults(func=_cmd_verify)

    p_dot = sub.add_parser("export-dot", help="render a graph to DOT")
    p_dot.add_argument("--graph", required=True)
    p_dot.add_argument("--locus", default=None, help="locus JSON to highlight")
    p_dot.set_defaults(func=_cmd_export_dot)

    p_sol = sub.add_parser("solve", help="solve laplacian(f) = divisor exactly")
    p_sol.add_argument("--graph", required=True)
    p_sol.add_argument("--divisor", required=True)
    p_sol.add_argument("--anchor", required=True, help="vertex id with f = 0")
    p_sol.add_argument("--ray-slopes", default=None,
                       help="JSON file mapping ray labels to integer slopes")
    p_sol.set_defaults(func=_cmd_solve)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SkelgraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
