"""Record distinct calls into skelgraph, replay them on a source tree, and
compare two replays: the check that a change keeps every answer.

    python tools/replay.py record --functions laplacian,canonical_divisor \\
        --source tier1 --out calls.pickle
    python tools/replay.py record --functions verify_laplacian_theorem \\
        --source jobs:model-refinement:7 --out jobs.pickle
    git worktree add ../parent HEAD~1
    python tools/replay.py replay --calls calls.pickle --tree ../parent --out parent.pickle
    python tools/replay.py replay --calls calls.pickle --tree . --out change.pickle
    python tools/replay.py compare parent.pickle change.pickle

``record`` runs a source with the named functions wrapped under every
name that binds them in a loaded ``skelgraph`` module, so calls made
through ``from .x import f`` count too, and keeps each distinct call
(function and pickled arguments) once, in first-seen order.  A source
is ``tier1``, the tree's test suite run in process, or
``jobs:<workload>:<seed>``, one pass over the job list that
``perfbench/workloads.py`` builds for that workload and seed.  Calls
whose arguments do not pickle, or would need a module outside
``skelgraph`` and the standard library to load, are counted and
dropped.  ``record`` writes the record and then exits 1 when the
``tier1`` suite failed under recording; a job source only prints how
many of its jobs failed, since some job lists hold known failures.

``replay`` runs every recorded call on a tree in a subprocess with
``PYTHONPATH=<tree>/src`` and ``PYTHONHASHSEED=0``, so set iteration
order is the same in every replay.  Each call loads its arguments
afresh and runs twice on them, cold and then warm (an iterator among
them is loaded again for the warm run); both outcomes are kept as
fingerprints.  A call whose warm outcome differs from its cold
one answers from a kept value that changed the answer: ``replay`` then
prints the first such call and exits 1, after writing every outcome.
``compare`` prints how many calls differ for each function name, then
the first call whose fingerprints differ, and exits 1, or exits 0 when
every call agrees.

``fingerprint`` alone defines equality: each value with its type, dict
entries in insertion order with each key's ``repr`` (a read-only
``MappingProxyType`` as the dict it views), sets in iteration
order, for an error, raised or returned, its type and message, and for a
skelgraph value its ``__reduce__`` state, the arguments its constructor
is rebuilt from on ``pickle`` and ``deepcopy``, so kept values are left
out.

Standard library only; ``record`` needs pytest for ``tier1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import importlib
import io
import os
import pickle
import pkgutil
import random
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(x):
    """A nested tuple of strings that is equal for two values exactly
    when they agree in value, in the type of every part, in dict
    insertion order and key ``repr``, and in set iteration order."""
    t = type(x)
    name = f"{t.__module__}.{t.__qualname__}"
    if x is None or t in (bool, int, float, str, Fraction):
        return (name, repr(x))
    if t in (tuple, list):
        return (name, tuple(map(fingerprint, x)))
    if t is dict:
        return (name, tuple((repr(k), fingerprint(k), fingerprint(v)) for k, v in x.items()))
    if t is MappingProxyType:  # a read-only view: the dict it views
        return fingerprint(x.copy())
    if t in (set, frozenset):
        return (name, tuple(map(fingerprint, x)))
    if isinstance(x, enum.Enum):
        return (name, repr(x.value))
    if isinstance(x, Exception):
        return (name, str(x))
    if t.__module__.startswith("skelgraph.") and t.__reduce__ is not object.__reduce__:
        return (name, fingerprint(x.__reduce__()[1]))
    if dataclasses.is_dataclass(x):
        return (name, tuple(fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x)))
    raise TypeError(f"no fingerprint for a {name}")


def outcome(fn, args, kwargs):
    """The fingerprint of what ``fn(*args, **kwargs)`` returns, or of
    the type and message of the error it raises."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the error is the answer
        return ("raise", fingerprint(exc))
    return ("return", fingerprint(result))


# -- recording ---------------------------------------------------------------------


def _modules():
    """Every skelgraph module, all imported."""
    import skelgraph
    for info in pkgutil.iter_modules(skelgraph.__path__, "skelgraph."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "skelgraph" or n.startswith("skelgraph."))]


def _originals(names):
    """(module name, function) for each name, from the module that defines it."""
    modules = _modules()
    out = []
    for name in names:
        found = {getattr(m, name) for m in modules if callable(getattr(m, name, None))}
        defined = [f for f in found if getattr(f, "__module__", "").startswith("skelgraph")]
        if len(defined) != 1:
            raise SystemExit(f"no single skelgraph function named {name!r}")
        out.append((defined[0].__module__, defined[0]))
    return modules, out


class _Loader(pickle.Unpickler):
    """Loads only what skelgraph and the standard library define."""

    def find_class(self, module, name):
        top = module.partition(".")[0]
        if top != "skelgraph" and top not in sys.stdlib_module_names:
            raise pickle.UnpicklingError(f"{module}.{name} is outside skelgraph and the stdlib")
        return super().find_class(module, name)


def _load(blob):
    return _Loader(io.BytesIO(blob)).load()


def record_calls(names, run):
    """Run ``run()`` with the named functions wrapped everywhere they are
    bound, and return ``{"calls": [(module, name, blob)], "seen": n,
    "dropped": {name: n}}``: each distinct call once, in first-seen
    order, with its pickled ``(args, kwargs)``."""
    modules, originals = _originals(names)
    calls: dict = {}
    seen = [0]
    dropped = {name: 0 for name in names}
    undo = []

    def wrap(module, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seen[0] += 1
            try:
                blob = pickle.dumps((args, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
            except (pickle.PicklingError, TypeError, AttributeError):
                dropped[fn.__name__] += 1
            else:
                calls.setdefault((module, fn.__name__, blob), None)
            return fn(*args, **kwargs)
        return wrapper

    for module, fn in originals:
        wrapper = wrap(module, fn)
        for m in modules:
            for attr, value in vars(m).items():
                if value is fn:
                    undo.append((m, attr, fn))
                    setattr(m, attr, wrapper)
    try:
        run()
    finally:
        for m, attr, fn in undo:
            setattr(m, attr, fn)
    kept = []
    for call in calls:
        try:
            _load(call[2])
        except Exception:
            dropped[call[1]] += 1
        else:
            kept.append(call)
    return {"calls": kept, "seen": seen[0], "dropped": dropped}


def _run_tier1(tree: Path):
    import pytest
    code = int(pytest.main([str(tree / "tests"), "-q", "-p", "no:cacheprovider",
                            "--ignore", str(tree / "tests" / "test_replay.py")]))
    print(f"tier-1 exit status {code}", file=sys.stderr)
    return code


def _run_jobs(tree: Path, workload: str, seed: int):
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    with tempfile.TemporaryDirectory() as workdir:
        jobs = workloads.WORKLOADS[workload](random.Random(seed), False, Path(workdir))
        failed = 0
        for job in jobs:
            try:
                job.check(job.run())
            except Exception:
                failed += 1
    print(f"{len(jobs)} jobs, {failed} failed", file=sys.stderr)


def _source(source: str, tree: Path):
    if source == "tier1":
        return lambda: _run_tier1(tree)
    kind, _, rest = source.partition(":")
    workload, _, seed = rest.rpartition(":")
    if kind != "jobs" or not workload or not seed.isdigit():
        raise SystemExit(f"unknown source {source!r}: give tier1 or jobs:<workload>:<seed>")
    return lambda: _run_jobs(tree, workload, int(seed))


# -- replaying -----------------------------------------------------------------------


def run_calls(calls):
    """(cold, warm) outcomes of each call, on freshly loaded arguments,
    with the skelgraph that is imported here.  The warm run reads the
    cold run's arguments, but for an iterator, which the cold run has
    read, a fresh copy."""
    out = []
    for module, name, blob in calls:
        fn = getattr(importlib.import_module(module), name)
        try:
            args, kwargs = _load(blob)
        except Exception as exc:  # a call that no longer loads is an answer too
            out.append((("load", fingerprint(exc)),) * 2)
            continue
        cold = outcome(fn, args, kwargs)
        if any(isinstance(x, Iterator) for x in (*args, *kwargs.values())):
            again, again_kw = _load(blob)
            args = [b if isinstance(a, Iterator) else a for a, b in zip(args, again)]
            kwargs = {k: again_kw[k] if isinstance(v, Iterator) else v
                      for k, v in kwargs.items()}
        out.append((cold, outcome(fn, args, kwargs)))
    return out


def _child(tree: Path, *argv: str) -> int:
    """Run this script on the skelgraph of ``tree``; its exit status."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          env=env).returncode


def _check_tree(tree: Path):
    import skelgraph
    where = Path(skelgraph.__file__).resolve().parent
    if where != (tree.resolve() / "src" / "skelgraph"):
        raise SystemExit(f"skelgraph was imported from {where}, not from {tree}")


def _short(x, width=400):
    text = repr(x)
    return text if len(text) <= width else text[:width] + " ..."


def _digest(calls) -> str:
    h = hashlib.sha256()
    for module, name, blob in calls:
        h.update(f"{module}.{name}:{len(blob)}:".encode())
        h.update(blob)
    return h.hexdigest()


def steady(names, outcomes, out=sys.stdout) -> int:
    """Print the first call whose warm outcome differs from its cold
    one; 1 if one does."""
    differ = [i for i, (cold, warm) in enumerate(outcomes) if cold != warm]
    if not differ:
        return 0
    i = differ[0]
    module, name = names[i]
    print(f"{len(differ)} of {len(outcomes)} calls answer differently warm than cold; "
          f"the first is call {i}: {module}.{name}", file=out)
    cold, warm = outcomes[i]
    print(f"  cold: {_short(cold)}\n  warm: {_short(warm)}", file=out)
    return 1


def compare(a, b, out=sys.stdout) -> int:
    """Print how many calls two replays differ on for each function name,
    then the first such call; 1 if one differs."""
    if a["digest"] != b["digest"]:
        print("the replays ran different call records", file=out)
        return 1
    total = len(a["outcomes"])
    differ = [i for i, (x, y) in enumerate(zip(a["outcomes"], b["outcomes"])) if x != y]
    if not differ:
        print(f"all {total} calls agree, cold and warm", file=out)
        return 0
    print(f"{len(differ)} of {total} calls differ, by function:", file=out)
    for name, n in Counter(a["names"][i][1] for i in differ).items():
        print(f"  {name}: {n}", file=out)
    i = differ[0]
    module, name = a["names"][i]
    print(f"the first is call {i}: {module}.{name}", file=out)
    for label, side in (("a", a), ("b", b)):
        cold, warm = side["outcomes"][i]
        print(f"  {label} cold: {_short(cold)}", file=out)
        if warm != cold:
            print(f"  {label} warm: {_short(warm)}", file=out)
    return 1


def _read(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _write(path, value):
    with open(path, "wb") as fh:
        pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="record the distinct calls a source makes")
    rec.add_argument("--functions", required=True, help="comma-separated function names")
    rec.add_argument("--source", required=True, help="tier1 or jobs:<workload>:<seed>")
    rec.add_argument("--tree", type=Path, default=ROOT, help="source tree (default: this one)")
    rec.add_argument("--out", type=Path, required=True)
    rep = sub.add_parser("replay", help="replay recorded calls on a tree")
    rep.add_argument("--calls", type=Path, required=True)
    rep.add_argument("--tree", type=Path, required=True)
    rep.add_argument("--out", type=Path, required=True)
    cmp = sub.add_parser("compare", help="print the first call two replays differ on")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    for hidden in ("_record", "_replay"):
        sub.add_parser(hidden).add_argument("rest", nargs="*")
    args = parser.parse_args(argv)

    if args.command == "record":
        return _child(args.tree, "_record", args.functions, args.source, str(args.tree),
                      str(args.out))
    elif args.command == "_record":
        names, source, tree, out = args.rest
        tree = Path(tree)
        _check_tree(tree)
        run, status = _source(source, tree), []
        recorded = record_calls(names.split(","), lambda: status.append(run()))
        _write(out, {"functions": names.split(","), "source": source, **recorded})
        per = {}
        for _, name, _ in recorded["calls"]:
            per[name] = per.get(name, 0) + 1
        print(f"recorded {len(recorded['calls'])} distinct calls of {recorded['seen']} "
              f"made: {per}; dropped {recorded['dropped']}")
        return 1 if status[0] else 0
    elif args.command == "replay":
        return _child(args.tree, "_replay", str(args.calls), str(args.tree), str(args.out))
    elif args.command == "_replay":
        calls_path, tree, out = args.rest
        _check_tree(Path(tree))
        calls = _read(calls_path)["calls"]
        names, outcomes = [c[:2] for c in calls], run_calls(calls)
        _write(out, {"digest": _digest(calls), "names": names, "outcomes": outcomes})
        print(f"replayed {len(calls)} calls on {tree}, cold and warm")
        return steady(names, outcomes)
    else:
        return compare(_read(args.a), _read(args.b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
