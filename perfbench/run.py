"""skelgraph benchmark: one seeded workload per process, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload model-refinement --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Set-up (importing skelgraph and generating the workload's inputs from
the seed) is repeated SETUP_REPEATS times with fresh imports; setup_s is
the median and every repeat must produce the same input fingerprint.
The run is a closed loop with a single client: jobs run one at a time
in a fixed order, the next starting when the previous one has finished
and its output has been checked, and the job list is repeated whole
until ``--seconds`` of wall time have passed.  A job that raises a typed
SkelgraphError, or a CLI run that exits non-zero, counts as failed: its
time is kept, it adds no completion.  A wrong answer stops the run and
exits 1.

Times are in *reference seconds* (see speed.py): each measured interval
is rescaled by the host speed sampled around it, so that runs made
while a shared host is slow or fast agree.  The raw wall-clock figures
and the host speed are printed alongside.

``--trace 0`` reports the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` runs the job list exactly once untraced and once
traced (so call counts repeat exactly for a seed) and reports the
per-module metrics, whose times are raw seconds, plus the tracing
overhead.  ``--workload all`` runs every workload in its own fresh
process, one after another, and prints each metric by name and unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from speed import SpeedProbe  # noqa: E402
from tracing import PER_MODULE, Tracer, coverage_misses  # noqa: E402
from workloads import EXPECT, WORKLOADS, CliFailure, WrongOutput  # noqa: E402

END_TO_END = {
    "verified_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "job_max_ms": "ms",
    "pass_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_EXTRA = {
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage_misses": "count",
}


def _import_fresh():
    """Drop every loaded skelgraph module and import the package again
    from this checkout's sources."""
    for name in [n for n in sys.modules if n == "skelgraph" or n.startswith("skelgraph.")]:
        del sys.modules[name]
    import skelgraph
    import skelgraph.cli  # noqa: F401
    import skelgraph.io  # noqa: F401
    return skelgraph


def set_up(probe: SpeedProbe, workload: str, seed: int, tiny: bool, workdir: Path):
    intervals, prints = [], []
    for _ in range(SETUP_REPEATS):
        start = probe.stamp()
        sk = _import_fresh()
        jobs = WORKLOADS[workload](random.Random(seed), tiny, workdir)
        intervals.append(probe.since(start))
        payload = json.dumps([[job.kind, job.inputs()] for job in jobs], sort_keys=True)
        prints.append(hashlib.sha256(payload.encode()).hexdigest())
    if Path(sk.__file__).resolve().parent != SRC / "skelgraph":
        raise SystemExit(f"skelgraph was imported from {sk.__file__}, not {SRC}")
    if len(set(prints)) != 1:
        raise SystemExit(f"set-up is not deterministic: fingerprints {prints}")
    return jobs, intervals, prints[0], sk.SkelgraphError


class Tally:
    """Measured intervals and outcomes of the jobs run so far."""

    def __init__(self):
        self.jobs: list = []
        self.intervals: list[tuple[float, float, float]] = []
        self.failed = 0

    def add(self, job, interval, ok: bool) -> None:
        self.jobs.append(job)
        self.intervals.append(interval)
        self.failed += not ok

    def attempted(self) -> int:
        return len(self.intervals)

    def raw_s(self) -> list[float]:
        return [net for _, _, net in self.intervals]

    def reference_s(self, probe: SpeedProbe) -> list[float]:
        return [probe.to_reference(*iv) for iv in self.intervals]


def run_jobs(probe, jobs, failure_types, tally: Tally, tracer=None) -> None:
    """One pass over the job list; each output is checked after its
    timed call, with tracing paused."""
    for job in jobs:
        start = probe.stamp()
        try:
            out = job.run()
        except failure_types:
            tally.add(job, probe.since(start), False)
            continue
        tally.add(job, probe.since(start), True)
        if tracer is not None:
            tracer.paused = True
        try:
            job.check(out)
        finally:
            if tracer is not None:
                tracer.paused = False


def _summary(tally: Tally, lat: list[float]) -> dict[str, float]:
    """Latency percentiles over distinct jobs, each timed as the median
    of its passes, so that one interrupted run sets no percentile."""
    per_job: dict[int, list[float]] = {}
    for job, t in zip(tally.jobs, lat):
        per_job.setdefault(id(job), []).append(t)
    times = sorted(statistics.median(ts) for ts in per_job.values())
    return {
        "p50_ms": statistics.median(times) * 1e3,
        # on skeleton-scale (19 jobs) this lies between the third- and
        # second-slowest job
        "p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3
        if len(times) > 1 else times[0] * 1e3,
        "max_ms": times[-1] * 1e3,
        "busy_s": sum(lat),
    }


def _print_kinds(tally: Tally, lat: list[float]) -> None:
    by_kind: dict[str, list] = {}
    for job, t in zip(tally.jobs, lat):
        by_kind.setdefault(job.kind, []).append(t)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:44s} jobs {len(ts):6d}  median {statistics.median(ts) * 1e3:10.3f} ms"
              f"  max {max(ts) * 1e3:10.3f} ms")


def measure(args, probe: SpeedProbe, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    jobs, setup_intervals, fingerprint, typed_error = set_up(
        probe, args.workload, args.seed, args.scale == "tiny", workdir)
    failures = (typed_error, CliFailure)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(jobs)} jobs per pass, inputs sha256 {fingerprint}")
    if args.trace:
        untraced = Tally()
        run_jobs(probe, jobs, failures, untraced)
        with Tracer(probe) as tracer:
            run_jobs(probe, jobs, failures, tally, tracer)
        misses = coverage_misses(tracer.call_counts(), EXPECT[args.workload])
        for miss in misses:
            print(f"coverage miss: {miss}", file=sys.stderr)
        before = sum(untraced.reference_s(probe))
        after = sum(tally.reference_s(probe))
        metrics = {**tracer.metrics(), "trace.untraced_s": before, "trace.traced_s": after,
                   "trace.overhead": after / before, "trace.coverage_misses": len(misses)}
        return metrics, {**PER_MODULE, **TRACE_EXTRA}

    start = probe.stamp()
    while True:
        run_jobs(probe, jobs, failures, tally)
        if probe.stamp()[0] - start[0] >= args.seconds:
            break
    reference = tally.reference_s(probe)
    ref = _summary(tally, reference)
    raw = _summary(tally, tally.raw_s())
    _print_kinds(tally, reference)
    print(f"  raw wall clock: busy {raw['busy_s']:.3f} s, p50 {raw['p50_ms']:.4g} ms, "
          f"p90 {raw['p90_ms']:.4g} ms, max {raw['max_ms']:.4g} ms; median probe "
          f"{probe.median_probe_s() * 1e3:.4g} ms")
    done = tally.attempted() - tally.failed
    metrics = {
        "verified_per_s": done / ref["busy_s"],
        "job_p50_ms": ref["p50_ms"],
        "job_p90_ms": ref["p90_ms"],
        "job_max_ms": ref["max_ms"],
        "pass_share": done / tally.attempted(),
        "setup_s": statistics.median(probe.to_reference(*iv) for iv in setup_intervals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, END_TO_END


def run_workload(args) -> int:
    if not (SRC / "skelgraph" / "__init__.py").is_file():
        print(f"error: no skelgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    try:
        with SpeedProbe() as probe:
            try:
                metrics, units = measure(args, probe, workdir, tally)
            except WrongOutput as exc:
                print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
                result["correct"] = False
                code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run still uses it
    result["attempted"] = tally.attempted()
    result["failed"] = tally.failed
    if code == 0:
        result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        for name, m in result["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        print(f"  fail_share {tally.failed / tally.attempted():.6g} "
              f"({tally.failed} of {tally.attempted()} jobs)")
    print(json.dumps(result))
    return code


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    code, results = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
        if proc.returncode != 0 or not (results[name] or {}).get("correct"):
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = 1
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few small inputs per workload (smoke test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
