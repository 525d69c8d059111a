"""Benchmark for mmsink: four workloads, end-to-end metrics and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload decode-long --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One process runs one workload on one thread with BLAS pinned to one thread.
It sets up from the seed, runs one warm-up iteration, then runs timed
iterations in a closed loop until ``--seconds`` would be exceeded, checking
every iteration's outputs outside the timed region. ``--trace 0`` measures the end-to-end metrics with no
wrapper installed; ``--trace 1`` first runs untraced, then installs the
spans of ``probes.py`` and reports the per-layer metrics, including the
tracing overhead. The second-to-last line of stdout is a JSON detail record
(every metric with its unit, operation counts, provenance); the last line
is the JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the latter holding exactly the metrics ``BENCHMARK.json`` declares for the
mode. ``--workload all`` runs each workload in a fresh process and prints
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for the mode."""
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mmsink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload's iterations and keeps the operation counts."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    def iterate(self, run=None) -> tuple[float, object]:
        """One timed iteration plus its checks; returns (seconds, Iteration).

        ``run`` replaces the plain call of ``workload.run`` (a traced run
        passes one that opens a span around it).
        """
        run = run or self.workload.run
        t0 = time.perf_counter()
        try:
            it = run(self.workdir)
        except Exception:
            dt = time.perf_counter() - t0
            self.durations.append(dt)
            self.attempted += 1
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return dt, None
        dt = time.perf_counter() - t0
        self.durations.append(dt)
        first = self.reference is None
        try:
            problems = self.workload.check(it, first)
        except Exception:
            problems = {op: [traceback.format_exc(limit=3)] for op in it.ops}
        if first:
            self.reference = dict(it.identity)
        for op, value in it.identity.items():
            if value != self.reference.get(op):
                problems.setdefault(op, []).append("output differs from the first iteration")
        for op in it.ops:
            self.attempted += 1
            if problems.get(op):
                self.failed += 1
                self.problems.extend(f"{op}: {p}" for p in problems[op])
        return dt, it

    def loop(self, seconds: float, run=None) -> list[tuple[float, object]]:
        """Iterate until the next iteration would end past ``seconds``."""
        start = time.perf_counter()
        done = []
        while True:
            done.append(self.iterate(run))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(done) > seconds:
                return done


def iteration_metrics(done) -> dict[str, tuple[float, str]]:
    """Median over iterations of each workload-specific metric."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for _, it in done:
        for name, (value, unit) in (it.metrics if it else {}).items():
            values.setdefault(name, []).append(value)
            units[name] = unit
    return {name: (median(v), units[name]) for name, v in values.items()}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import mmsink and set up.

    No timeout is passed: with one, ``subprocess`` polls the child in sleeps
    of up to 50 ms, which would round every measurement to that grid.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_untraced(runner: Runner, args) -> dict:
    setup_times = measure_setup(args.workload, args.seed)
    runner.workload.setup(args.seed)
    runner.iterate()  # warm-up, checked but not timed
    done = runner.loop(args.seconds)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median([dt for dt, _ in done]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update(iteration_metrics(done))
    return metrics


def run_traced(runner: Runner, args) -> dict:
    from probes import Probes
    from spans import Tracer, self_times_ns

    runner.workload.setup(args.seed)
    runner.iterate()  # warm-up, checked but not timed
    untraced = runner.loop(args.seconds / 2)
    tracer = Tracer()
    probes = Probes(tracer)
    units = []

    def traced_unit(workdir):
        probes.reset()
        tracer.call("setup", runner.workload.setup, args.seed)
        return tracer.call("iteration", runner.workload.run, workdir)

    probes.install()
    try:
        start = time.perf_counter()
        while True:
            _, it = runner.iterate(traced_unit)
            roots = [i for i, s in enumerate(tracer.spans)
                     if s.name == "iteration" and s.parent is None]
            unit = probes.metrics()
            own = self_times_ns(tracer.spans)
            unit["trace.wall_s"] = (sum(tracer.spans[i].duration_ns for i in roots) / 1e9, "s")
            unit["trace.unattributed_s"] = (sum(own[i] for i in roots) / 1e9, "s")
            units.append(unit)
            elapsed = time.perf_counter() - start
            if it is None or elapsed + elapsed / len(units) > args.seconds / 2:
                break
    finally:
        tracer.restore()
    # median_low keeps counts whole: they repeat exactly from unit to unit.
    metrics = {name: (statistics.median_low([u[name][0] for u in units]), unit)
               for name, (_, unit) in units[0].items()}
    untraced_wall = median([dt for dt, _ in untraced])
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric with its unit."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed with exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        ops = detail["operations"]
        print(f"{name}: correct={result['correct']} attempted={ops['attempted']} "
              f"failed={ops['failed']} iterations={detail['iterations']}")
        for metric, entry in sorted(detail["metrics"].items()):
            print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (timed by the parent)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])

    if not (SRC / "mmsink" / "__init__.py").is_file():
        print(f"error: no mmsink sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported, here and in children
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup(args.seed)
        return 0

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workload, workdir)
        metrics = run_traced(runner, args) if args.trace else run_untraced(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        rate = runner.failed / runner.attempted if runner.attempted else 1.0
        metrics["error_rate"] = (rate, "ratio")

    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "iterations": len(runner.durations),
        "iteration_s": runner.durations,
        "operations": {"attempted": runner.attempted,
                       "succeeded": runner.attempted - runner.failed,
                       "failed": runner.failed},
        "problems": runner.problems[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "provenance": provenance(args.seed),
    }
    declared = declared_metrics(bool(args.trace))
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
