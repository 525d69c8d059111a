"""Self-tests for the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import argparse
import json

import pytest

import run
import workloads
from mmsink import attnstats, bench, cachepolicy, cli, engine, losses, seqmodel
from probes import Probes
from spans import Span, Tracer, self_times_ns, summarize

TINY = {
    "decode-long": lambda: workloads.DecodeLong(steps=80),
    "replay-compare": lambda: workloads.ReplayCompare(steps=80),
    "train-toy": lambda: workloads.TrainToy(steps=3, stories=3, items=2),
    "attn-stats": lambda: workloads.AttnStats(steps=40),
}
OWNERS = (engine, bench, cachepolicy.KvCache, seqmodel, seqmodel.MultimodalSequence,
          losses, attnstats, cli)


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0),
        Span("leaf", 15, 25, 1),
        Span("b", 50, 90, 0),
        Span("a", 92, 97, 0),
    ]
    assert self_times_ns(spans) == [25, 20, 10, 40, 5]
    assert sum(self_times_ns(spans)) == spans[0].duration_ns
    stats = summarize(spans)
    assert (stats["a"].calls, stats["a"].total_ns, stats["a"].self_ns) == (2, 35, 25)


def test_tracer_nests_spans_and_keeps_staticmethods():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        def outer(self, x):
            return Owner.inner(x) * 2

    tracer = Tracer()
    tracer.patch(Owner, "inner", "inner")
    tracer.patch(Owner, "outer", "outer", after=lambda a, k, r, s: tracer.counts.update(out=r))
    assert isinstance(vars(Owner)["inner"], staticmethod)
    assert Owner().outer(3) == 8
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counts["out"] == 8
    tracer.restore()
    assert Owner().outer(3) == 8 and len(tracer.spans) == 2


def test_probes_restore_every_original():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = Tracer()
    Probes(tracer).install()
    patched = [dict(vars(owner)) for owner in OWNERS]
    assert patched != before
    assert bench.generate.__wrapped__ is before[1]["generate"]
    tracer.restore()
    after = [dict(vars(owner)) for owner in OWNERS]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(old[k] is new[k] for k in old)


def test_a_failed_check_counts_as_a_failed_operation(tmp_path):
    class Broken(workloads.Workload):
        def setup(self, seed):
            pass

        def run(self, workdir):
            return workloads.Iteration(ops=["good", "bad"], identity={"good": 1})

        def check(self, it, first):
            return {"good": [], "bad": ["wrong output"]}

    runner = run.Runner(Broken(), str(tmp_path))
    runner.iterate()
    runner.iterate()
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.problems[0] == "bad: wrong output"


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_its_checks_traced_and_untraced(name, tmp_path):
    workload = TINY[name]()
    workload.setup(3)
    runner = run.Runner(workload, str(tmp_path))
    runner.iterate()
    tracer = Tracer()
    probes = Probes(tracer)
    probes.install()
    try:
        runner.iterate()
        metrics = probes.metrics()
    finally:
        tracer.restore()
    runner.iterate()
    assert runner.failed == 0, runner.problems
    assert runner.attempted >= 3
    assert metrics["engine.forward_step.calls"][0] == metrics["cachepolicy.push.calls"][0]
    if name == "replay-compare":
        assert metrics["engine.teacher_forced_logits.calls"][0] == 5


def test_traced_run_emits_every_declared_per_layer_metric(tmp_path):
    args = argparse.Namespace(seed=1, seconds=0.0, workload="attn-stats")
    runner = run.Runner(TINY["attn-stats"](), str(tmp_path))
    metrics = run.run_traced(runner, args)
    declared = run.declared_metrics(trace=True)
    assert set(declared) <= set(metrics)
    assert all(metrics[name][1] == unit for name, unit in declared.items())
    assert metrics["attnstats.maps"][0] == 4
    own = metrics["trace.wall_s"][0] - metrics["trace.unattributed_s"][0]
    assert 0 < own <= metrics["trace.wall_s"][0]
    assert runner.failed == 0, runner.problems


def test_benchmark_json_matches_the_untraced_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.declared_metrics(trace=False)) == {"setup_s", "wall_s", "peak_rss_mb"}
