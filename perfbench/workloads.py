"""The four benchmark workloads.

Each workload builds its inputs from one workload seed in :meth:`setup`,
runs one iteration in :meth:`run` (the timed region, a closed loop: each
call starts when the previous one has returned) and checks the iteration's
outputs in :meth:`check`, outside the timed region. The library is reached
only through its public functions and ``mmsink.cli.main``; every callable
is looked up on its module at call time, so a traced run sees the same
calls through its wrappers.

The profile is ``desk`` with a fresh seeded model: ``ModelConfig``'s
defaults are the desk profile's values.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

from mmsink import bench, cli, engine, seqmodel
from mmsink.cachepolicy import CachePolicy

WINDOW, N_SINK, K_HEAD, K_TAIL = 64, 4, 1, 2
BOI_EVERY = 24
POLICIES = {
    "dense": CachePolicy.dense(),
    "window": CachePolicy.windowed(WINDOW),
    "sink": CachePolicy.sink(N_SINK, WINDOW),
    "mmsink": CachePolicy.mmsink(N_SINK, K_HEAD, K_TAIL, WINDOW),
}


@dataclass
class Iteration:
    """What one timed iteration produced.

    ``ops`` names the operations attempted, in order. ``outputs`` holds what
    the checks need and ``identity`` what must repeat exactly on every
    iteration of one seed. ``metrics`` are workload-specific end-to-end
    figures as ``name -> (value, unit)``.
    """

    ops: list[str]
    outputs: dict = field(default_factory=dict)
    identity: dict = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI subcommand in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def file_bytes(*paths) -> tuple[bytes, ...]:
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return tuple(out)


def desk_prompt(model: engine.Model, prompt_seed: int) -> seqmodel.MultimodalSequence:
    """A one-item prompt, built the way the CLI builds it."""
    cfg = model.config
    story = seqmodel.synth_stories(1, items_per_story=1, rng_seed=prompt_seed,
                                   d_feat=cfg.d_feat)[0]
    return seqmodel.prompt_sequence(story, 1, m=cfg.m, v_text=cfg.v_text)


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run(self, workdir: str) -> Iteration:
        raise NotImplementedError

    def check(self, it: Iteration, first: bool) -> dict[str, list[str]]:
        """Problems per operation name; empty lists mean the op passed.

        ``first`` marks the first iteration of the seed, whose outputs get
        the full checks; later iterations must reproduce its ``identity``.
        """
        raise NotImplementedError


class DecodeLong(Workload):
    name = "decode-long"

    def __init__(self, steps: int = 2048):
        self.steps = steps

    def setup(self, seed: int) -> None:
        self.model = engine.Model.init(engine.ModelConfig(seed=seed))
        self.prompt = desk_prompt(self.model, seed + 1)
        self.sample_seed = seed + 2

    def run(self, workdir: str) -> Iteration:
        it = Iteration(ops=[])
        for name, policy in POLICIES.items():
            t0 = time.perf_counter()
            result = engine.generate(
                self.model, self.prompt, policy, self.steps,
                mode="constrained", seed=self.sample_seed, boi_every=BOI_EVERY,
            )
            dt = time.perf_counter() - t0
            it.ops.append(name)
            it.outputs[name] = result
            it.identity[name] = tuple(seqmodel.token_label(t) for t in result.tokens)
            it.metrics[f"tok_s.{name}"] = (len(result.generated) / dt, "tok/s")
        return it

    def check(self, it: Iteration, first: bool) -> dict[str, list[str]]:
        problems = {}
        for name in it.ops:
            result = it.outputs[name]
            bad = []
            if result.sequence is None or result.trace.violations:
                bad.append(f"invalid sequence, violations {result.trace.violations[:3]}")
            if name in ("window", "sink") and result.peak_entries != WINDOW:
                bad.append(f"peak {result.peak_entries}, expected {WINDOW}")
            if name == "dense":
                expected = len(self.prompt) + len(result.generated)
                if result.peak_entries != expected:
                    bad.append(f"peak {result.peak_entries}, expected {expected}")
            problems[name] = bad
        return problems


class ReplayCompare(Workload):
    name = "replay-compare"

    def __init__(self, steps: int = 1024):
        self.steps = steps

    def setup(self, seed: int) -> None:
        self.seed = seed
        model = engine.Model.init(engine.ModelConfig(seed=seed))
        prompt = desk_prompt(model, seed)
        self.trajectory = bench.synthetic_trajectory(prompt, self.steps, seed,
                                                     model.config.v_text)

    def run(self, workdir: str) -> Iteration:
        report = os.path.join(workdir, "bench.csv")
        report_json = os.path.join(workdir, "bench.json")
        rc_bench, err_bench = cli_call([
            "bench", "--profile", "desk", "--seed", self.seed, "--steps", self.steps,
            "--report", report, "--json", report_json,
        ])
        rc_validate, err_validate = cli_call(["validate", report, report_json])
        it = Iteration(ops=["bench", "validate"])
        it.outputs = {"rc": (rc_bench, rc_validate), "err": err_bench + err_validate,
                      "report": report}
        if rc_bench == 0:
            it.identity["bench"] = file_bytes(report, report_json)
        return it

    def check(self, it: Iteration, first: bool) -> dict[str, list[str]]:
        rc_bench, rc_validate = it.outputs["rc"]
        bad_bench = [] if rc_bench == 0 else [f"exit {rc_bench}: {it.outputs['err'][-200:]}"]
        if rc_bench == 0 and first:
            with open(it.outputs["report"], encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            dense = [r for r in rows if r["policy"] == "dense"]
            if not dense or any(float(r["max_logit_diff"]) != 0.0 for r in dense):
                bad_bench.append("dense rows must have max_logit_diff == 0")
            if any(int(r["peak_entries"]) != len(self.trajectory) for r in dense):
                bad_bench.append(f"dense peak must equal the trajectory length {len(self.trajectory)}")
        bad_validate = [] if rc_validate == 0 else [f"validate exit {rc_validate}"]
        return {"bench": bad_bench, "validate": bad_validate}


class TrainToy(Workload):
    name = "train-toy"

    # Each story is trained on at a seeded random length of 1..items items,
    # so the work per iteration depends on the seed. Over ten seeds, the
    # inter-quartile range of the tokens through forward and backward passes
    # was 13% of the median with 20 stories and 7% with 80.
    def __init__(self, steps: int = 200, stories: int = 80, items: int = 4):
        self.steps, self.stories, self.items = steps, stories, items

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.config = engine.ModelConfig(seed=seed)
        # The CLI call rebuilds these from the same seed; building them here
        # puts story synthesis into the set-up measurement.
        engine.Model.init(self.config)
        seqmodel.synth_stories(self.stories, items_per_story=self.items,
                               rng_seed=seed, d_feat=self.config.d_feat)

    def run(self, workdir: str) -> Iteration:
        model_out = os.path.join(workdir, "model.json")
        curve_out = os.path.join(workdir, "curve.csv")
        t0 = time.perf_counter()
        rc, err = cli_call([
            "train-toy", "--profile", "desk", "--seed", self.seed, "--steps", self.steps,
            "--synth-stories", self.stories, "--synth-len", self.items,
            "--model-out", model_out, "--curve-out", curve_out,
        ])
        dt = time.perf_counter() - t0
        it = Iteration(ops=["train-toy"])
        it.outputs = {"rc": rc, "err": err, "model": model_out, "curve": curve_out}
        it.metrics["train_steps_s"] = (self.steps / dt, "1/s")
        if rc == 0:
            it.identity["train-toy"] = file_bytes(model_out, curve_out)
        return it

    def check(self, it: Iteration, first: bool) -> dict[str, list[str]]:
        if it.outputs["rc"] != 0:
            return {"train-toy": [f"exit {it.outputs['rc']}: {it.outputs['err'][-200:]}"]}
        bad = []
        if first:
            with open(it.outputs["curve"], encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.steps:
                bad.append(f"curve has {len(rows)} rows, expected {self.steps}")
            if not all(math.isfinite(float(r[k])) for r in rows for k in ("ce", "img", "combined")):
                bad.append("curve has a non-finite loss")
            rc, err = cli_call(["validate", it.outputs["model"], it.outputs["curve"]])
            if rc != 0:
                bad.append(f"validate exit {rc}: {err[-200:]}")
            with open(it.outputs["model"], encoding="utf-8") as fh:
                if json.load(fh)["config"]["seed"] != self.config.seed:
                    bad.append("model was not built from the workload seed")
        return {"train-toy": bad}


class AttnStats(Workload):
    name = "attn-stats"

    def __init__(self, steps: int = 1024):
        self.steps = steps

    def setup(self, seed: int) -> None:
        self.seed = seed
        model = engine.Model.init(engine.ModelConfig(seed=seed))
        self.maps = model.config.layers * model.config.heads
        self.prompt_len = len(desk_prompt(model, seed))

    def run(self, workdir: str) -> Iteration:
        dump = os.path.join(workdir, "dump.jsonl")
        gen_out = os.path.join(workdir, "gen.jsonl")
        occ = os.path.join(workdir, "occurrence.csv")
        cat = os.path.join(workdir, "categories.csv")
        rc_gen, err_gen = cli_call([
            "gen", "--profile", "desk", "--policy", "mmsink", "--seed", self.seed,
            "--steps", self.steps, "--boi-every", BOI_EVERY,
            "--attn-dump", dump, "--out", gen_out,
        ])
        t0 = time.perf_counter()
        rc_stats, err_stats = cli_call(["stats", "--profile", "desk", "--dumps", dump,
                                        "--occ-out", occ, "--cat-out", cat])
        dt = time.perf_counter() - t0
        it = Iteration(ops=["gen", "stats"])
        it.outputs = {"rc": (rc_gen, rc_stats), "err": err_gen + err_stats,
                      "gen": gen_out, "occ": occ, "cat": cat}
        it.metrics["stats_s"] = (dt, "s")
        if rc_gen == 0:
            it.metrics["dump_mb"] = (os.path.getsize(dump) / 1e6, "MB")
        if rc_stats == 0:
            it.identity["stats"] = file_bytes(occ, cat)
        return it

    def check(self, it: Iteration, first: bool) -> dict[str, list[str]]:
        rc_gen, rc_stats = it.outputs["rc"]
        err = it.outputs["err"][-200:]
        bad_gen = [] if rc_gen == 0 else [f"gen exit {rc_gen}: {err}"]
        bad_stats = [] if rc_stats == 0 else [f"stats exit {rc_stats}: {err}"]
        if first and rc_gen == 0:
            with open(it.outputs["gen"], encoding="utf-8") as fh:
                record = json.loads(fh.readline())
            expected = self.prompt_len + self.steps + record["forced_completion_steps"]
            if not record["valid"] or record["violations"] or len(record["labels"]) != expected:
                bad_gen.append("generation record is invalid or has the wrong length")
        if first and rc_stats == 0:
            with open(it.outputs["cat"], encoding="utf-8") as fh:
                shares = [float(r["share"]) for r in csv.DictReader(fh)]
            if abs(sum(shares) - 1.0) > 1e-12:
                bad_stats.append(f"category shares sum to {sum(shares)!r}")
            with open(it.outputs["occ"], encoding="utf-8") as fh:
                counts = [int(r["count"]) for r in csv.DictReader(fh)]
            if not counts or max(counts) > self.maps:
                bad_stats.append(f"occurrence counts exceed the {self.maps} maps")
        return {"gen": bad_gen, "stats": bad_stats}


WORKLOADS = {w.name: w for w in (DecodeLong, ReplayCompare, TrainToy, AttnStats)}
