"""Where a traced run puts its spans, and the per-layer metrics they give.

Each probe wraps a public callable at the name its caller looks up: the
CLI calls ``engine.generate`` through the module while ``bench`` imported
``generate`` by name, so both ``mmsink.engine.generate`` and
``mmsink.bench.generate`` are wrapped, under one span name.
"""

from __future__ import annotations

import numpy as np

from mmsink import attnstats, bench, cachepolicy, cli, engine, losses, seqmodel

from spans import Tracer, summarize

SCALAR_WIDTH = 8  # float64 keys and values


class Probes:
    """Installs the wrappers on a tracer and keeps the counters they feed."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.peaks: dict[str, tuple[int, int]] = {}  # kind -> (entries, bytes)
        self._bench_policy = None

    def reset(self) -> None:
        self.tracer.reset()
        self.peaks = {}
        self._bench_policy = None

    def install(self) -> None:
        t, counts = self.tracer, self.tracer.counts

        def before_forward(args, kwargs):
            counts["engine.forward_step.attended_entries"] += args[1].size

        def before_push(args, kwargs):
            return args[0].size

        def after_push(args, kwargs, result, size_before):
            cache = args[0]
            evicted = size_before + 1 - cache.size
            counts["cachepolicy.evicted"] += evicted
            counts["cachepolicy.compactions"] += int(evicted > 1)
            kind = cache.policy.kind
            if cache.size > self.peaks.get(kind, (0, 0))[0]:
                self.peaks[kind] = (cache.size, cachepolicy.bytes_estimate(
                    cache.size, cache.layers, cache.heads, cache.d_head, SCALAR_WIDTH))

        def before_bench_generate(args, kwargs):
            self._bench_policy = kwargs.get("policy", args[2] if len(args) > 2 else None)

        def after_block_validity(args, kwargs, result, state):
            attempted, valid = result
            kind = self._bench_policy.kind
            counts[f"bench.blocks_attempted.{kind}"] += attempted
            counts[f"bench.blocks_valid.{kind}"] += valid

        def after_load_dump(args, kwargs, result, state):
            counts["attnstats.dump_records"] += len(result)

        def after_records(args, kwargs, result, state):
            counts["attnstats.maps"] += len(result)

        t.patch(engine, "forward_step", "engine.forward_step", before=before_forward)
        t.patch(engine, "generate", "engine.generate")
        t.patch(engine, "save_model", "engine.save_model")
        t.patch(cachepolicy.KvCache, "push", "cachepolicy.push",
                before=before_push, after=after_push)
        t.patch(seqmodel, "synth_stories", "seqmodel.synth_stories")
        t.patch(seqmodel.MultimodalSequence, "from_tokens", "seqmodel.from_tokens")
        t.patch(bench, "run_benchmark", "bench.run_benchmark")
        t.patch(bench, "generate", "engine.generate", before=before_bench_generate)
        t.patch(bench, "teacher_forced_logits", "engine.teacher_forced_logits")
        t.patch(bench, "synth_stories", "seqmodel.synth_stories")
        t.patch(bench, "block_validity", "bench.block_validity", after=after_block_validity)
        t.patch(bench, "write_report_csv", "bench.write_report")
        t.patch(bench, "write_report_json", "bench.write_report")
        t.patch(losses, "train_toy", "losses.train_toy")
        t.patch(losses, "sample_loss_and_grads", "losses.sample_loss_and_grads")
        t.patch(losses, "dataset_loss", "losses.dataset_loss")
        t.patch(attnstats, "load_dump_file", "attnstats.load_dump_file", after=after_load_dump)
        t.patch(attnstats, "records_from_dumps", "attnstats.records_from_dumps",
                after=after_records)
        t.patch(attnstats, "aggregate_occurrence", "attnstats.aggregate_occurrence")
        t.patch(attnstats, "write_occurrence_csv", "attnstats.write_csv")
        t.patch(attnstats, "write_category_csv", "attnstats.write_csv")
        for sub in ("gen", "stats", "bench", "train_toy", "validate"):
            t.patch(cli, f"cmd_{sub}", f"cli.{sub}")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans and counters recorded since reset."""
        spans = self.tracer.spans
        stats = summarize(spans)
        counts = self.tracer.counts

        def calls(name):
            return stats[name].calls if name in stats else 0

        def total_s(name):
            return stats[name].total_ns / 1e9 if name in stats else 0.0

        def self_s(name):
            return stats[name].self_ns / 1e9 if name in stats else 0.0

        def under(name, parent_name):
            return sum(s.duration_ns for s in spans if s.name == name
                       and s.parent is not None and spans[s.parent].name == parent_name) / 1e9

        step_us = [s.duration_ns / 1e3 for s in spans if s.name == "engine.forward_step"]
        p50, p99 = np.percentile(step_us, [50, 99]) if step_us else (0.0, 0.0)
        out = {
            "engine.forward_step.calls": (calls("engine.forward_step"), "count"),
            "engine.forward_step.self_s": (self_s("engine.forward_step"), "s"),
            "engine.forward_step.us_p50": (float(p50), "us"),
            "engine.forward_step.us_p99": (float(p99), "us"),
            "engine.forward_step.attended_entries":
                (counts["engine.forward_step.attended_entries"], "count"),
            "engine.generate.self_s": (self_s("engine.generate"), "s"),
            "engine.teacher_forced_logits.calls": (calls("engine.teacher_forced_logits"), "count"),
            "engine.teacher_forced_logits.s": (total_s("engine.teacher_forced_logits"), "s"),
            "engine.save_model.s": (total_s("engine.save_model"), "s"),
            "cachepolicy.push.calls": (calls("cachepolicy.push"), "count"),
            "cachepolicy.push.s": (total_s("cachepolicy.push"), "s"),
            "cachepolicy.evicted": (counts["cachepolicy.evicted"], "count"),
            "cachepolicy.compactions": (counts["cachepolicy.compactions"], "count"),
            "seqmodel.synth_stories.s": (total_s("seqmodel.synth_stories"), "s"),
            "seqmodel.from_tokens.s": (total_s("seqmodel.from_tokens"), "s"),
            "bench.run_benchmark.self_s": (self_s("bench.run_benchmark"), "s"),
            "bench.replay_s": (under("engine.teacher_forced_logits", "bench.run_benchmark"), "s"),
            "bench.free_gen_s": (under("engine.generate", "bench.run_benchmark"), "s"),
            "bench.report_write_s": (total_s("bench.write_report"), "s"),
            "losses.sample_loss_and_grads.calls": (calls("losses.sample_loss_and_grads"), "count"),
            "losses.sample_loss_and_grads.s": (total_s("losses.sample_loss_and_grads"), "s"),
            "losses.dataset_loss.s": (total_s("losses.dataset_loss"), "s"),
            "losses.train_toy.self_s": (self_s("losses.train_toy"), "s"),
            "attnstats.load_dump_file.s": (total_s("attnstats.load_dump_file"), "s"),
            "attnstats.records_from_dumps.s": (total_s("attnstats.records_from_dumps"), "s"),
            "attnstats.aggregate_occurrence.s": (total_s("attnstats.aggregate_occurrence"), "s"),
            "attnstats.write_csv_s": (total_s("attnstats.write_csv"), "s"),
            "attnstats.dump_records": (counts["attnstats.dump_records"], "count"),
            "attnstats.maps": (counts["attnstats.maps"], "count"),
            "cli.gen.self_s": (self_s("cli.gen"), "s"),
            "cli.validate.s": (total_s("cli.validate"), "s"),
        }
        for kind in cachepolicy.POLICY_KINDS:
            peak, nbytes = self.peaks.get(kind, (0, 0))
            out[f"cachepolicy.peak_entries.{kind}"] = (peak, "count")
            out[f"cachepolicy.peak_bytes.{kind}"] = (nbytes, "bytes")
            out[f"bench.blocks_attempted.{kind}"] = (counts[f"bench.blocks_attempted.{kind}"], "count")
            out[f"bench.blocks_valid.{kind}"] = (counts[f"bench.blocks_valid.{kind}"], "count")
        return out
