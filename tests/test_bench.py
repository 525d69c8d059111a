"""Benchmark harness: divergence, entry counts, reports, time profiles."""

import dataclasses
import json

import numpy as np
import pytest

from mmsink import bench, engine
from mmsink import seqmodel as sq
from mmsink.bench import (
    POLICY_FIELDS,
    check_report,
    run_benchmark,
    synthetic_trajectory,
    write_report_csv,
    write_report_json,
)
from mmsink.cachepolicy import CachePolicy
from mmsink.cli import main
from mmsink.engine import Model, ModelConfig
from mmsink.errors import ConfigError
from mmsink.oracle import brute_block_validity
from mmsink.seqmodel import TokenKind

from conftest import all_policies, per_token_time_profile


@pytest.fixture(scope="module")
def bench_model():
    cfg = ModelConfig(layers=2, heads=2, d_model=32, d_ff=64, v_text=64, m=8,
                      q_queries=2, d_feat=8, max_positions=2048, seed=1)
    return Model.init(cfg)


@pytest.fixture(scope="module")
def bench_prompt(bench_model):
    story = sq.synth_stories(1, items_per_story=1, rng_seed=0,
                             d_feat=bench_model.config.d_feat)[0]
    return sq.prompt_sequence(story, 1, m=8, v_text=64)


@pytest.fixture(scope="module")
def desk_report(bench_model, bench_prompt):
    return run_benchmark(bench_model, bench_prompt, all_policies(64, n_sink=4),
                         total_steps=256, seed=0)


@pytest.fixture(scope="module")
def timed_desk_report(bench_model, bench_prompt):
    """The run of ``desk_report`` with wall timing and one free run per policy."""
    return run_benchmark(bench_model, bench_prompt, all_policies(64, n_sink=4),
                         total_steps=256, repeats=1, seed=0, timing=True)


class TestSyntheticTrajectory:
    def test_prepends_prompt_and_hits_length(self, bench_prompt):
        tokens = synthetic_trajectory(bench_prompt, 300, seed=0, v_text=64)
        assert tokens[: len(bench_prompt)] == list(bench_prompt.tokens)
        assert len(tokens) == len(bench_prompt) + 300

    def test_contains_enough_blocks(self, bench_prompt):
        tokens = synthetic_trajectory(bench_prompt, 300, seed=0, v_text=64)
        boi = sum(1 for t in tokens if t.kind is TokenKind.BOI)
        assert boi >= 4


class TestRunBenchmark:
    def test_memory_relation_ordering(self, desk_report):
        by_name = {r["policy"]: r for r in desk_report["policies"]}
        assert by_name["dense"]["peak_entries"] > by_name["mmsink"]["peak_entries"]
        assert by_name["mmsink"]["peak_entries"] > by_name["sink"]["peak_entries"]
        assert by_name["sink"]["peak_entries"] == by_name["window"]["peak_entries"] == 64

    def test_dense_divergence_zero(self, desk_report):
        dense = next(r for r in desk_report["policies"] if r["policy"] == "dense")
        for d in dense["divergence"]:
            assert d["max_logit_diff"] == 0.0 and d["kl"] == 0.0

    def test_divergences_non_negative(self, desk_report):
        for r in desk_report["policies"]:
            for d in r["divergence"]:
                assert d["max_logit_diff"] >= 0.0
                assert d["kl"] >= -1e-12

    def test_validity_rate_in_unit_interval(self, timed_desk_report):
        for r in timed_desk_report["policies"]:
            assert r["validity"] is None or 0.0 <= r["validity"] <= 1.0

    def test_validity_is_null_where_no_block_was_attempted(self, tiny_config):
        # model seed 6: the free window and sink runs generate no begin marker,
        # the dense and mmsink runs several, and none completes a block
        model = Model.init(dataclasses.replace(tiny_config, seed=6))
        story = sq.synth_stories(1, items_per_story=1, rng_seed=0, d_feat=4)[0]
        prompt = sq.prompt_sequence(story, 1, m=4, v_text=12)
        report = run_benchmark(model, prompt, all_policies(16), total_steps=64, repeats=1,
                               seed=0, timing=True)
        assert {r["policy"]: r["validity"] for r in report["policies"]} == {
            "dense": 0.0, "window": None, "sink": None, "mmsink": 0.0}

    def test_untimed_report_is_the_timed_one_without_free_runs(self, bench_model, bench_prompt,
                                                               timed_desk_report):
        untimed = run_benchmark(bench_model, bench_prompt, all_policies(64, n_sink=4),
                                total_steps=256, repeats=1, seed=0)
        assert all(r["mean_tok_s"] is None and r["validity"] is None for r in untimed["policies"])

        def without_free_runs(report):
            return {**report, "timing": None, "policies": [
                {**r, "mean_tok_s": None, "validity": None} for r in report["policies"]]}

        def divergence_bits(report):
            return [[(d["t"], d["max_logit_diff"].hex(), d["kl"].hex()) for d in r["divergence"]]
                    for r in report["policies"]]

        assert without_free_runs(untimed) == without_free_runs(timed_desk_report)
        assert divergence_bits(untimed) == divergence_bits(timed_desk_report)

    def test_bytes_follow_entry_counts(self, desk_report, bench_model):
        c = bench_model.config
        per_entry = c.layers * c.heads * 2 * c.d_head * 8
        for r in desk_report["policies"]:
            assert r["bytes"] == r["peak_entries"] * per_entry

    def test_all_divergence_zero_when_run_fits_window(self, bench_model, bench_prompt):
        # precondition total_steps > w relaxed deliberately: everything fits
        policies = [CachePolicy.windowed(512), CachePolicy.sink(4, 512),
                    CachePolicy.mmsink(4, 1, 2, 512)]
        report = run_benchmark(bench_model, bench_prompt, policies,
                               total_steps=48, seed=0)
        for r in report["policies"]:
            for d in r["divergence"]:
                assert d["max_logit_diff"] == 0.0
                assert d["kl"] == 0.0

    def test_repeats_do_not_change_functional_fields(self, bench_model, bench_prompt):
        policies = [CachePolicy.windowed(32), CachePolicy.mmsink(4, 1, 2, 32)]
        a = run_benchmark(bench_model, bench_prompt, policies, total_steps=64,
                          repeats=1, seed=3)
        b = run_benchmark(bench_model, bench_prompt, policies, total_steps=64,
                          repeats=3, seed=3)
        assert a["policies"] == b["policies"]

    def test_invalid_policy_rejected_before_running(self, bench_model, bench_prompt):
        bad = CachePolicy.mmsink(2, 5, 5, 32)  # anchors exceed m=8
        with pytest.raises(ConfigError):
            run_benchmark(bench_model, bench_prompt, [bad], total_steps=16)

    def test_checkpoint_validation(self, bench_model, bench_prompt):
        with pytest.raises(ConfigError):
            run_benchmark(bench_model, bench_prompt, [CachePolicy.dense()],
                          total_steps=8, checkpoints=[10_000])

    def test_position_overflow_rejected_before_running(self, bench_model, bench_prompt,
                                                        monkeypatch):
        # any forward pass would fail: decode steps and the replay both run block
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        steps = 2049 - len(bench_prompt)
        expected = rf"{len(bench_prompt)} prompt \+ {steps} steps .*\(2048\)"
        with pytest.raises(ConfigError, match=expected):
            run_benchmark(bench_model, bench_prompt, [CachePolicy.windowed(32)],
                          total_steps=steps)
        with pytest.raises(ConfigError, match=r"to complete a block\) .*\(2048\)"):
            run_benchmark(bench_model, bench_prompt, [CachePolicy.windowed(32)],
                          total_steps=steps - 1, trajectory="generated")

    def test_repeated_policy_kind_rejected_before_running(self, bench_model, bench_prompt,
                                                          monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        policies = [CachePolicy.windowed(32), CachePolicy.sink(4, 32),
                    CachePolicy.windowed(16), CachePolicy.sink(2, 16), CachePolicy.dense()]
        with pytest.raises(ConfigError,
                           match=r"policy kinds \['window', 'sink'\] given more than once"):
            run_benchmark(bench_model, bench_prompt, policies, total_steps=16)

    @pytest.mark.parametrize("timing, calls", [
        (False, []),
        (True, ["window", "window", "mmsink", "mmsink"]),
    ])
    def test_free_generations_per_policy(self, bench_model, bench_prompt, monkeypatch,
                                         timing, calls):
        # timing off: no free run, and nothing reads one; wall timing: `repeats`
        # runs, and validity comes from the last one's tokens
        made, read, block_validity = [], [], bench.block_validity

        def counted_generate(*args, **kwargs):
            made.append(args[2].kind)
            return engine.generate(*args, **kwargs)

        def counted_validity(free, prompt_len):
            read.append(made[-1])
            return block_validity(free, prompt_len)

        monkeypatch.setattr(bench, "generate", counted_generate)
        monkeypatch.setattr(bench, "block_validity", counted_validity)
        report = run_benchmark(bench_model, bench_prompt,
                               [CachePolicy.windowed(32), CachePolicy.mmsink(4, 1, 2, 32)],
                               total_steps=32, repeats=2, seed=0, timing=timing)
        assert made == calls
        assert read == list(dict.fromkeys(calls))
        assert all((r["mean_tok_s"] is not None) == timing for r in report["policies"])
        assert timing or all(r["validity"] is None for r in report["policies"])

    @pytest.mark.parametrize("timing", [False, True])
    def test_block_validity_reads_each_last_free_run(self, tiny_config, monkeypatch, timing):
        """perfbench's bench.blocks_* counters wrap bench.block_validity: with timing on, it
        is called once per policy, right after that policy's last free run, with that run's
        counts; with it off, neither runs."""
        model = Model.init(dataclasses.replace(tiny_config, seed=1))
        story = sq.synth_stories(1, items_per_story=1, rng_seed=0, d_feat=4)[0]
        prompt = sq.prompt_sequence(story, 1, m=4, v_text=12)
        policies = [CachePolicy.dense(), CachePolicy.windowed(16), CachePolicy.sink(2, 16),
                    CachePolicy.mmsink(2, 1, 1, 16)]
        calls, block_validity = [], bench.block_validity

        def recorded_generate(*args, **kwargs):
            free = engine.generate(*args, **kwargs)
            calls.append(("generate", args[2].kind, free))
            return free

        def recorded_validity(free, prompt_len):
            counts = block_validity(free, prompt_len)
            calls.append(("validity", free, counts))
            return counts

        monkeypatch.setattr(bench, "generate", recorded_generate)
        monkeypatch.setattr(bench, "block_validity", recorded_validity)
        report = run_benchmark(model, prompt, policies, total_steps=64, repeats=2, seed=0,
                               timing=timing)
        runs = 2 if timing else 0
        assert [call[:2] if call[0] == "generate" else call[0] for call in calls] == [
            tag for p in policies for tag in [("generate", p.kind)] * runs + ["validity"] * timing]
        counted = [(i, free, counts) for i, (name, free, counts) in enumerate(calls)
                   if name == "validity"]
        for i, free, (attempted, valid) in counted:
            assert free is calls[i - 1][2]
            assert (attempted, valid) == brute_block_validity(free.generated, 4)
            assert attempted > 0 and any(b < len(prompt) for b, _ in free.trace.blocks)
        assert [r["validity"] for r in report["policies"]] == (
            [valid / attempted for _, _, (attempted, valid) in counted] if timing
            else [None] * len(policies))

    def test_generated_trajectory_mode(self, bench_model, bench_prompt):
        report = run_benchmark(bench_model, bench_prompt,
                               [CachePolicy.dense(), CachePolicy.windowed(32)],
                               total_steps=48, seed=0, trajectory="generated")
        dense = next(r for r in report["policies"] if r["policy"] == "dense")
        assert all(d["kl"] == 0.0 for d in dense["divergence"])


class TestReports:
    def test_csv_schema(self, desk_report, tmp_path):
        path = tmp_path / "bench.csv"
        write_report_csv(desk_report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "policy,peak_entries,bytes,mean_tok_s,ckpt,max_logit_diff,kl,validity"
        n_rows = len(desk_report["policies"]) * len(desk_report["checkpoints"])
        assert len(lines) == 1 + n_rows
        # timing off: empty timing column
        assert lines[1].split(",")[3] == ""

    def test_json_roundtrip_identity(self, desk_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report_json(desk_report, path)
        loaded = json.loads(path.read_text())
        check_report(loaded, path)
        assert loaded == desk_report

    def test_json_keys_in_report_order_and_csv_from_json(self, desk_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report_json(desk_report, path)
        loaded = json.loads(path.read_text())
        check_report(loaded, path)
        assert list(loaded) == ["prompt_len", "total_steps", "checkpoints", "repeats", "seed",
                                "timing", "trajectory", "policies"]
        assert list(POLICY_FIELDS) == ["policy", "params", "peak_entries", "bytes", "mean_tok_s",
                                       "validity", "divergence"]
        for entry in loaded["policies"]:
            assert list(entry) == list(POLICY_FIELDS)
            assert all(list(d) == ["t", "max_logit_diff", "kl"] for d in entry["divergence"])
        from_memory, from_json = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(desk_report, from_memory)
        write_report_csv(loaded, from_json)
        assert from_json.read_bytes() == from_memory.read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_reports_pass_the_validator(self, tiny_config, tmp_path, seed):
        # every value run_benchmark returns is in its kind's range; a rounding-
        # negative KL would fail here, and is to be reported, not clamped
        model = Model.init(tiny_config)
        story = sq.synth_stories(1, items_per_story=1, rng_seed=seed,
                                 d_feat=tiny_config.d_feat)[0]
        prompt = sq.prompt_sequence(story, 1, m=tiny_config.m, v_text=tiny_config.v_text)
        report = run_benchmark(model, prompt, all_policies(12), total_steps=96, repeats=1,
                               seed=seed, timing=seed % 2 == 1)
        check_report(report, "report")
        path = tmp_path / "bench.csv"
        write_report_csv(report, path)
        assert main(["validate", str(path)]) == 0

    def test_json_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"total_steps": 3}')
        with pytest.raises(ValueError):
            check_report(json.loads(path.read_text()), path)


class TestTimeProfile:
    def test_constant_trace_has_flat_slope(self):
        prof = per_token_time_profile([5e-5] * 400)
        assert prof.slope == pytest.approx(0.0, abs=1e-15)

    def test_linear_trace_recovers_coefficient(self):
        c = 3.5e-7
        prof = per_token_time_profile([c * t for t in range(500)])
        assert prof.slope == pytest.approx(c, rel=1e-9)
        assert prof.stderr == pytest.approx(0.0, abs=1e-15)

    def test_noisy_constant_within_three_stderr(self):
        rng = np.random.default_rng(0)
        times = 1e-4 + rng.normal(0, 1e-6, size=1000)
        prof = per_token_time_profile(times)
        assert abs(prof.slope) <= 3 * prof.stderr

    def test_short_trace_rejected(self):
        with pytest.raises(ValueError):
            per_token_time_profile([1e-5] * 50)
