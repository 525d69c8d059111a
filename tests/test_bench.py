"""Benchmark harness: divergence, entry counts, reports, time profiles."""

import numpy as np
import pytest

from mmsink import engine
from mmsink import seqmodel as sq
from mmsink.bench import (
    load_report_json,
    per_token_time_profile,
    report_to_dict,
    run_benchmark,
    synthetic_trajectory,
    write_report_csv,
    write_report_json,
)
from mmsink.cachepolicy import CachePolicy
from mmsink.engine import Model, ModelConfig
from mmsink.errors import ConfigError
from mmsink.seqmodel import TokenKind


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
    policies = [CachePolicy.dense(), CachePolicy.windowed(64),
                CachePolicy.sink(4, 64), CachePolicy.mmsink(4, 1, 2, 64)]
    return run_benchmark(bench_model, bench_prompt, policies,
                         total_steps=256, seed=0)


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
        by_name = {r.name: r for r in desk_report.results}
        assert by_name["dense"].peak_entries > by_name["mmsink"].peak_entries
        assert by_name["mmsink"].peak_entries > by_name["sink"].peak_entries
        assert by_name["sink"].peak_entries == by_name["window"].peak_entries == 64

    def test_dense_divergence_zero(self, desk_report):
        dense = next(r for r in desk_report.results if r.name == "dense")
        for d in dense.divergence:
            assert d.max_abs_logit_diff == 0.0 and d.kl == 0.0

    def test_divergences_non_negative(self, desk_report):
        for r in desk_report.results:
            for d in r.divergence:
                assert d.max_abs_logit_diff >= 0.0
                assert d.kl >= -1e-12

    def test_validity_rate_in_unit_interval(self, desk_report):
        for r in desk_report.results:
            assert 0.0 <= r.validity_rate <= 1.0

    def test_bytes_follow_entry_counts(self, desk_report, bench_model):
        c = bench_model.config
        per_entry = c.layers * c.heads * 2 * c.d_head * 8
        for r in desk_report.results:
            assert r.bytes_estimate == r.peak_entries * per_entry

    def test_all_divergence_zero_when_run_fits_window(self, bench_model, bench_prompt):
        # precondition total_steps > w relaxed deliberately: everything fits
        policies = [CachePolicy.windowed(512), CachePolicy.sink(4, 512),
                    CachePolicy.mmsink(4, 1, 2, 512)]
        report = run_benchmark(bench_model, bench_prompt, policies,
                               total_steps=48, seed=0)
        for r in report.results:
            for d in r.divergence:
                assert d.max_abs_logit_diff == 0.0
                assert d.kl == 0.0

    def test_repeats_do_not_change_functional_fields(self, bench_model, bench_prompt):
        policies = [CachePolicy.windowed(32), CachePolicy.mmsink(4, 1, 2, 32)]
        a = run_benchmark(bench_model, bench_prompt, policies, total_steps=64,
                          repeats=1, seed=3)
        b = run_benchmark(bench_model, bench_prompt, policies, total_steps=64,
                          repeats=3, seed=3)
        assert report_to_dict(a)["policies"] == report_to_dict(b)["policies"]

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
        monkeypatch.setattr(engine, "forward_step", None)  # any forward step would fail
        steps = 2049 - len(bench_prompt)
        expected = rf"{len(bench_prompt)} prompt \+ {steps} steps .*\(2048\)"
        with pytest.raises(ConfigError, match=expected):
            run_benchmark(bench_model, bench_prompt, [CachePolicy.windowed(32)],
                          total_steps=steps)
        with pytest.raises(ConfigError, match=r"to complete a block\) .*\(2048\)"):
            run_benchmark(bench_model, bench_prompt, [CachePolicy.windowed(32)],
                          total_steps=steps - 1, trajectory="generated")

    def test_generated_trajectory_mode(self, bench_model, bench_prompt):
        report = run_benchmark(bench_model, bench_prompt,
                               [CachePolicy.dense(), CachePolicy.windowed(32)],
                               total_steps=48, seed=0, trajectory="generated")
        dense = next(r for r in report.results if r.name == "dense")
        assert all(d.kl == 0.0 for d in dense.divergence)


class TestReports:
    def test_csv_schema(self, desk_report, tmp_path):
        path = tmp_path / "bench.csv"
        write_report_csv(desk_report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "policy,peak_entries,bytes,mean_tok_s,ckpt,max_logit_diff,kl,validity"
        n_rows = len(desk_report.results) * len(desk_report.checkpoints)
        assert len(lines) == 1 + n_rows
        # timing off: empty timing column
        assert lines[1].split(",")[3] == ""

    def test_json_roundtrip_identity(self, desk_report, tmp_path):
        path = tmp_path / "bench.json"
        write_report_json(desk_report, path)
        assert load_report_json(path) == report_to_dict(desk_report)

    def test_json_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"total_steps": 3}')
        with pytest.raises(ValueError):
            load_report_json(path)


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

    def test_accepts_generation_trace(self, bench_model, bench_prompt):
        from mmsink.engine import generate

        result = generate(bench_model, bench_prompt, CachePolicy.windowed(16), 120,
                          mode="free", seed=0)
        prof = per_token_time_profile(result.trace)
        assert prof.n == 120
