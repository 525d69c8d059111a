"""Forward-step attention, feature prediction, generation, and divergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_policies
from mmsink import engine, losses
from mmsink import seqmodel as sq
from mmsink.bench import divergence
from mmsink.cachepolicy import CachePolicy
from mmsink.engine import (
    Model,
    ModelConfig,
    forward_step,
    generate,
    load_model,
    make_cache,
    predict_image_features,
    save_model,
    teacher_forced_logits,
)
from mmsink.errors import ConfigError, StateError
from mmsink.oracle import recompute_attention_row
from mmsink.seqmodel import Token, block_validity


class TestForwardStep:
    def test_first_token_attends_to_itself(self, small_model):
        cache = make_cache(small_model, CachePolicy.dense())
        step = forward_step(small_model, cache, Token.bos())
        for rows in step.attention:
            assert rows.shape == (2, 1)
            assert np.all(rows == 1.0)
        assert np.all(np.isfinite(step.logits))

    def test_attention_rows_sum_to_one(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.mmsink(2, 1, 2, 10))
        for tok in small_prompt.tokens:
            step = forward_step(small_model, cache, tok)
            for rows in step.attention:
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(rows >= 0)

    def test_row_width_tracks_retained_entries(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.windowed(6))
        for tok in small_prompt.tokens:
            before = cache.size
            step = forward_step(small_model, cache, tok)
            assert step.attention[0].shape[1] == before + 1

    def test_matches_batch_forward_under_dense(self, small_model, small_prompt):
        tokens = small_prompt.tokens
        batch = losses.sequence_logits(small_model, tokens)
        cache = make_cache(small_model, CachePolicy.dense())
        for i, tok in enumerate(tokens):
            step = forward_step(small_model, cache, tok)
            np.testing.assert_allclose(step.logits, batch[i], atol=1e-12)

    def test_attention_against_scalar_recompute(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.dense())
        cfg = small_model.config
        p = small_model.p
        for tok in small_prompt.tokens[:-1]:
            forward_step(small_model, cache, tok)
        # recompute layer-0 attention for the next token from first principles
        tok = small_prompt.tokens[-1]
        x = p["tok_emb"][sq.vocab_id(tok, cfg.m, cfg.v_text)] + p["pos_emb"][cache.size]
        a, _ = engine.layer_norm(x, p["l0.ln1_g"], p["l0.ln1_b"])
        q = (a @ p["l0.wq"]).reshape(cfg.heads, cfg.d_head)
        k = (a @ p["l0.wk"]).reshape(cfg.heads, cfg.d_head)
        v = (a @ p["l0.wv"]).reshape(cfg.heads, cfg.d_head)
        keys = np.concatenate([cache.keys(0), k[:, None, :]], axis=1)
        vals = np.concatenate([cache.values(0), v[:, None, :]], axis=1)
        step = forward_step(small_model, cache, tok)
        for h in range(cfg.heads):
            weights, _ = recompute_attention_row(q[h], keys[h], vals[h])
            np.testing.assert_allclose(step.attention[0][h], weights, atol=1e-12)

    def test_mismatched_cache_dimensions(self, small_model):
        from mmsink.cachepolicy import KvCache

        wrong = KvCache(CachePolicy.dense(), layers=1, heads=1, d_head=4, m=4)
        with pytest.raises(ValueError, match="cache dimensions"):
            forward_step(small_model, wrong, Token.bos())

    def test_position_table_overflow(self):
        cfg = ModelConfig(layers=1, heads=1, d_model=8, d_ff=16, v_text=8, m=4,
                          q_queries=2, d_feat=4, max_positions=4, seed=0)
        model = Model.init(cfg)
        cache = make_cache(model, CachePolicy.dense())
        for tok in [Token.bos(), Token.word(0), Token.word(1), Token.word(2)]:
            forward_step(model, cache, tok)
        with pytest.raises(StateError):
            forward_step(model, cache, Token.word(3))


class TestWithinWindowEquivalence:
    def test_logits_identical_while_nothing_evicted(self, small_model, small_prompt):
        w = 64
        traj = generate(small_model, small_prompt, CachePolicy.dense(),
                        w - len(small_prompt), seed=1).tokens[:w]
        ts = range(1, len(traj) + 1)
        dense, _ = teacher_forced_logits(small_model, traj, CachePolicy.dense(), ts)
        for pol in all_policies(w, n_sink=4):
            got, _ = teacher_forced_logits(small_model, traj, pol, ts)
            for t in ts:
                np.testing.assert_array_equal(got[t], dense[t])


class TestPredictImageFeatures:
    def _cache_after_boi(self, model, prompt):
        cache = make_cache(model, CachePolicy.dense())
        for tok in prompt.tokens:
            forward_step(model, cache, tok)
        forward_step(model, cache, Token.boi())
        return cache

    def test_shape_and_determinism(self, small_model, small_prompt):
        cache = self._cache_after_boi(small_model, small_prompt)
        a = predict_image_features(small_model, cache)
        b = predict_image_features(small_model, cache)
        assert a.shape == (small_model.config.q_queries, small_model.config.d_feat)
        np.testing.assert_array_equal(a, b)

    def test_state_error_outside_block(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.dense())
        for tok in small_prompt.tokens:
            forward_step(small_model, cache, tok)
        with pytest.raises(StateError):
            predict_image_features(small_model, cache)

    def test_state_error_mid_block(self, small_model, small_prompt):
        cache = self._cache_after_boi(small_model, small_prompt)
        forward_step(small_model, cache, Token.img(0))
        with pytest.raises(StateError):
            predict_image_features(small_model, cache)

    def test_sensitive_to_retained_values(self, small_model, small_prompt):
        cache = self._cache_after_boi(small_model, small_prompt)
        base = predict_image_features(small_model, cache)
        bumped = cache.values(0)[0, 3, :].copy() + 0.25
        cache.set_value(0, 0, 3, bumped)
        perturbed = predict_image_features(small_model, cache)
        assert not np.array_equal(base, perturbed)

    def test_matches_training_query_branch(self, small_model):
        story = sq.synth_stories(1, items_per_story=2, rng_seed=4,
                                 d_feat=small_model.config.d_feat)[0]
        sample = sq.assemble_training_sequence(
            story, 2, m=small_model.config.m, v_text=small_model.config.v_text
        )
        bpos = sample.masked_blocks()[0][0]
        cache = make_cache(small_model, CachePolicy.dense())
        for tok in sample.sequence.tokens[: bpos + 1]:
            forward_step(small_model, cache, tok)
        step_feats = predict_image_features(small_model, cache)
        ids = np.array([
            sq.vocab_id(t, small_model.config.m, small_model.config.v_text)
            for t in sample.sequence.tokens
        ])
        _, _, _, layers = losses._main_forward(small_model, ids)
        batch_feats, _, _, _ = losses._query_forward(small_model, layers, bpos + 1)
        np.testing.assert_allclose(step_feats, batch_feats, atol=1e-12)


class TestGenerate:
    def test_zero_steps_returns_prompt(self, small_model, small_prompt):
        result = generate(small_model, small_prompt, CachePolicy.dense(), 0)
        assert result.tokens == list(small_prompt.tokens)
        assert result.generated == []

    @given(st.integers(0, 40), st.sampled_from(["dense", "window", "sink", "mmsink"]))
    @settings(max_examples=16, deadline=None)
    def test_constrained_output_always_validates(self, seed, kind):
        cfg = ModelConfig(layers=1, heads=1, d_model=16, d_ff=32, v_text=16, m=4,
                          q_queries=2, d_feat=4, max_positions=512, seed=seed)
        model = Model.init(cfg)
        story = sq.synth_stories(1, items_per_story=1, rng_seed=seed, d_feat=4)[0]
        prompt = sq.prompt_sequence(story, 1, m=4, v_text=16)
        policy = {
            "dense": CachePolicy.dense(),
            "window": CachePolicy.windowed(12),
            "sink": CachePolicy.sink(2, 12),
            "mmsink": CachePolicy.mmsink(2, 1, 1, 12),
        }[kind]
        result = generate(model, prompt, policy, 48,
                          seed=seed, temperature=0.9, boi_every=13)
        assert result.sequence is not None
        assert not result.trace.violations

    def test_deterministic(self, small_model, small_prompt):
        pol = CachePolicy.mmsink(2, 1, 2, 16)
        a = generate(small_model, small_prompt, pol, 60, seed=5, boi_every=12)
        b = generate(small_model, small_prompt, pol, 60, seed=5, boi_every=12)
        assert a.tokens == b.tokens
        assert a.trace.entry_counts == b.trace.entry_counts

    def test_block_completion_beyond_step_budget(self, small_model, small_prompt):
        # forcing a block start on the last step makes the loop run past it
        result = generate(small_model, small_prompt, CachePolicy.dense(), 1, boi_every=1)
        assert result.trace.forced_completion_steps == small_model.config.m + 1
        assert result.sequence is not None

    def test_free_mode_records_violations(self, small_model, small_prompt):
        result = generate(small_model, small_prompt, CachePolicy.mmsink(2, 1, 2, 16),
                          80, mode="free", seed=5)
        assert len(result.generated) == 80
        assert result.trace.violations  # untrained models break the grammar

    def test_trace_entry_counts_bounded_by_policy(self, small_model, small_prompt):
        w = 12
        result = generate(small_model, small_prompt, CachePolicy.windowed(w), 50, seed=2)
        tail = result.trace.entry_counts[len(small_prompt):]
        assert all(c <= w for c in tail)

    def test_attention_dump_schema(self, small_model, small_prompt):
        result = generate(small_model, small_prompt, CachePolicy.windowed(10), 6,
                          seed=0, attn_dump=True)
        cfg = small_model.config
        n_steps = len(result.tokens)
        assert len(result.trace.attention_dumps) == n_steps * cfg.layers * cfg.heads
        for rec in result.trace.attention_dumps:
            assert set(rec) == {"t", "layer", "head", "labels", "positions", "row"}
            assert len(rec["labels"]) == len(rec["positions"]) == len(rec["row"])
            assert all(pos <= rec["t"] - 1 for pos in rec["positions"])  # causality
            assert sum(rec["row"]) == pytest.approx(1.0, abs=1e-9)

    def test_invalid_mode_and_steps(self, small_model, small_prompt):
        with pytest.raises(ConfigError):
            generate(small_model, small_prompt, CachePolicy.dense(), 1, mode="greedy")
        with pytest.raises(ConfigError):
            generate(small_model, small_prompt, CachePolicy.dense(), -1)

    @pytest.mark.parametrize("boi_every", [-3, 0])
    def test_nonpositive_boi_every_rejected(self, small_model, small_prompt, monkeypatch,
                                            boi_every):
        monkeypatch.setattr(engine, "forward_step", None)
        with pytest.raises(ConfigError, match=rf"boi_every .* got {boi_every}$"):
            generate(small_model, small_prompt, CachePolicy.windowed(8), 10,
                     boi_every=boi_every)

    def test_dense_position_overflow_fails_before_compute(self, small_prompt, monkeypatch):
        cfg = ModelConfig(layers=2, heads=2, d_model=32, d_ff=64, v_text=32, m=4,
                          q_queries=3, d_feat=4, max_positions=64, seed=3)
        model = Model.init(cfg)
        # any forward pass would fail: decode steps and the replay both run block
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        steps = 65 - len(small_prompt)
        with pytest.raises(ConfigError, match=rf"\+ {steps} steps .*\(64\)"):
            generate(model, small_prompt, CachePolicy.dense(), steps)

    def test_constrained_dense_counts_block_completion(self, small_prompt, monkeypatch):
        cfg = ModelConfig(layers=2, heads=2, d_model=32, d_ff=64, v_text=32, m=4,
                          q_queries=3, d_feat=4, max_positions=64, seed=3)
        model = Model.init(cfg)
        room = 64 - len(small_prompt)
        assert len(generate(model, small_prompt, CachePolicy.dense(), room,
                            mode="free").tokens) == 64
        steps = room - 5  # leaves room for a block opened by the last step
        result = generate(model, small_prompt, CachePolicy.dense(), steps, boi_every=6)
        assert result.trace.forced_completion_steps > 0
        assert len(result.tokens) <= 64
        # any forward pass would fail: decode steps and the replay both run block
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        with pytest.raises(ConfigError, match=r"\+ 5 to complete a block\) .*\(64\)"):
            generate(model, small_prompt, CachePolicy.dense(), steps + 1, boi_every=6)

    def test_block_length_mismatch(self, small_model):
        story = sq.synth_stories(1, items_per_story=1, rng_seed=0, d_feat=4)[0]
        prompt = sq.prompt_sequence(story, 1, m=8, v_text=32)
        with pytest.raises(ConfigError):
            generate(small_model, prompt, CachePolicy.dense(), 1)


def dense_divergence(model, prompt, policy, checkpoints):
    """A policy's replay of the dense constrained argmax run, against dense."""
    steps = max(checkpoints) - len(prompt)
    tokens = generate(model, prompt, CachePolicy.dense(), steps).tokens
    dense, _ = teacher_forced_logits(model, tokens, CachePolicy.dense(), checkpoints)
    got, _ = teacher_forced_logits(model, tokens, policy, checkpoints)
    return [divergence(t, dense[t], got[t]) for t in sorted(set(checkpoints))]


class TestDivergence:
    def test_dense_vs_dense_exactly_zero(self, small_model, small_prompt):
        div = dense_divergence(small_model, small_prompt, CachePolicy.dense(), [20, 40, 64])
        for d in div:
            assert d.max_abs_logit_diff == 0.0
            assert d.kl == 0.0

    def test_zero_within_window(self, small_model, small_prompt):
        for pol in (CachePolicy.windowed(64), CachePolicy.sink(4, 64),
                    CachePolicy.mmsink(4, 1, 2, 64)):
            div = dense_divergence(small_model, small_prompt, pol, [40, 64])
            for d in div:
                assert d.max_abs_logit_diff <= 1e-9
                assert abs(d.kl) <= 1e-9

    def test_window_diverges_past_budget(self, small_model, small_prompt):
        div = dense_divergence(small_model, small_prompt, CachePolicy.windowed(8), [64])
        assert div[0].max_abs_logit_diff > 0.0
        assert div[0].kl > 0.0
        # frozen regression values for this seed
        assert div[0].max_abs_logit_diff == pytest.approx(0.33591417775869226, rel=1e-6)
        assert div[0].kl == pytest.approx(0.012010301920463576, rel=1e-6)

    def test_checkpoint_validation(self, small_model, small_prompt):
        tokens = list(small_prompt.tokens)
        with pytest.raises(ValueError):
            teacher_forced_logits(small_model, tokens, CachePolicy.dense(), [10_000])
        with pytest.raises(ValueError):
            teacher_forced_logits(small_model, tokens, CachePolicy.dense(), [0])


class TestModelIO:
    def test_roundtrip_exact(self, small_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(small_model, path)
        loaded = load_model(path)
        assert loaded.config == small_model.config
        for name in engine.param_names(small_model.config):
            np.testing.assert_array_equal(loaded.p[name], small_model.p[name])

    def test_resave_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(small_model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigError):
            load_model(path)


class TestBlockValidity:
    def test_counts_valid_and_broken_blocks(self):
        m = 2
        good = [Token.boi(), Token.img(0), Token.img(1), Token.eoi()]
        broken = [Token.boi(), Token.img(0), Token.word(1)]
        tokens = [Token.bos()] + good + [Token.word(5)] + broken + good
        attempted, valid = block_validity(tokens, m)
        assert (attempted, valid) == (3, 2)

    def test_truncated_block_is_attempted_not_valid(self):
        tokens = [Token.bos(), Token.boi(), Token.img(0)]
        assert block_validity(tokens, 2) == (1, 0)

    def test_no_blocks(self):
        assert block_validity([Token.bos(), Token.word(1)], 4) == (0, 0)
