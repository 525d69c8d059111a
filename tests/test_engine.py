"""Forward-step attention, feature prediction, generation, and divergence."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_policies, breaking_stream, dump_rows, make_stream, split_runs
from mmsink import engine, losses
from mmsink import seqmodel as sq
from mmsink.bench import divergence
from mmsink.cachepolicy import CachePolicy, KvCache
from mmsink.engine import (
    REPLAY_ROWS,
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
from mmsink.errors import ConfigError, SequenceGrammarError, StateError
from mmsink.oracle import brute_block_validity, recompute_attention_row
from mmsink.seqmodel import Token, TokenKind


class TestForwardStep:
    def test_first_token_attends_to_itself(self, small_model):
        cache = make_cache(small_model, CachePolicy.dense())
        step = forward_step(small_model, cache, Token.bos())
        for rows in list(step.attention_rows())[-1][1]:
            assert rows.shape == (2, 1)
            assert np.all(rows == 1.0)
        assert np.all(np.isfinite(step.logits))

    def test_attention_rows_sum_to_one(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.mmsink(2, 1, 2, 10))
        for tok in small_prompt.tokens:
            step = forward_step(small_model, cache, tok)
            for rows in list(step.attention_rows())[-1][1]:
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(rows >= 0)

    def test_row_width_tracks_retained_entries(self, small_model, small_prompt):
        cache = make_cache(small_model, CachePolicy.windowed(6))
        for tok in small_prompt.tokens:
            before = cache.size
            step = forward_step(small_model, cache, tok)
            assert list(step.attention_rows())[-1][1][0].shape[1] == before + 1

    def test_matches_batch_forward_under_dense(self, small_model, small_prompt):
        tokens = small_prompt.tokens
        cfg = small_model.config
        ids = np.array([sq.vocab_id(tok, cfg.m, cfg.v_text) for tok in tokens])
        batch = losses._main_forward(small_model, ids)[0]  # the training pass: no cache
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
        keys = np.concatenate([cache.kv()[0, 0], k[:, None, :]], axis=1)
        vals = np.concatenate([cache.kv()[0, 1], v[:, None, :]], axis=1)
        step = forward_step(small_model, cache, tok)
        layer0 = list(step.attention_rows())[-1][1][0]
        for h in range(cfg.heads):
            weights, _ = recompute_attention_row(q[h], keys[h], vals[h])
            np.testing.assert_allclose(layer0[h], weights, atol=1e-12)

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

    def test_dense_step_does_not_copy_the_cache(self):
        """One step writes its keys/values into the cache slot and attends
        over the buffer view: its allocations stay far below one layer's
        keys plus values (2 x (2, 2000, 32) float64, about 2 MB)."""
        model = Model.init(ModelConfig())
        cache = make_cache(model, CachePolicy.dense())
        for tok in [Token.bos()] + [Token.word(i % 256) for i in range(1999)]:
            forward_step(model, cache, tok)
        assert cache.size == 2000
        tracemalloc.start()
        try:
            forward_step(model, cache, Token.word(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, f"peak {peak} bytes"

    def test_rejected_token_leaves_cache_unchanged(self, small_model, small_prompt):
        """The slot written before the grammar rejects the token is not an
        entry: the cache reads as before and the next step overwrites it."""
        def fed():
            cache = make_cache(small_model, CachePolicy.dense())
            tokens = list(small_prompt.tokens)
            tokens += [Token.word(i % 8) for i in range(64 - len(tokens))]
            for tok in tokens:
                forward_step(small_model, cache, tok)
            return cache

        cache, clean = fed(), fed()
        assert cache.size == 64 and not cache.in_block  # the rejected step grows the buffers
        before = cache.kv().copy()
        with pytest.raises(SequenceGrammarError):
            forward_step(small_model, cache, Token.img(0))
        assert (cache.size, cache.t, cache.positions()) == (64, 64, list(range(64)))
        np.testing.assert_array_equal(cache.kv(), before)
        got = forward_step(small_model, cache, Token.word(3))
        want = forward_step(small_model, clean, Token.word(3))
        np.testing.assert_array_equal(got.logits, want.logits)


class TestForwardStepRuns:
    """One forward_step call over a run of known tokens against one call per
    token: same retention and entry counts, floats within 1e-12."""

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "permissive"])
    @pytest.mark.parametrize("policy", all_policies(7, n_sink=2, k_head=1, k_tail=2),
                             ids=lambda p: p.kind)
    def test_run_matches_single_steps(self, small_model, policy, strict):
        """Runs of up to REPLAY_ROWS + 4 tokens: longer than the window (the
        run evicts its own early tokens), split into masked chunks, and
        completing or (permissive) breaking blocks before their last token."""
        rng = np.random.default_rng(8)
        m = small_model.config.m
        stream = (make_stream if strict else breaking_stream)(rng, m, 240)
        runs = split_runs(rng, stream, REPLAY_ROWS + 4)
        assert any(len(run) > REPLAY_ROWS for run in runs)
        whole, single = (make_cache(small_model, policy, strict) for _ in range(2))
        for run in runs:
            step = forward_step(small_model, whole, *run)
            rows = list(step.attention_rows())
            assert len(rows) == len(run)
            sizes = []
            for token, (attended, layers) in zip(run, rows):
                want_keys = single.positions() + [single.t]
                want = forward_step(small_model, single, token)
                sizes += want.sizes
                want_layers = list(want.attention_rows())[-1][1]
                assert attended.tolist() == want_keys
                for got_layer, want_layer in zip(layers, want_layers):
                    np.testing.assert_allclose(got_layer, want_layer, rtol=0, atol=1e-12)
            assert step.sizes == sizes
            np.testing.assert_allclose(step.logits, want.logits, rtol=0, atol=1e-12)
            assert whole.positions() == single.positions()
            np.testing.assert_allclose(whole.kv(), single.kv(), rtol=0, atol=1e-12)
        assert whole.violations == single.violations
        assert whole.peak_entries == single.peak_entries

    def test_strict_rejection_fails_before_compute(self, small_model, small_prompt, monkeypatch):
        cache = make_cache(small_model, CachePolicy.windowed(8))
        forward_step(small_model, cache, *small_prompt.tokens)
        monkeypatch.setattr(engine, "block", None)
        with pytest.raises(SequenceGrammarError):
            forward_step(small_model, cache, Token.word(1), Token.eoi(), Token.word(2))
        assert cache.t == len(small_prompt)

    def test_needs_a_token(self, small_model):
        with pytest.raises(ValueError, match="at least one token"):
            forward_step(small_model, make_cache(small_model, CachePolicy.dense()))


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
        cache.kv()[0, 1, 0, 3, :] += 0.25  # the view writes the cache's buffer
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
        kv = losses._main_forward(small_model, ids)[-1]
        batch_feats, _, _, _ = engine.query_features(small_model, kv[..., : bpos + 1, :])
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

    @pytest.mark.parametrize("mode, seed, temperature, steps, shows", [
        ("constrained", 0, None, 40, "blocks"),
        ("constrained", 5, 0.9, 40, "blocks"),
        ("free", 5, None, 80, "violations"),
        ("free", 15, 1.0, 4, "open block"),  # its last token opens a block
    ], ids=["greedy", "sampled", "free-violations", "free-open"])
    def test_sequence_equals_a_strict_parse(self, small_model, small_prompt, mode, seed,
                                            temperature, steps, shows):
        """The sequence read off the cache's grammar is what a strict parse of
        the tokens gives, or None where that parse raises."""
        result = generate(small_model, small_prompt, CachePolicy.mmsink(2, 1, 2, 16), steps,
                          mode=mode, seed=seed, temperature=temperature,
                          boi_every=9 if mode == "constrained" else None)
        try:
            want = sq.MultimodalSequence.from_tokens(result.tokens, small_model.config.m)
        except SequenceGrammarError:
            want = None
        assert result.sequence == want
        assert {"blocks": bool(want and want.image_blocks),
                "violations": bool(result.trace.violations),
                "open block": not result.trace.violations and want is None}[shows]

    def test_trace_entry_counts_bounded_by_policy(self, small_model, small_prompt):
        w = 12
        result = generate(small_model, small_prompt, CachePolicy.windowed(w), 50, seed=2)
        counts = result.trace.entry_counts  # the generated tokens' only
        assert len(counts) == len(result.generated)
        assert all(c <= w for c in counts)

    def test_attention_dump_schema(self, small_model, small_prompt):
        rows = []
        result = generate(small_model, small_prompt, CachePolicy.windowed(10), 6,
                          seed=0, observe=dump_rows(rows))
        cfg = small_model.config
        n_steps = len(result.tokens)
        assert len(rows) == n_steps * cfg.layers * cfg.heads
        for rec in rows:
            assert set(rec) == {"t", "layer", "head", "labels", "positions", "row"}
            assert len(rec["labels"]) == len(rec["positions"]) == len(rec["row"])
            assert all(pos <= rec["t"] - 1 for pos in rec["positions"])  # causality
            assert sum(rec["row"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("policy", [CachePolicy.windowed(10),
                                        CachePolicy.mmsink(2, 1, 2, 10)],
                             ids=["window", "mmsink"])
    def test_attention_dump_labels_after_evictions(self, small_model, small_prompt, policy):
        rows = []
        result = generate(small_model, small_prompt, policy, 40, seed=1, boi_every=9,
                          observe=dump_rows(rows))
        assert sum(len(rec["positions"]) < rec["t"] for rec in rows) > len(rows) // 2  # evicted
        for rec in rows:
            positions = rec["positions"]
            assert positions == sorted(set(positions))
            assert rec["labels"] == [sq.token_label(result.tokens[p]) for p in positions]

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

    def test_boi_every_rejected_in_free_mode(self, small_model, small_prompt, monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        with pytest.raises(ConfigError, match=r"boi_every .* mode 'free'$"):
            generate(small_model, small_prompt, CachePolicy.windowed(8), 10, mode="free",
                     boi_every=5)

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


def _buffers_per_step(model, prompt, policy, steps, monkeypatch, **kwargs):
    """Run ``generate`` and return, after each forward step, the cache's
    key and value buffer (the array its :meth:`KvCache.kv` view looks into)."""
    seen = []
    real_make, real_step = engine.make_cache, engine.forward_step

    def make_cache(*args, **kw):
        seen.append(real_make(*args, **kw))
        return seen[-1]

    def forward_step(model, cache, *tokens, **kw):
        step = real_step(model, cache, *tokens, **kw)
        seen.append(cache.kv().base)
        return step

    monkeypatch.setattr(engine, "make_cache", make_cache)
    monkeypatch.setattr(engine, "forward_step", forward_step)
    generate(model, prompt, policy, steps, **kwargs)
    return seen[1:]


class TestCacheAllocation:
    @pytest.mark.parametrize("kwargs, completion", [
        (dict(boi_every=7), 4 + 1),
        (dict(mode="free", temperature=1.0, seed=2), 0),
    ], ids=["constrained", "free"])
    def test_dense_run_allocates_its_rows_once(self, small_model, small_prompt, monkeypatch,
                                               kwargs, completion):
        """The buffers after the run are those after the first step, and hold
        exactly the rows the run can fill: more than the 64 a cache starts with."""
        steps = 150
        per_step = _buffers_per_step(small_model, small_prompt, CachePolicy.dense(), steps,
                                     monkeypatch, **kwargs)
        first, last = per_step[0], per_step[-1]
        assert len(per_step) > 1 and first is last
        assert last.shape[-2] == len(small_prompt) + steps + completion

    @pytest.mark.parametrize("policy", [CachePolicy.windowed(16), CachePolicy.mmsink(2, 1, 1, 16)],
                             ids=["window", "mmsink"])
    def test_bounded_policies_start_at_64_rows(self, small_model, small_prompt, monkeypatch,
                                               policy):
        per_step = _buffers_per_step(small_model, small_prompt, policy, 150, monkeypatch,
                                     boi_every=7)
        assert per_step[0].shape[-2] == 64


class TestSample:
    def test_greedy_ties_go_to_the_lowest_legal_id(self):
        logits = np.array([3.0, 1.0, 2.0, 2.0, 0.5, 2.0, 3.0])
        legal = np.array([1, 2, 3, 5])  # ties at 2, 3 and 5; the best logits are illegal
        rng = np.random.default_rng(0)
        assert engine._sample(logits, legal, None, rng) == 2
        assert engine._sample(logits, None, None, rng) == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_greedy_matches_masked_argmax(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.integers(0, 4, 12).astype(float)  # few values, so many ties
        legal = np.flatnonzero(rng.random(12) < 0.5)
        if legal.size == 0:
            legal = np.array([int(rng.integers(12))])
        masked = np.full_like(logits, -np.inf)  # the reference: argmax with illegal ids masked
        masked[legal] = logits[legal]
        assert engine._sample(logits, legal, None, rng) == int(np.argmax(masked))


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
            assert d["max_logit_diff"] == 0.0
            assert d["kl"] == 0.0

    def test_zero_within_window(self, small_model, small_prompt):
        for pol in (CachePolicy.windowed(64), CachePolicy.sink(4, 64),
                    CachePolicy.mmsink(4, 1, 2, 64)):
            div = dense_divergence(small_model, small_prompt, pol, [40, 64])
            for d in div:
                assert d["max_logit_diff"] <= 1e-9
                assert abs(d["kl"]) <= 1e-9

    def test_window_diverges_past_budget(self, small_model, small_prompt):
        div = dense_divergence(small_model, small_prompt, CachePolicy.windowed(8), [64])
        assert div[0]["max_logit_diff"] > 0.0
        assert div[0]["kl"] > 0.0
        # frozen regression values for this seed
        assert div[0]["max_logit_diff"] == pytest.approx(0.33591417775869226, rel=1e-6)
        assert div[0]["kl"] == pytest.approx(0.012010301920463576, rel=1e-6)

    def test_checkpoint_validation(self, small_model, small_prompt):
        tokens = list(small_prompt.tokens)
        with pytest.raises(ValueError):
            teacher_forced_logits(small_model, tokens, CachePolicy.dense(), [10_000])
        with pytest.raises(ValueError):
            teacher_forced_logits(small_model, tokens, CachePolicy.dense(), [0])


def refeed(model, policy, result, prompt_len, predict_features):
    """Reference for a constrained run: ``result.tokens`` through one
    forward_step call each, with the dump rows, the entry count after each
    generated token and the features after each generated begin marker."""
    cache = make_cache(model, policy)
    rows, counts, feats = [], [], []
    for i, token in enumerate(result.tokens):
        positions = cache.positions() + [cache.t]
        step = forward_step(model, cache, token)
        labels = [sq.token_label(result.tokens[p]) for p in positions]
        for l, layer in enumerate(list(step.attention_rows())[-1][1]):
            rows += [(cache.t, l, h, labels, positions, row) for h, row in enumerate(layer)]
        if i >= prompt_len:
            counts.append(cache.size)
            if predict_features and cache.in_block and cache.next_slot == 0:
                feats.append((cache.t - 1, predict_image_features(model, cache)))
    return rows, counts, feats, cache.peak_entries


def one_call_per_token(model, prompt, policy, steps, seed, temperature, boi_every):
    """Reference for a constrained run: the decode loop that feeds every
    token, the prompt's and each forced one included, through its own
    forward_step call, sampling each generated token from the grammar's
    legal set (the begin marker alone when a block start is due). Returns
    the tokens, the entry count after each generated token, and the steps
    run past the budget to complete a block."""
    cfg = model.config
    cache = make_cache(model, policy)
    rng = np.random.default_rng(seed)
    for token in prompt.tokens:
        last = forward_step(model, cache, token)
    generated, counts = [], []
    while len(generated) < steps or cache.in_block:
        if boi_every and not cache.in_block and len(generated) % boi_every == 0:
            legal = np.array([sq.vocab_id(Token.boi())])
        else:
            legal = cache.grammar.legal_next(cfg.v_text)
        vid = engine._sample(last.logits, legal, temperature, rng)
        generated.append(sq.token_from_vocab_id(vid, cfg.m, cfg.v_text))
        last = forward_step(model, cache, generated[-1])
        counts += last.sizes
    return list(prompt.tokens) + generated, counts, max(0, len(generated) - steps)


class TestJumpForward:
    """generate feeds the prompt and the forced rest of each image block in
    one forward_step call; refeeding its tokens one per call must give the
    same retention, dump and features."""

    @pytest.mark.parametrize("ends", ["in-a-run", "after-a-run"])
    @pytest.mark.parametrize("temperature", [None, 1.0], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("policy", all_policies(10, n_sink=2, k_head=1, k_tail=2),
                             ids=lambda p: p.kind)
    def test_matches_one_call_per_token(self, small_model, small_prompt, monkeypatch, policy,
                                        temperature, ends):
        m = small_model.config.m
        kwargs = dict(seed=4, temperature=temperature, boi_every=9)
        # a run's tokens do not depend on the budget: end it two tokens into
        # the last block begun by step 55, or right after that block
        longer = generate(small_model, small_prompt, policy, 60, **kwargs).generated
        boi = max(i for i, token in enumerate(longer[:55]) if token == Token.boi())
        steps = boi + (3 if ends == "in-a-run" else m + 2)
        calls = []
        step = engine.forward_step
        monkeypatch.setattr(engine, "forward_step",
                            lambda *a: calls.append(len(a) - 2) or step(*a))
        dump, seen, predicted = [], [], []
        collect = dump_rows(dump)

        def observe(run, step, cache):  # the dump, and the features of each block opened
            collect(run, step, cache)
            seen.extend(run)
            if cache.in_block and cache.next_slot == 0:
                predicted.append((cache.t - 1, predict_image_features(small_model, cache)))

        result = generate(small_model, small_prompt, policy, steps, observe=observe, **kwargs)
        runs = [n for n in calls if n > 1]
        assert runs[0] == len(small_prompt) and m + 1 in runs
        monkeypatch.setattr(engine, "forward_step", step)
        # the one-call-per-token loop samples the same tokens: a forced token
        # takes the same rng draw either way
        tokens, single_counts, forced = one_call_per_token(
            small_model, small_prompt, policy, steps, seed=4, temperature=temperature, boi_every=9)
        assert result.tokens == tokens
        assert result.trace.forced_completion_steps == forced
        assert result.trace.forced_completion_steps == (m - 1 if ends == "in-a-run" else 0)
        assert seen == result.tokens

        rows, counts, feats, peak = refeed(small_model, policy, result, len(small_prompt), True)
        assert result.trace.entry_counts == single_counts == counts
        assert result.peak_entries == peak
        assert [(d["t"], d["layer"], d["head"], d["labels"], d["positions"]) for d in dump] == \
            [row[:5] for row in rows]
        for d, row in zip(dump, rows):
            np.testing.assert_allclose(d["row"], row[5], rtol=0, atol=1e-12)
        assert [t for t, _ in predicted] == [t for t, _ in feats]
        for (_, got), (_, want) in zip(predicted, feats):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("temperature", [0, -1.0, float("nan"), float("inf")])
    def test_bad_temperature_fails_before_compute(self, small_model, small_prompt, monkeypatch,
                                                  temperature):
        monkeypatch.setattr(engine, "forward_step", None)
        with pytest.raises(ConfigError, match="temperature must be a positive finite number"):
            generate(small_model, small_prompt, CachePolicy.windowed(8), 10,
                     temperature=temperature)


class TestObserver:
    """generate calls its observer right after every forward_step call, the
    prompt's included, with the tokens fed and the cache after the push; an
    observer that changes nothing leaves the run as it was."""

    @pytest.mark.parametrize("temperature", [None, 1.0], ids=["greedy", "sampled"])
    @pytest.mark.parametrize("mode", ["constrained", "free"])
    @pytest.mark.parametrize("policy", all_policies(10, n_sink=2, k_head=1, k_tail=2),
                             ids=lambda p: p.kind)
    def test_one_call_per_forward_step(self, small_model, small_prompt, monkeypatch, policy,
                                       mode, temperature):
        kwargs = dict(mode=mode, seed=3, temperature=temperature,
                      boi_every=9 if mode == "constrained" else None)
        plain = generate(small_model, small_prompt, policy, 40, **kwargs)
        quiet = generate(small_model, small_prompt, policy, 40,
                         observe=lambda run, step, cache: None, **kwargs)
        log = []
        step = engine.forward_step
        monkeypatch.setattr(engine, "forward_step",
                            lambda *a: log.append(("call", list(a[2:]))) or step(*a))
        recorded = generate(small_model, small_prompt, policy, 40, **kwargs,
                            observe=lambda run, _, cache: log.append(("observe", list(run),
                                                                      cache.t)))
        calls, seen = log[0::2], log[1::2]
        assert [kind for kind, *_ in calls] == ["call"] * len(calls)
        assert [(kind, run) for kind, run, _ in seen] == [("observe", run) for _, run in calls]
        assert sum((run for _, run, _ in seen), []) == recorded.tokens
        ends = np.cumsum([len(run) for _, run, _ in seen]).tolist()
        assert [t for *_, t in seen] == ends
        for result in (quiet, recorded):
            assert result.tokens == plain.tokens
            assert result.trace.entry_counts == plain.trace.entry_counts
            assert result.peak_entries == plain.peak_entries
            assert result.trace.violations == plain.trace.violations
            assert result.trace.forced_completion_steps == plain.trace.forced_completion_steps


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

    def test_writes_the_bytes_of_one_json_dump(self, small_model, tmp_path, monkeypatch):
        """Streamed a few values at a time, the file is ``json.dump`` of the
        whole payload, non-finite and negative-zero weights included."""
        model = small_model.copy()
        model.p["l0.wq"][0, :5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        model.p["lnf_b"][-1] = -np.inf
        monkeypatch.setattr(engine, "SAVE_CHUNK", 7)
        save_model(model, tmp_path / "m.json")
        payload = {
            "format": "mmsink-model-v1",
            "config": asdict(model.config),
            "weights": {
                name: {"shape": list(model.p[name].shape),
                       "data": [float(x) for x in model.p[name].ravel()]}
                for name in engine.param_names(model.config)
            },
        }
        assert (tmp_path / "m.json").read_bytes() == (json.dumps(payload) + "\n").encode()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigError):
            load_model(path)


class TestBlockValidity:
    """A free run's begin markers and the blocks its permissive cache grammar
    completes, as the benchmark reads them, against the literal scan."""

    @staticmethod
    def cache_validity(tokens, m):
        cache = KvCache(CachePolicy.dense(), 1, 1, 1, m, strict=False)
        for tok in tokens:
            cache.push(tok)
        counts = sum(tok.kind is TokenKind.BOI for tok in tokens), len(cache.blocks)
        assert counts == brute_block_validity(tokens, m)
        return counts

    def test_counts_valid_and_broken_blocks(self):
        m = 2
        good = [Token.boi(), Token.img(0), Token.img(1), Token.eoi()]
        broken = [Token.boi(), Token.img(0), Token.word(1)]
        tokens = [Token.bos()] + good + [Token.word(5)] + broken + good
        assert self.cache_validity(tokens, m) == (3, 2)

    def test_truncated_block_is_attempted_not_valid(self):
        tokens = [Token.bos(), Token.boi(), Token.img(0)]
        assert self.cache_validity(tokens, 2) == (1, 0)

    def test_no_blocks(self):
        assert self.cache_validity([Token.bos(), Token.word(1)], 4) == (0, 0)
