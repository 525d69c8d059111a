"""Teacher-forced replay: one forward_step run over a fresh cache, against
stepwise decoding, the replay algorithm it replaced, and the oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_policies, make_stream
from mmsink import engine
from mmsink.cachepolicy import CachePolicy, protected_until, retained_rows
from mmsink.engine import REPLAY_ROWS, Model, ModelConfig, forward_step, layer_norm, \
    make_cache, teacher_forced_logits
from mmsink.errors import SequenceGrammarError, StateError
from mmsink.oracle import brute_retain_set
from mmsink.seqmodel import BlockGrammar, MultimodalSequence, Token, vocab_id

LOGIT_ATOL = 1e-12


def stepwise_logits(model, tokens, policy, checkpoints):
    """The replay as T decode steps over an incremental cache."""
    wanted = set(checkpoints)
    cache = make_cache(model, policy)
    out = {}
    for token in tokens:
        step = forward_step(model, cache, token)
        if cache.t in wanted:
            out[cache.t] = step.logits.copy()
    return out, cache.peak_entries


def separate_replay(model, tokens, policy, checkpoints):
    """The replay as a pass of its own, without a cache: the whole stream's
    grammar, one ``protected_until`` and a T-row key/value buffer, run chunk
    by chunk through the masked layers."""
    wanted, T, cfg = set(checkpoints), len(tokens), model.config
    grammar = BlockGrammar(cfg.m)
    for token in tokens:
        grammar.step(token)
    until = protected_until(policy, grammar.blocks, grammar.open_start, T)
    ids = np.array([vocab_id(tk, cfg.m, cfg.v_text) for tk in tokens])
    kv = np.empty((cfg.layers, 2, cfg.heads, T, cfg.d_head))
    out, peak = {}, int(retained_rows(policy, until, [T]).sum())
    for lo in range(0, T, REPLAY_ROWS):
        hi = min(lo + REPLAY_ROWS, T)
        steps = np.arange(lo, hi)
        attend = retained_rows(policy, until[:hi], steps)
        peak = max(peak, int(attend.sum(axis=1).max()))
        attend[np.arange(len(steps)), steps] = True
        x, _ = engine._masked_layers(model, kv, ids[steps], lo, attend)
        hit = [r for r in range(hi - lo) if lo + r + 1 in wanted]
        if hit:
            hf, _ = layer_norm(x[hit], model.p["lnf_g"], model.p["lnf_b"])
            out.update(zip([lo + r + 1 for r in hit], hf @ model.p["w_out"]))
    return out, peak


def open_block_stream(m: int, min_length: int) -> list[Token]:
    """A valid stream of at least ``min_length`` tokens that ends two slots
    into an image block, at a length that is not a multiple of the chunk."""
    tokens = make_stream(np.random.default_rng(4), m, 4 * min_length)
    ends = [b + 3 for b, tk in enumerate(tokens)
            if tk.kind.name == "BOI" and b + 3 >= min_length and (b + 3) % REPLAY_ROWS]
    return tokens[: ends[0]]


def streams(m: int) -> dict[str, list[Token]]:
    rng = np.random.default_rng(11)
    return {
        "three-chunks-and-5": make_stream(rng, m, 3 * REPLAY_ROWS + 5),
        "seven-chunks-and-9": make_stream(rng, m, 7 * REPLAY_ROWS + 9),
        "one-short-chunk": make_stream(rng, m, REPLAY_ROWS - 3),
        "ends-in-open-block": open_block_stream(m, 5 * REPLAY_ROWS + 2),
    }


class TestStepwiseEquivalence:
    @pytest.mark.parametrize("stream", ["three-chunks-and-5", "seven-chunks-and-9",
                                        "one-short-chunk", "ends-in-open-block"])
    @pytest.mark.parametrize("policy", all_policies(11, n_sink=2, k_head=1, k_tail=2),
                             ids=lambda p: p.kind)
    def test_logits_and_peak_match_decode(self, small_model, stream, policy):
        tokens = streams(small_model.config.m)[stream]
        assert len(tokens) % REPLAY_ROWS
        ts = range(1, len(tokens) + 1)
        want, want_peak = stepwise_logits(small_model, tokens, policy, ts)
        got, peak = teacher_forced_logits(small_model, tokens, policy, ts)
        assert sorted(got) == list(ts)
        worst = max(float(np.max(np.abs(got[t] - want[t]))) for t in ts)
        assert worst <= LOGIT_ATOL, f"max |delta logit| {worst}"
        assert peak == want_peak

    def test_open_block_stream_is_open(self, small_model):
        grammar = BlockGrammar(small_model.config.m)
        for token in streams(small_model.config.m)["ends-in-open-block"]:
            grammar.step(token)
        assert grammar.open_start is not None and grammar.blocks

    def test_only_checkpoints_are_returned(self, small_model):
        tokens = streams(small_model.config.m)["three-chunks-and-5"]
        got, _ = teacher_forced_logits(small_model, tokens, CachePolicy.windowed(8), [3, 40])
        assert sorted(got) == [3, 40]

    def test_one_forward_step_over_a_fresh_strict_cache(self, small_model, monkeypatch):
        calls = []

        def spy(model, cache, *tokens, **kwargs):
            calls.append((cache.t, cache.grammar.strict, len(tokens), kwargs))
            return forward_step(model, cache, *tokens, **kwargs)

        monkeypatch.setattr(engine, "forward_step", spy)
        tokens = streams(small_model.config.m)["three-chunks-and-5"]
        teacher_forced_logits(small_model, tokens, CachePolicy.mmsink(2, 1, 2, 11), [3, 40])
        assert calls == [(0, True, len(tokens), {"logits_at": {3, 40}})]


class TestSeparateReplay:
    """The checkpoint logits and peak of the replay equal, bit for bit, those
    of the separate replay pass it replaced."""

    @pytest.mark.parametrize("policy", [CachePolicy.dense(), CachePolicy.windowed(64),
                                        CachePolicy.sink(4, 64),
                                        CachePolicy.mmsink(4, 1, 2, 64)], ids=lambda p: p.kind)
    def test_bitwise_equal(self, small_model, policy):
        tokens = make_stream(np.random.default_rng(17), small_model.config.m, 700)
        ts = sorted({*range(1, len(tokens) + 1, 13), len(tokens)})
        want, want_peak = separate_replay(small_model, tokens, policy, ts)
        got, peak = teacher_forced_logits(small_model, tokens, policy, ts)
        assert sorted(got) == ts
        for t in ts:
            np.testing.assert_array_equal(got[t], want[t])
        assert peak == want_peak
        assert peak < len(tokens) or policy.kind == "dense"


class TestReplayErrors:
    def test_grammar_violation_names_the_same_position(self, small_model, monkeypatch):
        tokens = streams(small_model.config.m)["seven-chunks-and-9"]
        for bad_at in (30, 77):
            broken = tokens[:bad_at] + [Token.bos()] + tokens[bad_at:]
            with pytest.raises(SequenceGrammarError) as stepwise:
                stepwise_logits(small_model, broken, CachePolicy.windowed(8), [1])
            with monkeypatch.context() as patch, pytest.raises(SequenceGrammarError) as batched:
                patch.setattr(engine, "block", None)  # raised before any layer runs
                teacher_forced_logits(small_model, broken, CachePolicy.windowed(8), [1])
            assert str(batched.value) == str(stepwise.value)
            assert str(batched.value).startswith(f"position {bad_at}: ")

    def test_position_table_overflow(self):
        cfg = ModelConfig(layers=1, heads=2, d_model=16, d_ff=32, v_text=32, m=4,
                          q_queries=2, d_feat=4, max_positions=40, seed=1)
        model = Model.init(cfg)
        tokens = make_stream(np.random.default_rng(2), cfg.m, 45)
        with pytest.raises(StateError, match=r"cache position 40 exceeds .*\(40\)"):
            teacher_forced_logits(model, tokens, CachePolicy.dense(), [1])
        # cache-relative positions: a bounded policy never reaches the limit
        got, peak = teacher_forced_logits(model, tokens, CachePolicy.windowed(8), [45])
        assert peak == 8 and np.all(np.isfinite(got[45]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_mask_row_is_the_oracle_retain_set(data):
    """Token i of a replay, one forward_step run over a fresh cache, attends
    the oracle's retain set of the first i tokens and itself; so does row i
    of :func:`retained_rows` over the whole stream's :func:`protected_until`,
    the closed form :func:`retain_set` evaluates."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    m = int(rng.integers(2, 6))
    tokens = make_stream(rng, m, int(rng.integers(2, 90)), v_text=8)
    w = int(rng.integers(2, 30))
    n = int(rng.integers(1, w))
    k_head = int(rng.integers(1, m))
    k_tail = int(rng.integers(1, m - k_head + 1))
    policy = data.draw(st.sampled_from(all_policies(w, n_sink=n, k_head=k_head, k_tail=k_tail)))
    model = Model.init(ModelConfig(layers=1, heads=1, d_model=4, d_ff=4, v_text=8, m=m,
                                   q_queries=1, d_feat=1, max_positions=96, seed=0))
    cache = make_cache(model, policy)
    step = forward_step(model, cache, *tokens)
    grammar = BlockGrammar(m)
    for token in tokens:
        grammar.step(token)
    until = protected_until(policy, grammar.blocks, grammar.open_start, len(tokens))
    rows = retained_rows(policy, until, range(len(tokens) + 1))

    def oracle(i):
        if not i:
            return []
        prefix = MultimodalSequence.from_tokens(tokens[:i], m, allow_in_progress=True)
        return brute_retain_set(policy, prefix.image_blocks, prefix.open_block, i)

    attended = [keys.tolist() for keys, _ in step.attention_rows()]
    assert len(attended) == len(tokens)
    for i, keys in enumerate(attended):
        want = oracle(i)
        assert keys == want + [i], i
        assert np.flatnonzero(rows[i]).tolist() == want, i
    want = oracle(len(tokens))
    assert cache.positions() == np.flatnonzero(rows[-1]).tolist() == want


def test_window_replay_builds_no_full_map(small_model):
    """One T x T float64 map at T = 4,000 is 128 MB; the replay stays under 8 MiB."""
    tokens = make_stream(np.random.default_rng(8), small_model.config.m, 4_000)
    tracemalloc.start()
    try:
        got, peak = teacher_forced_logits(small_model, tokens, CachePolicy.windowed(64),
                                          [len(tokens)])
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak == 64 and np.all(np.isfinite(got[len(tokens)]))
    assert traced_peak < 8 * 2**20, f"traced peak {traced_peak / 2**20:.1f} MiB"
