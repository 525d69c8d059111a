"""Retention sets, cache mutation, eviction, and entry order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_policies, make_stream
from mmsink.cachepolicy import (
    BlockHistory,
    CachePolicy,
    KvCache,
    bytes_estimate,
    entry_count,
    retain_set,
)
from mmsink.errors import ConfigError, SequenceGrammarError
from mmsink.oracle import brute_retain_set
from mmsink.seqmodel import MultimodalSequence, Token


def flat_seq(t: int, m: int = 8) -> MultimodalSequence:
    return MultimodalSequence.from_tokens(
        [Token.bos()] + [Token.word(i % 16) for i in range(t - 1)], m
    )


def push_zeros(cache: KvCache, token: Token) -> None:
    z = np.zeros((cache.layers, cache.heads, cache.d_head))
    cache.push(token, z, z)


class TestPolicyConfig:
    def test_sink_budget_must_fit_window(self):
        with pytest.raises(ConfigError):
            CachePolicy.sink(4, 4)
        with pytest.raises(ConfigError):
            CachePolicy.sink(5, 4)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            CachePolicy("lru", window=4)

    def test_anchors_must_fit_block(self):
        pol = CachePolicy.mmsink(1, 3, 3, 8)
        with pytest.raises(ConfigError):
            pol.check_block_length(4)
        pol.check_block_length(8)

    def test_positive_params(self):
        with pytest.raises(ConfigError):
            CachePolicy.windowed(0)
        with pytest.raises(ConfigError):
            CachePolicy.mmsink(1, 0, 1, 8)


class TestRetainSet:
    def test_dense_t5(self):
        assert retain_set(CachePolicy.dense(), flat_seq(5), 5) == [0, 1, 2, 3, 4]

    def test_window3_t5(self):
        assert retain_set(CachePolicy.windowed(3), flat_seq(5), 5) == [2, 3, 4]

    def test_sink_n1_w3_t10(self):
        # frozen from the brute-force enumerator
        assert retain_set(CachePolicy.sink(1, 3), flat_seq(10), 10) == [0, 8, 9]

    def test_mmsink_block_anchors(self):
        # block at (BoI@2, slots@3..6, EoI@7), m=4, t=12
        toks = [Token.bos(), Token.word(1), Token.boi()] + \
            [Token.img(s) for s in range(4)] + [Token.eoi()] + \
            [Token.word(i) for i in range(4)]
        seq = MultimodalSequence.from_tokens(toks, 4)
        got = retain_set(CachePolicy.mmsink(1, 1, 1, 4), seq, 12)
        assert got == [0, 2, 3, 6, 7, 9, 10, 11]

    def test_full_prefix_upto_window(self):
        for pol in all_policies(8):
            for t in range(1, 9):
                assert retain_set(pol, flat_seq(t), t) == list(range(t))

    def test_t_mismatch_is_error(self):
        with pytest.raises(ValueError):
            retain_set(CachePolicy.dense(), flat_seq(5), 6)

    def test_window_and_sink_same_cardinality(self):
        for t in (1, 5, 9, 30, 100):
            w = retain_set(CachePolicy.windowed(9), flat_seq(t), t)
            s = retain_set(CachePolicy.sink(3, 9), flat_seq(t), t)
            assert len(w) == len(s) == min(t, 9)

    def test_in_progress_block_fully_retained(self):
        toks = [Token.bos()] + [Token.word(i) for i in range(20)] + \
            [Token.boi(), Token.img(0), Token.img(1)]
        seq = MultimodalSequence.from_tokens(toks, 4, allow_in_progress=True)
        got = retain_set(CachePolicy.mmsink(1, 1, 1, 4), seq, len(seq))
        assert {21, 22, 23} <= set(got)


class TestEntryCount:
    def test_dense_1000(self):
        assert entry_count(CachePolicy.dense(), BlockHistory(), 1000) == 1000

    def test_window_equals_sink(self):
        hist = BlockHistory()
        assert entry_count(CachePolicy.windowed(100), hist, 1000) == 100
        assert entry_count(CachePolicy.sink(4, 100), hist, 1000) == 100

    def test_mmsink_extra_anchors(self):
        # five completed blocks (m=8) fully outside the window and after sinks
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        hist = BlockHistory(blocks)
        pol = CachePolicy.mmsink(4, 1, 2, 100)
        assert entry_count(pol, hist, 1000) == 100 + 5 * (2 + 1 + 2)

    def test_ordering_matches_memory_relation(self):
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        hist = BlockHistory(blocks)
        t = 1000
        dense = entry_count(CachePolicy.dense(), hist, t)
        mm = entry_count(CachePolicy.mmsink(4, 1, 2, 100), hist, t)
        sink = entry_count(CachePolicy.sink(4, 100), hist, t)
        win = entry_count(CachePolicy.windowed(100), hist, t)
        assert dense > mm > sink == win

    def test_mmsink_upper_bound(self):
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        hist = BlockHistory(blocks, open_start=990)
        pol = CachePolicy.mmsink(4, 1, 2, 100)
        m = 8
        bound = 100 + len(blocks) * (2 + 1 + 2) + m
        assert entry_count(pol, hist, 1000) <= bound

    def test_bytes_estimate(self):
        assert bytes_estimate(125, layers=2, heads=2, d_head=32, scalar_width=8) == \
            125 * 2 * 2 * 2 * 32 * 8


class TestBruteOracleAgreement:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_retain_matches_brute(self, data):
        rng_seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(rng_seed)
        m = int(rng.integers(2, 8))
        t = int(rng.integers(2, 120))
        tokens = make_stream(rng, m, t)
        seq = MultimodalSequence.from_tokens(tokens, m, allow_in_progress=True)
        w = int(rng.integers(2, 40))
        n = int(rng.integers(1, max(2, w)))
        kind = data.draw(st.sampled_from(["dense", "window", "sink", "mmsink"]))
        if kind == "dense":
            pol = CachePolicy.dense()
        elif kind == "window":
            pol = CachePolicy.windowed(w)
        elif kind == "sink":
            n = min(n, w - 1) or 1
            pol = CachePolicy.sink(n, w)
        else:
            n = min(n, w - 1) or 1
            k_head = int(rng.integers(1, m)) if m > 1 else 1
            k_tail = int(rng.integers(1, m - k_head + 1)) if m - k_head >= 1 else 1
            pol = CachePolicy.mmsink(n, k_head, k_tail, w)
        assert retain_set(pol, seq, t) == brute_retain_set(pol, seq, t)


class TestKvCachePush:
    def test_window_keeps_last_three(self):
        cache = KvCache(CachePolicy.windowed(3), 1, 1, 2, 4)
        for tok in [Token.bos()] + [Token.word(i) for i in range(4)]:
            push_zeros(cache, tok)
        assert cache.positions() == [2, 3, 4]

    def test_dense_size_equals_t(self):
        cache = KvCache(CachePolicy.dense(), 1, 1, 2, 4)
        for i, tok in enumerate([Token.bos()] + [Token.word(j) for j in range(20)]):
            push_zeros(cache, tok)
            assert cache.size == i + 1

    def test_block_protected_then_reduced_to_anchors(self):
        m = 4
        pol = CachePolicy.mmsink(1, 1, 1, 4)
        cache = KvCache(pol, 1, 1, 2, m)
        prefix = [Token.bos(), Token.word(1)]
        block = [Token.boi()] + [Token.img(s) for s in range(m)]
        for tok in prefix:
            push_zeros(cache, tok)
        # while the block is in progress none of its tokens is evicted,
        # even though the window (w=4) is far smaller than the block
        for tok in block:
            push_zeros(cache, tok)
            assert set(range(2, cache.t)) <= set(cache.positions())
        push_zeros(cache, Token.eoi())
        # once completed and outside the window, only the anchors survive
        for i in range(12):
            push_zeros(cache, Token.word(i))
        b, e = 2, 2 + m + 1
        anchors = {b, b + 1, e - 1, e}
        inside = set(cache.positions()) & set(range(b, e + 1))
        assert inside == anchors

    def test_push_matches_retain_set_step_by_step(self):
        rng = np.random.default_rng(17)
        tokens = make_stream(rng, 4, 160)
        for pol in all_policies(11, n_sink=2, k_head=1, k_tail=2):
            cache = KvCache(pol, 2, 2, 4, 4)
            prefix = []
            for tok in tokens:
                prefix.append(tok)
                push_zeros(cache, tok)
                seq = MultimodalSequence.from_tokens(prefix, 4, allow_in_progress=True)
                assert cache.positions() == retain_set(pol, seq, len(prefix)), (
                    f"{pol.kind} diverged at t={len(prefix)}"
                )

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_push_matches_retain_set_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        w = int(rng.integers(3, 20))
        n = int(rng.integers(1, w))
        k_head = 1
        k_tail = min(m - 1, 2) or 1
        pol = CachePolicy.mmsink(n, k_head, k_tail, w)
        cache = KvCache(pol, 1, 1, 2, m)
        prefix = []
        for tok in make_stream(rng, m, 90):
            prefix.append(tok)
            push_zeros(cache, tok)
        seq = MultimodalSequence.from_tokens(prefix, m, allow_in_progress=True)
        assert cache.positions() == retain_set(pol, seq, len(prefix))
        assert cache.positions() == brute_retain_set(pol, seq, len(prefix))

    def test_strict_rejects_img_outside_block(self):
        cache = KvCache(CachePolicy.dense(), 1, 1, 2, 4)
        push_zeros(cache, Token.bos())
        with pytest.raises(SequenceGrammarError):
            push_zeros(cache, Token.img(0))
        # failed push leaves the cache untouched
        assert cache.size == 1 and cache.t == 1

    @pytest.mark.parametrize("bad", [
        Token.img(0), Token.img(2), Token.eoi(), Token.boi(),
        Token.word(1), Token.punct(0), Token.eos(), Token.bos(),
    ])
    def test_strict_rejection_then_correct_token(self, bad):
        cache = KvCache(CachePolicy.mmsink(1, 1, 1, 4), 1, 1, 2, 2)
        for tok in (Token.bos(), Token.boi(), Token.img(0)):
            push_zeros(cache, tok)
        with pytest.raises(SequenceGrammarError):
            push_zeros(cache, bad)
        assert (cache.t, cache.size, cache.next_slot) == (3, 3, 1)
        push_zeros(cache, Token.img(1))
        push_zeros(cache, Token.eoi())
        assert cache.blocks == [(1, 4)]
        assert cache.open_start is None
        assert not cache.violations

    def test_permissive_records_violations(self):
        cache = KvCache(CachePolicy.dense(), 1, 1, 2, 4, strict=False)
        push_zeros(cache, Token.bos())
        push_zeros(cache, Token.img(0))
        push_zeros(cache, Token.eoi())
        assert len(cache.violations) == 2
        assert cache.size == 3

    def test_permissive_abandoned_block_gets_no_anchors(self):
        pol = CachePolicy.mmsink(1, 1, 1, 4)
        cache = KvCache(pol, 1, 1, 2, 4, strict=False)
        push_zeros(cache, Token.bos())
        push_zeros(cache, Token.boi())
        push_zeros(cache, Token.img(0))
        push_zeros(cache, Token.word(5))  # breaks the block
        assert cache.violations
        for i in range(14):
            push_zeros(cache, Token.word(i))
        # the broken block's positions were evicted once outside the window
        assert all(p >= cache.t - pol.window or p < pol.n_sink for p in cache.positions())

    def test_keys_shape_validation(self):
        cache = KvCache(CachePolicy.dense(), 2, 2, 4, 4)
        with pytest.raises(ValueError):
            cache.push(Token.bos(), np.zeros((1, 2, 4)), np.zeros((1, 2, 4)))

    def test_peak_entries_tracked(self):
        cache = KvCache(CachePolicy.windowed(3), 1, 1, 2, 4)
        for tok in [Token.bos()] + [Token.word(i) for i in range(9)]:
            push_zeros(cache, tok)
        assert cache.peak_entries == 3
        dense = KvCache(CachePolicy.dense(), 1, 1, 2, 4)
        for tok in [Token.bos()] + [Token.word(i) for i in range(9)]:
            push_zeros(dense, tok)
        assert dense.peak_entries == 10


class TestRemap:
    """An entry's cache rank is its index in ``positions()``."""

    def test_rank_map(self):
        cache = KvCache(CachePolicy.sink(1, 3), 1, 1, 2, 4)
        for tok in [Token.bos()] + [Token.word(i) for i in range(9)]:
            push_zeros(cache, tok)
        assert cache.positions() == [0, 8, 9]
        assert cache.keys(0).shape[1] == 3

    def test_identity_when_dense(self):
        cache = KvCache(CachePolicy.dense(), 1, 1, 2, 4)
        for tok in [Token.bos()] + [Token.word(i) for i in range(4)]:
            push_zeros(cache, tok)
        assert cache.positions() == list(range(5))

    @given(st.integers(0, 999))
    @settings(max_examples=20, deadline=None)
    def test_strictly_increasing(self, seed):
        rng = np.random.default_rng(seed)
        cache = KvCache(CachePolicy.mmsink(1, 1, 1, 7), 1, 1, 2, 4)
        for tok in make_stream(rng, 4, 50):
            push_zeros(cache, tok)
        positions = cache.positions()
        assert positions == sorted(set(positions))


class TestAnchorPersistence:
    def test_anchors_persist_across_growth(self):
        m = 4
        pol = CachePolicy.mmsink(1, 1, 2, 6)
        cache = KvCache(pol, 1, 1, 2, m)
        push_zeros(cache, Token.bos())
        completed = []
        rng = np.random.default_rng(0)
        for step in range(300):
            if not cache.in_block and step % 11 == 0:
                push_zeros(cache, Token.boi())
            elif cache.in_block:
                s = cache.next_slot
                if s < m:
                    push_zeros(cache, Token.img(s))
                else:
                    push_zeros(cache, Token.eoi())
            else:
                push_zeros(cache, Token.word(int(rng.integers(16))))
            completed = list(cache.blocks)
            held = set(cache.positions())
            for b, e in completed:
                anchors = {b, b + 1, e - 2, e - 1, e}
                assert anchors <= held, f"anchors of block ({b},{e}) missing at t={cache.t}"
