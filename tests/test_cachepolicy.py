"""Retention sets, cache mutation, eviction, and entry order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_policies, make_stream
from mmsink.cachepolicy import CachePolicy, KvCache, bytes_estimate, retain_set
from mmsink.errors import ConfigError, SequenceGrammarError
from mmsink.oracle import brute_retain_set
from mmsink.seqmodel import MultimodalSequence, Token


def flat_seq(t: int, m: int = 8) -> MultimodalSequence:
    return MultimodalSequence.from_tokens(
        [Token.bos()] + [Token.word(i % 16) for i in range(t - 1)], m
    )


def retained(policy: CachePolicy, seq: MultimodalSequence) -> list[int]:
    """``retain_set`` after the whole of ``seq``."""
    return retain_set(policy, seq.image_blocks, seq.open_block, len(seq))


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
        assert retained(CachePolicy.dense(), flat_seq(5)) == [0, 1, 2, 3, 4]

    def test_window3_t5(self):
        assert retained(CachePolicy.windowed(3), flat_seq(5)) == [2, 3, 4]

    def test_sink_n1_w3_t10(self):
        # frozen from the brute-force enumerator
        assert retained(CachePolicy.sink(1, 3), flat_seq(10)) == [0, 8, 9]

    def test_mmsink_block_anchors(self):
        # block at (BoI@2, slots@3..6, EoI@7), m=4, t=12
        toks = [Token.bos(), Token.word(1), Token.boi()] + \
            [Token.img(s) for s in range(4)] + [Token.eoi()] + \
            [Token.word(i) for i in range(4)]
        seq = MultimodalSequence.from_tokens(toks, 4)
        got = retained(CachePolicy.mmsink(1, 1, 1, 4), seq)
        assert got == [0, 2, 3, 6, 7, 9, 10, 11]

    def test_full_prefix_upto_window(self):
        for pol in all_policies(8):
            for t in range(1, 9):
                assert retained(pol, flat_seq(t)) == list(range(t))

    def test_window_and_sink_same_cardinality(self):
        for t in (1, 5, 9, 30, 100):
            w = retained(CachePolicy.windowed(9), flat_seq(t))
            s = retained(CachePolicy.sink(3, 9), flat_seq(t))
            assert len(w) == len(s) == min(t, 9)

    def test_in_progress_block_fully_retained(self):
        toks = [Token.bos()] + [Token.word(i) for i in range(20)] + \
            [Token.boi(), Token.img(0), Token.img(1)]
        seq = MultimodalSequence.from_tokens(toks, 4, allow_in_progress=True)
        got = retained(CachePolicy.mmsink(1, 1, 1, 4), seq)
        assert {21, 22, 23} <= set(got)


class TestEntryCount:
    def test_dense_1000(self):
        assert len(retain_set(CachePolicy.dense(), (), None, 1000)) == 1000

    def test_window_equals_sink(self):
        assert len(retain_set(CachePolicy.windowed(100), (), None, 1000)) == 100
        assert len(retain_set(CachePolicy.sink(4, 100), (), None, 1000)) == 100

    def test_mmsink_extra_anchors(self):
        # five completed blocks (m=8) fully outside the window and after sinks
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        pol = CachePolicy.mmsink(4, 1, 2, 100)
        assert len(retain_set(pol, blocks, None, 1000)) == 100 + 5 * (2 + 1 + 2)

    def test_ordering_matches_memory_relation(self):
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        t = 1000
        dense = len(retain_set(CachePolicy.dense(), blocks, None, t))
        mm = len(retain_set(CachePolicy.mmsink(4, 1, 2, 100), blocks, None, t))
        sink = len(retain_set(CachePolicy.sink(4, 100), blocks, None, t))
        win = len(retain_set(CachePolicy.windowed(100), blocks, None, t))
        assert dense > mm > sink == win

    def test_mmsink_upper_bound(self):
        blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
        pol = CachePolicy.mmsink(4, 1, 2, 100)
        m = 8
        bound = 100 + len(blocks) * (2 + 1 + 2) + m
        assert len(retain_set(pol, blocks, 990, 1000)) <= bound

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
        assert retained(pol, seq) == brute_retain_set(pol, seq.image_blocks, seq.open_block, t)


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
                assert cache.positions() == retained(pol, seq), (
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
        assert cache.positions() == retained(pol, seq)
        assert cache.positions() == brute_retain_set(pol, seq.image_blocks, seq.open_block,
                                                     len(prefix))

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


def _runs(m: int):
    """Token runs for permissive streams: text, complete blocks, blocks
    left open (broken by whatever follows), stray or out-of-order slots,
    and every marker out of place."""
    slots = [Token.img(s) for s in range(m)]
    return st.one_of(
        st.integers(0, 15).map(lambda i: [Token.word(i)]),
        st.just([Token.boi(), *slots, Token.eoi()]),
        st.integers(0, m).map(lambda k: [Token.boi(), *slots[:k]]),
        st.integers(0, m).map(lambda s: [Token.img(s)]),
        st.sampled_from([[Token.boi()], [Token.eoi()], [Token.bos()], [Token.eos()],
                         [Token.punct(0)]]),
    )


class TestPermissiveCache:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_after_every_push(self, data):
        m = data.draw(st.integers(2, 5))
        w = data.draw(st.integers(3, 16))
        n = data.draw(st.integers(1, w - 1))
        k_head = data.draw(st.integers(1, m - 1))
        k_tail = data.draw(st.integers(1, m - k_head))
        policy = data.draw(st.sampled_from(
            [CachePolicy.sink(n, w), CachePolicy.mmsink(n, k_head, k_tail, w)]))
        block = [Token.boi(), *(Token.img(s) for s in range(m)), Token.eoi()]
        breaks = [
            [Token.boi(), Token.img(0), *block],         # nested begin marker
            [Token.boi(), Token.img(1)],                 # slot out of order
            [Token.boi(), Token.img(0), Token.word(3)],  # text inside a block
        ]
        runs = data.draw(st.permutations(breaks + data.draw(st.lists(_runs(m), max_size=30))))
        # the first block starts at position 0, inside the sink range
        stream = block + [token for run in runs for token in run]
        cache = KvCache(policy, 1, 1, 1, m, strict=False)
        for token in stream:
            push_zeros(cache, token)
            want = brute_retain_set(policy, cache.blocks, cache.open_start, cache.t)
            assert cache.positions() == want, f"t={cache.t}"
        assert len(cache.violations) >= len(breaks)


def _blocks_every(period: int, m: int, length: int):
    """BOS, then an image block at positions 1, 1 + period, ... and text
    in between."""
    block = [Token.boi(), *(Token.img(s) for s in range(m)), Token.eoi()]
    yield Token.bos()
    for t in range(1, length):
        i = (t - 1) % period
        yield block[i] if i < len(block) else Token.word(t % 16)


class TestLongRuns:
    """Bookkeeping-only caches (one layer, head and dimension) over long runs."""

    M = 4

    @pytest.mark.parametrize("policy", [CachePolicy.windowed(64), CachePolicy.sink(4, 64)])
    def test_window_and_sink_stay_within_budget(self, policy):
        cache = KvCache(policy, 1, 1, 1, self.M)
        z = np.zeros((1, 1, 1))
        for token in _blocks_every(24, self.M, 100_000):
            cache.push(token, z, z)
            assert cache.size <= policy.window, f"t={cache.t}"
        assert cache.t == 100_000 and len(cache.blocks) == len(range(1, 100_000, 24))

    def test_mmsink_within_anchor_bound(self):
        policy = CachePolicy.mmsink(4, 1, 2, 64)
        anchors = 2 + policy.k_head + policy.k_tail
        cache = KvCache(policy, 1, 1, 1, self.M)
        z = np.zeros((1, 1, 1))
        for token in _blocks_every(24, self.M, 10_000):
            cache.push(token, z, z)
            bound = policy.window + anchors * len(cache.blocks) + self.M + 1
            assert cache.size <= bound, f"t={cache.t}"
        assert cache.t == 10_000 and len(cache.blocks) == len(range(1, 10_000, 24))
        assert cache.positions() == brute_retain_set(policy, cache.blocks, cache.open_start,
                                                     cache.t)


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
