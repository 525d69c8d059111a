"""Tokenization, sequence grammar, story IO, and training-sample assembly."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsink import seqmodel as sq
from mmsink.cachepolicy import CachePolicy, KvCache
from mmsink.errors import SequenceGrammarError, StoryFormatError
from mmsink.oracle import brute_block_validity
from mmsink.seqmodel import (
    BlockGrammar,
    MultimodalSequence,
    Token,
    TokenKind,
    assemble_training_sequence,
    block_validity,
    hash_word,
    read_stories,
    synth_stories,
    token_from_vocab_id,
    token_label,
    tokenize_text,
    vocab_id,
    vocab_size,
    write_stories,
)


class TestTokenize:
    def test_empty_text(self):
        assert tokenize_text("") == []

    def test_golden_hello_world(self):
        # Frozen bucket ids for the blake2b hash at v_text=256.
        toks = tokenize_text("hello, world.")
        assert [t.kind for t in toks] == [
            TokenKind.WORD, TokenKind.PUNCT, TokenKind.WORD, TokenKind.PUNCT,
        ]
        assert toks[0].value == hash_word("hello") == 125
        assert toks[2].value == hash_word("world") == 15
        assert toks[1].value == 0  # ","
        assert toks[3].value == 1  # "."

    def test_repeated_word_same_id(self):
        a, b = tokenize_text("a a")
        assert a == b

    def test_punct_splits_inside_chunk(self):
        toks = tokenize_text("a,b")
        assert [t.kind for t in toks] == [TokenKind.WORD, TokenKind.PUNCT, TokenKind.WORD]

    def test_consecutive_punct(self):
        toks = tokenize_text("end.;")
        assert [t.kind for t in toks] == [TokenKind.WORD, TokenKind.PUNCT, TokenKind.PUNCT]
        assert toks[1].value == sq.PUNCT_CHARS.index(".")
        assert toks[2].value == sq.PUNCT_CHARS.index(";")

    @given(st.text(max_size=40), st.integers(2, 512))
    @settings(max_examples=60)
    def test_ids_in_range_and_deterministic(self, text, v_text):
        toks = tokenize_text(text, v_text)
        for t in toks:
            if t.kind is TokenKind.WORD:
                assert 0 <= t.value < v_text
            elif t.kind is TokenKind.PUNCT:
                assert 0 <= t.value < sq.N_PUNCT
        assert toks == tokenize_text(text, v_text)


class TestVocab:
    def test_size(self):
        assert vocab_size(8, 256) == 4 + 8 + 5 + 256

    @given(st.integers(0, vocab_size(8, 64) - 1))
    @settings(max_examples=80)
    def test_roundtrip(self, idx):
        tok = token_from_vocab_id(idx, 8, 64)
        assert vocab_id(tok, 8, 64) == idx

    def test_labels(self):
        assert token_label(Token.bos()) == "BOS"
        assert token_label(Token.eoi()) == "EOI"
        assert token_label(Token.img(7)) == "IMG07"
        assert token_label(Token.img(57)) == "IMG57"
        assert token_label(Token.punct(0)) == ","
        assert token_label(Token.word(12)) == "W12"


class TestValidator:
    def test_accepts_simple_sequence(self):
        toks = [Token.bos(), Token.word(1), Token.boi()] + \
            [Token.img(s) for s in range(4)] + [Token.eoi(), Token.eos()]
        seq = MultimodalSequence.from_tokens(toks, 4)
        assert seq.image_blocks == ((2, 7),)

    def test_requires_bos(self):
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens([Token.word(1)], 4)

    def test_rejects_mid_sequence_bos(self):
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens([Token.bos(), Token.word(1), Token.bos()], 4)

    def test_rejects_wrong_slot_order(self):
        toks = [Token.bos(), Token.boi(), Token.img(1)]
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens(toks, 4, allow_in_progress=True)

    def test_rejects_img_outside_block(self):
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens([Token.bos(), Token.img(0)], 4)

    def test_rejects_nested_block(self):
        toks = [Token.bos(), Token.boi(), Token.img(0), Token.boi()]
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens(toks, 4, allow_in_progress=True)

    def test_rejects_short_block(self):
        toks = [Token.bos(), Token.boi(), Token.img(0), Token.eoi()]
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens(toks, 4)

    def test_rejects_tokens_after_eos(self):
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens([Token.bos(), Token.eos(), Token.word(1)], 4)

    def test_in_progress_only_when_allowed(self):
        toks = [Token.bos(), Token.boi(), Token.img(0)]
        seq = MultimodalSequence.from_tokens(toks, 4, allow_in_progress=True)
        assert seq.open_block == 1
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens(toks, 4)


B, W, I, E = Token.boi(), Token.word(1), Token.img, Token.eoi()


class TestErrorPositions:
    @pytest.mark.parametrize("tokens, pos", [
        pytest.param([W, B, I(0), B], 4, id="nested-boi"),
        pytest.param([B, I(1)], 2, id="out-of-order-slot"),
        pytest.param([W, B, I(0), I(1), I(2)], 5, id="slot-at-least-m"),
        pytest.param([B, I(0), E], 3, id="early-eoi"),
        pytest.param([W, B, I(0), Token.eos()], 4, id="eos-inside-block"),
        pytest.param([W, W, B, W], 4, id="word-inside-block"),
        pytest.param([W, Token.eos(), W], 3, id="token-after-eos"),
        pytest.param([W, W, Token.bos()], 3, id="non-initial-bos"),
        pytest.param([W, W, B, I(0)], 3, id="unterminated-block"),
    ])
    def test_error_names_offending_position(self, tokens, pos):
        with pytest.raises(SequenceGrammarError, match=rf"(position|at) {pos}\b"):
            MultimodalSequence.from_tokens([Token.bos()] + tokens, 2)


def _block(m, slots=None):
    return [Token.boi()] + [Token.img(s) for s in range(m if slots is None else slots)]


@st.composite
def grammar_streams(draw):
    """Streams of valid blocks, text, and every token kind, slots up to m."""
    m = draw(st.integers(1, 4))
    full = _block(m) + [Token.eoi()]
    valid = st.one_of(
        st.builds(lambda w: [Token.word(w)], st.integers(0, 7)),
        st.builds(lambda p: [Token.punct(p)], st.integers(0, 4)),
        st.just(full),
    )
    single = st.sampled_from(
        [Token.bos(), Token.eos(), Token.boi(), Token.eoi(), Token.word(3), Token.punct(1)]
        + [Token.img(s) for s in range(m + 1)]
    )
    intruded = st.builds(lambda k, t: full[:k] + [t] + full[k:], st.integers(1, m + 1), single)
    noisy = st.one_of(valid, single.map(lambda t: [t]), intruded,
                      st.integers(0, m).map(lambda k: _block(m, k)))
    parts = draw(st.lists(draw(st.sampled_from([valid, noisy])), max_size=12))
    tail = draw(st.sampled_from([[], [Token.eos()], _block(m, draw(st.integers(0, m)))]))
    head = [Token.bos()] if draw(st.integers(0, 9)) else []
    return m, head + [t for part in parts for t in part] + tail


class TestBlockGrammar:
    @given(grammar_streams())
    @settings(max_examples=300, deadline=None)
    def test_users_agree(self, case):
        m, tokens = case
        assert block_validity(tokens, m) == brute_block_validity(tokens, m)
        cache = KvCache(CachePolicy.dense(), 1, 1, 1, m, strict=False)
        for tok in tokens:
            cache.push(tok, np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))
        expect_ok = bool(tokens) and tokens[0].kind is TokenKind.BOS and not cache.violations
        try:
            seq = MultimodalSequence.from_tokens(tokens, m, allow_in_progress=True)
        except SequenceGrammarError:
            assert not expect_ok
            return
        assert expect_ok
        assert seq.image_blocks == tuple(cache.blocks)
        assert seq.open_block == cache.open_start

    def test_permissive_step_reports_changes(self):
        g = BlockGrammar(2, strict=False)
        assert g.step(Token.bos()).violations == ()
        assert g.step(Token.boi()).completed is None
        g.step(Token.img(0))
        assert g.step(Token.img(1)) == sq.GrammarStep()
        assert g.step(Token.eoi()).completed == (1, 4)
        g.step(Token.boi())
        step = g.step(Token.word(2))
        assert step.abandoned and step.violations == ("WORD token inside an image block",)
        g.step(Token.eos())
        assert g.step(Token.img(0)).violations == (
            "token IMG after EOS", "image slot outside a block")
        assert g.blocks == [(1, 4)] and g.open_start is None

    def test_legal_next(self):
        m, v_text = 2, 3
        outside = [Token.boi()] + [Token.punct(p) for p in range(5)] + \
            [Token.word(w) for w in range(v_text)]
        g = BlockGrammar(m)
        g.step(Token.bos())
        assert g.legal_next(v_text) == [vocab_id(t, m, v_text) for t in outside]
        g.step(Token.boi())
        for expected in (Token.img(0), Token.img(1), Token.eoi()):
            assert g.legal_next(v_text) == [vocab_id(expected, m, v_text)]
            g.step(expected)
        assert g.legal_next(v_text) == [vocab_id(t, m, v_text) for t in outside]


@st.composite
def stories_strategy(draw):
    n_items = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    items = []
    for i in range(n_items):
        text = draw(st.sampled_from([
            "one two.", "a b c;", "hello!", "x, y", "go",
        ]))
        vec = [float(v) for v in draw(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        )]
        if all(v == 0.0 for v in vec):
            vec[0] = 1.0
        items.append(sq.StoryItem(text, tuple(vec)))
    return sq.Story(f"h-{n_items}-{d}", tuple(items))


@pytest.fixture(scope="module")
def story5():
    return synth_stories(1, items_per_story=5, rng_seed=3)[0]


class TestAssemble:
    def test_three_blocks_for_sampled_len_three(self, story5):
        sample = assemble_training_sequence(story5, 3)
        assert len(sample.sequence.image_blocks) == 3

    def test_mask_covers_exactly_final_item_and_eos(self, story5):
        sample = assemble_training_sequence(story5, 3)
        item3 = sq.item_tokens(story5.items[2], sq.DEFAULT_BLOCK_LEN, sq.DEFAULT_V_TEXT)
        n = len(sample.sequence)
        masked = [i for i, m in enumerate(sample.loss_mask) if m]
        # contiguous run: final item tokens then EOS
        assert masked == list(range(n - len(item3) - 1, n))
        assert sample.sequence.tokens[-1].kind is TokenKind.EOS

    def test_mask_cardinality(self, story5):
        for slen in (1, 2, 4, 5):
            sample = assemble_training_sequence(story5, slen)
            item = sq.item_tokens(story5.items[slen - 1], sq.DEFAULT_BLOCK_LEN, sq.DEFAULT_V_TEXT)
            assert sum(sample.loss_mask) == len(item) + 1

    def test_sampled_len_one_prefix_is_only_marker(self, story5):
        sample = assemble_training_sequence(story5, 1)
        marker = tokenize_text(sq.START_MARKER_TEXT)
        first_masked = sample.loss_mask.index(True)
        assert first_masked == 1 + len(marker)
        assert len(sample.sequence.image_blocks) == 1

    def test_target_is_final_item_feature(self, story5):
        sample = assemble_training_sequence(story5, 2)
        assert sample.target_features == (story5.items[1].image_feature,)

    def test_deterministic(self, story5):
        a = assemble_training_sequence(story5, 3)
        b = assemble_training_sequence(story5, 3)
        assert a == b

    def test_out_of_range(self, story5):
        with pytest.raises(ValueError):
            assemble_training_sequence(story5, 0)
        with pytest.raises(ValueError):
            assemble_training_sequence(story5, 6)

    @given(stories_strategy(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_assembler_output_always_validates(self, story, data):
        slen = data.draw(st.integers(1, len(story.items)))
        sample = assemble_training_sequence(story, slen)
        # re-validation is the property: from_tokens raises on any grammar break
        again = MultimodalSequence.from_tokens(sample.sequence.tokens, sample.sequence.m)
        assert again.image_blocks == sample.sequence.image_blocks

    @given(stories_strategy(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_grammar_breaking_mutations_rejected(self, story, data):
        slen = data.draw(st.integers(1, len(story.items)))
        sample = assemble_training_sequence(story, slen)
        tokens = list(sample.sequence.tokens)
        b, e = sample.sequence.image_blocks[0]
        mutations = [
            (0, Token.word(1)),                    # lose BOS
            (b, Token.word(2)),                    # BoI becomes text: slots orphaned
            (b + 1, Token.img(1)),                 # wrong slot order
            (e, Token.word(3)),                    # lose EoI: unterminated block
            (len(tokens) // 2, Token.bos()),       # BOS mid-sequence
        ]
        pos, replacement = data.draw(st.sampled_from(mutations))
        if tokens[pos] == replacement:
            return
        tokens[pos] = replacement
        with pytest.raises(SequenceGrammarError):
            MultimodalSequence.from_tokens(tokens, sample.sequence.m)


class TestSynth:
    def test_count_zero(self):
        assert synth_stories(0) == []

    def test_deterministic(self):
        assert synth_stories(2, 4, rng_seed=7) == synth_stories(2, 4, rng_seed=7)

    def test_default_items_per_story(self):
        stories = synth_stories(2, rng_seed=0)
        assert all(len(s.items) == 30 for s in stories)

    def test_unit_norm_features(self):
        for story in synth_stories(3, 5, rng_seed=1, d_feat=6):
            for item in story.items:
                assert np.linalg.norm(item.image_feature) == pytest.approx(1.0, abs=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            synth_stories(-1)
        with pytest.raises(ValueError):
            synth_stories(1, items_per_story=0)


class TestStoryIO:
    def test_roundtrip(self, tmp_path):
        stories = synth_stories(3, 4, rng_seed=5)
        path = tmp_path / "stories.jsonl"
        write_stories(stories, path)
        assert read_stories(path) == stories

    def test_missing_story_id_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"story_id": "s", "items": [{"text": "a", "image_feature": [1.0]}]}
        bad = {"items": [{"text": "a", "image_feature": [1.0]}]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(StoryFormatError, match="line 2"):
            read_stories(path)

    def test_wrong_feature_length_names_item(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"story_id": "s", "items": [
            {"text": "a", "image_feature": [1.0, 2.0]},
            {"text": "b", "image_feature": [1.0]},
        ]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(StoryFormatError, match="item 1"):
            read_stories(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"story_id": "s"\n')
        with pytest.raises(StoryFormatError, match="line 1"):
            read_stories(path)

    def test_story_invariants(self):
        with pytest.raises(ValueError):
            sq.Story("empty", ())
        with pytest.raises(ValueError):
            sq.Story("zero", (sq.StoryItem("a", ()),))
        with pytest.raises(ValueError):
            sq.Story("ragged", (
                sq.StoryItem("a", (1.0, 2.0)),
                sq.StoryItem("b", (1.0,)),
            ))


class TestPromptSequence:
    def test_prompt_has_no_eos_and_right_blocks(self):
        story = synth_stories(1, items_per_story=4, rng_seed=2)[0]
        prompt = sq.prompt_sequence(story, 2)
        assert len(prompt.image_blocks) == 2
        assert all(t.kind is not TokenKind.EOS for t in prompt.tokens)

    def test_items_out_of_range(self):
        story = synth_stories(1, items_per_story=2, rng_seed=2)[0]
        with pytest.raises(ValueError):
            sq.prompt_sequence(story, 3)
