"""Tokenization, sequence grammar, story IO, and training-sample assembly."""

import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


# every character str.isspace accepts: NBSP, U+3000, the separators U+001C..U+001F, ...
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_WORD_CHARS = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: not c.isspace() and c not in sq.PUNCT_CHARS)


class TestTokenizeWhitespace:
    @given(st.lists(st.text(_WORD_CHARS, min_size=1) | st.sampled_from(sq.PUNCT_CHARS),
                    max_size=8),
           st.lists(st.text(st.sampled_from(WHITESPACE), min_size=1), min_size=9, max_size=9))
    @settings(max_examples=100)
    def test_any_unicode_whitespace_only_separates(self, pieces, gaps):
        """Words and punctuation between runs of any whitespace tokenize as the pieces do."""
        text = gaps[0] + "".join(piece + gap for piece, gap in zip(pieces, gaps[1:]))
        expected = [Token.punct(sq.PUNCT_CHARS.index(p)) if p in sq.PUNCT_CHARS
                    else Token.word(hash_word(p)) for p in pieces]
        assert tokenize_text(text) == expected
        assert tokenize_text("".join(gaps)) == []


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

    def test_equal_tokens_share_one_object_and_label(self):
        # a long generation holds one Token and one label string per distinct token
        assert token_from_vocab_id(40, 8, 64) is token_from_vocab_id(40, 8, 64)
        assert token_label(Token.word(12)) is token_label(Token.word(12))
        assert token_label(Token.img(3)) is token_label(token_from_vocab_id(7, 8, 64))


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
        cache = KvCache(CachePolicy.dense(), 1, 1, 1, m, strict=False)
        for tok in tokens:
            cache.push(tok)
        begins = sum(tok.kind is TokenKind.BOI for tok in tokens)
        assert (begins, len(cache.blocks)) == brute_block_validity(tokens, m)
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
        assert g.legal_next(v_text).tolist() == [vocab_id(t, m, v_text) for t in outside]
        g.step(Token.boi())
        for expected in (Token.img(0), Token.img(1), Token.eoi()):
            assert g.legal_next(v_text).tolist() == [vocab_id(expected, m, v_text)]
            g.step(expected)
        assert g.legal_next(v_text).tolist() == [vocab_id(t, m, v_text) for t in outside]


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

    def test_non_object_line_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"story_id": "s", "items": [{"text": "a", "image_feature": [1.0]}]}
        path.write_text(json.dumps(good) + "\n[1, 2]\n")
        with pytest.raises(StoryFormatError) as info:
            read_stories(path)
        assert str(info.value) == f"{path}: line 2: not a JSON object"

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


class TestCsvValue:
    @pytest.mark.parametrize("cell, value", [
        ("12", 12), ("", None), ("0.5", 0.5), ("1e-05", 1e-05), ("-1.0", -1.0),
        ("window", "window"), ("-5", "-5"), ("1_000", "1_000"), (" 1_0.5 ", " 1_0.5 "),
        ("0.50", "0.50"), ("1e-5", "1e-5"), ("١", "١"),
    ])
    def test_a_float_is_read_only_from_its_repr(self, cell, value):
        got = sq.csv_value(cell)
        assert type(got) is type(value) and got == value

    @pytest.mark.parametrize("value", [0.1, 1 / 3, 1e-300, 2.5e17, -0.0, 123.0])
    def test_every_repr_reads_back(self, value):
        assert sq.csv_value(repr(value)) == value


_MAX = sys.float_info.max
_NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 10**400, -10**400,
     int(_MAX), -int(_MAX), int(_MAX) + 1, -int(_MAX) - 1]))
_ITEMS = st.one_of(_NUMBERS, st.text(max_size=3), st.booleans(), st.none())
_VALUES = st.recursive(_ITEMS, lambda inner: st.lists(inner, max_size=6), max_leaves=20)


class TestListKinds:
    """The list kinds that test item types in C loops agree with their per-item definitions."""

    PER_ITEM = {
        "a list of strings": lambda x: type(x) is str,
        "a list of integers": lambda x: type(x) is int,
        "a list of numbers": lambda x: type(x) is float or type(x) is int and -_MAX <= x <= _MAX,
    }

    @given(st.one_of(st.lists(_NUMBERS, max_size=8), st.lists(st.integers(), max_size=8),
                     st.lists(st.text(max_size=3), max_size=8), st.lists(_VALUES, max_size=8),
                     _VALUES), st.sampled_from(sorted(PER_ITEM)))
    @example([0.5, 10**400], "a list of numbers")
    @example([-int(_MAX) - 1], "a list of numbers")
    @example([1, True], "a list of integers")
    @example("ab", "a list of strings")
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_per_item_definition(self, value, kind):
        item_ok = self.PER_ITEM[kind]
        expected = type(value) is list and all(item_ok(x) for x in value)
        assert sq.FIELD_KINDS[kind](value) is expected

    @pytest.mark.parametrize("big", [10**400, -10**400, int(_MAX) + 1, -int(_MAX) - 1])
    def test_number_list_holds_ints_to_the_float_range(self, big):
        assert not sq.FIELD_KINDS["a list of numbers"]([0.5, big])
        edge = [0.5, int(_MAX) if big > 0 else -int(_MAX)]
        assert sq.FIELD_KINDS["a list of numbers"](edge)
        assert np.isinf(np.array(edge, dtype=np.float64)).sum() == 0  # numpy takes it whole
