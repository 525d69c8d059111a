"""Interleaved text/image token sequences.

Defines the token taxonomy (text words, punctuation, and fixed-length
image-slot blocks bracketed by begin/end markers), structural validation,
story file ingestion, synthetic story generation, training-sequence
assembly with loss masking, and what every file goes through: the JSON-lines
reader, the JSON field checks and the CSV writer.

All types are immutable after construction and all operations are pure
functions of their inputs and seeds.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import SequenceGrammarError, StoryFormatError

PUNCT_CHARS = ",.;!?"
N_PUNCT = len(PUNCT_CHARS)
# ``\s`` matches exactly the characters for which ``str.isspace`` is true
_TOKEN_PATTERN = re.compile(f"[{re.escape(PUNCT_CHARS)}]|[^{re.escape(PUNCT_CHARS)}\\s]+")

DEFAULT_V_TEXT = 256
DEFAULT_BLOCK_LEN = 8
DEFAULT_FEAT_DIM = 16
DEFAULT_ITEMS_PER_STORY = 30

# Fixed literal run prepended to every assembled training sequence.
START_MARKER_TEXT = "start of the story. User prompt:"


class TokenKind(Enum):
    BOS = "bos"
    EOS = "eos"
    WORD = "word"
    PUNCT = "punct"
    BOI = "boi"
    IMG = "img"
    EOI = "eoi"


# The marker kinds: each one's index is its vocabulary id, its name its label.
MARKERS = (TokenKind.BOS, TokenKind.EOS, TokenKind.BOI, TokenKind.EOI)
N_SPECIALS = len(MARKERS)


@dataclass(frozen=True)
class Token:
    """One sequence element.

    ``value`` carries the word id for WORD, the punctuation index for
    PUNCT, and the slot index for IMG; it is 0 for marker tokens.
    """

    kind: TokenKind
    value: int = 0

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"token value must be non-negative, got {self.value}")
        if self.kind in MARKERS and self.value != 0:
            raise ValueError(f"{self.kind.name} token carries no value")
        if self.kind is TokenKind.PUNCT and self.value >= N_PUNCT:
            raise ValueError(f"punctuation index {self.value} out of range")

    @staticmethod
    def bos() -> "Token":
        return Token(TokenKind.BOS)

    @staticmethod
    def eos() -> "Token":
        return Token(TokenKind.EOS)

    @staticmethod
    def boi() -> "Token":
        return Token(TokenKind.BOI)

    @staticmethod
    def eoi() -> "Token":
        return Token(TokenKind.EOI)

    @staticmethod
    def word(word_id: int) -> "Token":
        return Token(TokenKind.WORD, word_id)

    @staticmethod
    def punct(punct_id: int) -> "Token":
        return Token(TokenKind.PUNCT, punct_id)

    @staticmethod
    def img(slot: int) -> "Token":
        return Token(TokenKind.IMG, slot)


@functools.lru_cache(maxsize=1 << 16)
def token_label(token: Token) -> str:
    """Human-readable label used in attention dumps and statistics. Equal
    tokens share one label string."""
    if token.kind in MARKERS:
        return token.kind.name
    if token.kind is TokenKind.IMG:
        return f"IMG{token.value:02d}"
    if token.kind is TokenKind.PUNCT:
        return PUNCT_CHARS[token.value]
    return f"W{token.value}"


def vocab_size(m: int = DEFAULT_BLOCK_LEN, v_text: int = DEFAULT_V_TEXT) -> int:
    """Total vocabulary: specials + image slots + punctuation + word buckets."""
    return N_SPECIALS + m + N_PUNCT + v_text


def vocab_id(token: Token, m: int = DEFAULT_BLOCK_LEN, v_text: int = DEFAULT_V_TEXT) -> int:
    """Map a token to its dense vocabulary index.

    Layout: the :data:`MARKERS` (BOS=0, EOS=1, BOI=2, EOI=3), then image
    slots, punctuation, and word buckets, in that order.
    """
    kind = token.kind
    if kind is TokenKind.WORD:  # the commonest kind first
        if token.value >= v_text:
            raise ValueError(f"word id {token.value} out of range for vocabulary {v_text}")
        return N_SPECIALS + m + N_PUNCT + token.value
    if kind is TokenKind.IMG:
        if token.value >= m:
            raise ValueError(f"image slot {token.value} out of range for block length {m}")
        return N_SPECIALS + token.value
    if kind is TokenKind.PUNCT:
        return N_SPECIALS + m + token.value
    return MARKERS.index(kind)


@functools.lru_cache(maxsize=1 << 16)
def token_from_vocab_id(idx: int, m: int = DEFAULT_BLOCK_LEN, v_text: int = DEFAULT_V_TEXT) -> Token:
    """Inverse of :func:`vocab_id`. Each id maps to one shared (immutable)
    :class:`Token`, so a long generation holds one object per distinct token."""
    if idx < 0 or idx >= vocab_size(m, v_text):
        raise ValueError(f"vocabulary index {idx} out of range")
    if idx < N_SPECIALS:
        return Token(MARKERS[idx])
    idx -= N_SPECIALS
    if idx < m:
        return Token.img(idx)
    idx -= m
    if idx < N_PUNCT:
        return Token.punct(idx)
    return Token.word(idx - N_PUNCT)


def hash_word(word: str, v_text: int = DEFAULT_V_TEXT) -> int:
    """Stable hash of a word into one of ``v_text`` buckets.

    Uses blake2b so the bucket assignment is identical across processes,
    platforms, and interpreter versions.
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % v_text


def tokenize_text(text: str, v_text: int = DEFAULT_V_TEXT) -> list[Token]:
    """Split text into word and punctuation tokens, order-preserving.

    Each character in ``PUNCT_CHARS`` becomes its own punctuation token;
    each maximal run of characters that are neither punctuation nor
    whitespace (``str.isspace``) becomes a hash-bucketed word token.
    """
    return [Token.punct(PUNCT_CHARS.index(t)) if t in PUNCT_CHARS else
            Token.word(hash_word(t, v_text)) for t in _TOKEN_PATTERN.findall(text)]


@dataclass(frozen=True)
class GrammarStep:
    """What one token did to a :class:`BlockGrammar`.

    ``violations`` are the grammar breaks the token caused (at most two: a
    token after EOS can break the grammar once more on its own);
    ``completed`` is the (boi_pos, eoi_pos) span it closed, and
    ``abandoned`` says it broke an open block.
    """

    violations: tuple[str, ...] = ()
    completed: tuple[int, int] | None = None
    abandoned: bool = False


class BlockGrammar:
    """The image-block grammar as an automaton over one token stream.

    A block is a begin marker, slots 0..m-1 in order, and an end marker;
    text may appear anywhere outside a block, BOS only first, and nothing
    after EOS. The state is the number of tokens read ``t``, the completed
    ``blocks`` as (boi_pos, eoi_pos), the open block's start ``open_start``
    with the slot it expects next, and whether EOS was the last token.

    In strict mode the first violation raises :class:`SequenceGrammarError`
    naming its position, before any state changes. In permissive mode
    violations are reported and the offending token is treated as plain
    content: a block broken by it is abandoned and never completes.
    """

    def __init__(self, m: int, strict: bool = True):
        self.m = m
        self.strict = strict
        self.t = 0
        self.blocks: list[tuple[int, int]] = []
        self.open_start: int | None = None
        self.next_slot = 0
        self.eos_seen = False

    def save(self) -> tuple:
        """The state, for :meth:`restore` to return to."""
        return self.t, len(self.blocks), self.open_start, self.next_slot, self.eos_seen

    def restore(self, state: tuple) -> None:
        """Go back to a state :meth:`save` returned, forgetting the tokens read since."""
        self.t, n_blocks, self.open_start, self.next_slot, self.eos_seen = state
        del self.blocks[n_blocks:]

    def step(self, token: Token) -> GrammarStep:
        """Read one token and report what it did."""
        kind, pos = token.kind, self.t
        is_open = self.open_start is not None
        violations = [f"token {kind.name} after EOS"] if self.eos_seen else []
        message = None
        breaks = False
        if kind is TokenKind.BOS:
            if pos != 0:
                message, breaks = "BOS at non-initial position", is_open
        elif kind is TokenKind.BOI:
            if is_open:
                message, breaks = "nested image block", True
        elif kind is TokenKind.IMG:
            if not is_open:
                message = "image slot outside a block"
            elif token.value != self.next_slot or token.value >= self.m:
                message, breaks = f"image slot {token.value}, expected slot {self.next_slot}", True
        elif kind is TokenKind.EOI:
            if not is_open:
                message = "EOI outside a block"
            elif self.next_slot != self.m:
                message, breaks = f"EOI after {self.next_slot} slots, block length is {self.m}", True
        elif is_open:
            name = "EOS" if kind is TokenKind.EOS else f"{kind.name} token"
            message, breaks = f"{name} inside an image block", True
        if message is not None:
            violations.append(message)
        if violations and self.strict:
            raise SequenceGrammarError(f"position {pos}: {violations[0]}")

        self.t += 1
        self.eos_seen = kind is TokenKind.EOS
        completed = None
        if breaks:
            self.open_start = None
        elif is_open and kind is TokenKind.IMG:
            self.next_slot += 1
        elif is_open and kind is TokenKind.EOI:
            completed = (self.open_start, pos)
            self.blocks.append(completed)
            self.open_start = None
        if kind is TokenKind.BOI:
            self.open_start, self.next_slot = pos, 0
        return GrammarStep(tuple(violations), completed, breaks)

    def legal_next(self, v_text: int) -> np.ndarray:
        """Vocabulary ids constrained decoding may emit next, as an int array.

        Inside a block that is the expected slot, or the end marker once
        every slot is in; outside, a begin marker or any text token. BOS and
        EOS are never offered: constrained runs have a fixed length.
        """
        if self.open_start is not None:
            if self.next_slot < self.m:
                return np.array([vocab_id(Token.img(self.next_slot), self.m, v_text)])
            return np.array([vocab_id(Token.eoi())])
        text = N_SPECIALS + self.m
        ids = np.arange(text - 1, text + N_PUNCT + v_text)
        ids[0] = vocab_id(Token.boi())  # in place of the last image slot's id
        return ids


@dataclass(frozen=True)
class MultimodalSequence:
    """A structurally valid interleaved token sequence.

    ``image_blocks`` lists (boi_pos, eoi_pos) pairs for completed blocks in
    ascending order. ``open_block`` is the position of a trailing
    begin-of-image marker whose block has not closed yet; it is only ever
    non-None for in-progress generation prefixes.
    """

    tokens: tuple[Token, ...]
    image_blocks: tuple[tuple[int, int], ...]
    m: int
    open_block: int | None = None

    def __len__(self) -> int:
        return len(self.tokens)

    @staticmethod
    def from_tokens(
        tokens: Iterable[Token],
        m: int = DEFAULT_BLOCK_LEN,
        allow_in_progress: bool = False,
    ) -> "MultimodalSequence":
        """Validate a token stream against the block grammar.

        Raises :class:`SequenceGrammarError` on the first violation, naming
        its position. With ``allow_in_progress`` a single trailing
        unterminated image block is accepted, which is the state
        mid-generation.
        """
        toks = tuple(tokens)
        if not toks or toks[0].kind is not TokenKind.BOS:
            raise SequenceGrammarError("sequence must start with BOS")
        grammar = BlockGrammar(m)
        for tok in toks:
            grammar.step(tok)
        if grammar.open_start is not None and not allow_in_progress:
            raise SequenceGrammarError(
                f"unterminated image block starting at {grammar.open_start}"
            )
        return MultimodalSequence(toks, tuple(grammar.blocks), m, grammar.open_start)


@dataclass(frozen=True)
class StoryItem:
    text: str
    image_feature: tuple[float, ...]


@dataclass(frozen=True)
class Story:
    """A sequence of (text, image feature) items sharing one feature dimension."""

    story_id: str
    items: tuple[StoryItem, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError(f"story {self.story_id!r} has no items")
        d = len(self.items[0].image_feature)
        if d == 0:
            raise ValueError(f"story {self.story_id!r} has zero-length image features")
        for i, item in enumerate(self.items):
            if len(item.image_feature) != d:
                raise ValueError(
                    f"story {self.story_id!r} item {i} feature length "
                    f"{len(item.image_feature)}, expected {d}"
                )

    @property
    def feat_dim(self) -> int:
        return len(self.items[0].image_feature)


@dataclass(frozen=True)
class TrainingSample:
    """An assembled sequence plus the loss mask over its final item.

    ``target_features`` holds one feature vector per image block whose
    tokens are loss-masked, in block order.
    """

    sequence: MultimodalSequence
    loss_mask: tuple[bool, ...]
    target_features: tuple[tuple[float, ...], ...]

    def masked_blocks(self) -> list[tuple[int, int]]:
        """Image blocks of the sequence whose tokens carry loss."""
        return [(b, e) for (b, e) in self.sequence.image_blocks if self.loss_mask[b]]


def image_block_tokens(m: int) -> list[Token]:
    return [Token.boi(), *(Token.img(s) for s in range(m)), Token.eoi()]


def item_tokens(item: StoryItem, m: int, v_text: int) -> list[Token]:
    """Tokens contributed by one story item: its text then its image block."""
    return tokenize_text(item.text, v_text) + image_block_tokens(m)


def _story_tokens(story: Story, items: int, m: int, v_text: int) -> list[Token]:
    """BOS, the start marker, then the tokens of the first ``items`` story items."""
    tokens = [Token.bos()] + tokenize_text(START_MARKER_TEXT, v_text)
    for item in story.items[:items]:
        tokens.extend(item_tokens(item, m, v_text))
    return tokens


def prompt_sequence(
    story: Story,
    items: int,
    m: int = DEFAULT_BLOCK_LEN,
    v_text: int = DEFAULT_V_TEXT,
) -> MultimodalSequence:
    """Build a generation prompt from the first ``items`` story items (no EOS)."""
    if not 1 <= items <= len(story.items):
        raise ValueError(f"items {items} out of range 1..{len(story.items)}")
    return MultimodalSequence.from_tokens(_story_tokens(story, items, m, v_text), m)


def assemble_training_sequence(
    story: Story,
    sampled_len: int,
    m: int = DEFAULT_BLOCK_LEN,
    v_text: int = DEFAULT_V_TEXT,
) -> TrainingSample:
    """Assemble the first ``sampled_len`` items into a training sequence.

    The sequence is BOS, the start marker, each included item's text and
    image block, then EOS. Loss is masked onto the tokens of the last
    included item and the terminating EOS; that item's image feature is the
    regression target. Assembly is deterministic in (story, sampled_len).
    """
    if not 1 <= sampled_len <= len(story.items):
        raise ValueError(
            f"sampled_len {sampled_len} out of range 1..{len(story.items)}"
        )
    context = _story_tokens(story, sampled_len - 1, m, v_text)
    target_item = story.items[sampled_len - 1]
    target = item_tokens(target_item, m, v_text) + [Token.eos()]
    seq = MultimodalSequence.from_tokens(context + target, m)
    mask = (False,) * len(context) + (True,) * len(target)
    return TrainingSample(seq, mask, (target_item.image_feature,))


# Small template grammar for synthetic story text. Words are plain so the
# hash-bucketed vocabulary sees realistic repetition.
_CHARACTERS = ("the monkey", "the pilot", "a small robot", "the gardener", "the twins")
_VERBS = ("found", "chased", "painted", "repaired", "followed", "lost")
_OBJECTS = ("a red kite", "the old map", "a brass key", "the paper boat", "a glowing stone")
_PLACES = ("near the river", "behind the mill", "on the hill", "in the market", "under the bridge")
_TEMPLATES = (
    "{char} {verb} {obj} {place}.",
    "{char} {verb} {obj}; nobody noticed.",
    "later, {char} {verb} {obj} {place}!",
    "{char} waited, then {verb} {obj}.",
    "why had {char} {verb} {obj}?",
)


def synth_stories(
    count: int,
    items_per_story: int = DEFAULT_ITEMS_PER_STORY,
    rng_seed: int = 0,
    d_feat: int = DEFAULT_FEAT_DIM,
) -> list[Story]:
    """Generate deterministic synthetic stories.

    Text comes from a small template grammar; image features are seeded
    Gaussian vectors normalized to unit length.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if items_per_story < 1:
        raise ValueError("items_per_story must be at least 1")
    rng = np.random.default_rng(rng_seed)
    stories = []
    for s in range(count):
        items = []
        for _ in range(items_per_story):
            template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
            text = template.format(
                char=_CHARACTERS[int(rng.integers(len(_CHARACTERS)))],
                verb=_VERBS[int(rng.integers(len(_VERBS)))],
                obj=_OBJECTS[int(rng.integers(len(_OBJECTS)))],
                place=_PLACES[int(rng.integers(len(_PLACES)))],
            )
            vec = rng.standard_normal(d_feat)
            vec = vec / np.linalg.norm(vec)
            items.append(StoryItem(text, tuple(float(x) for x in vec)))
        stories.append(Story(f"synth-{rng_seed}-{s:04d}", tuple(items)))
    return stories


def write_stories(stories: Iterable[Story], path) -> None:
    """Write stories as JSON lines, one story per line, UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for story in stories:
            record = {
                "story_id": story.story_id,
                "items": [
                    {"text": it.text, "image_feature": list(it.image_feature)}
                    for it in story.items
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def jsonl_objects(path) -> Iterator[tuple[int, dict]]:
    """The line number and object of each non-blank line of a JSONL file,
    parsed one line at a time. A line that is not a JSON object raises
    :class:`ValueError` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise ValueError(f"line {lineno}: not a JSON object")
            yield lineno, rec


def _is(*types):
    return lambda value: type(value) in types


def _item_types(value):  # of a list, in one C loop (no Python call per item); else {None}
    return set(map(type, value)) if type(value) is list else {None}


def _in(low, high, *types):
    return lambda value: type(value) in types and low <= value <= high  # NaN is in no range


_MAX = sys.float_info.max
_FINITE = _in(-_MAX, _MAX, int, float)
_UNIT = _in(0, 1, int, float)


def _number_list(value) -> bool:  # floats, and ints in the float range, as numpy takes them
    types = _item_types(value)  # a second walk, for the ints' range, only if there is one
    return types <= {int, float} and (int not in types or all(
        -_MAX <= v <= _MAX for v in value if type(v) is int))


# what a JSON field or CSV cell (see csv_value) may hold, by the words its
# error uses; a bool is neither an integer nor a number
FIELD_KINDS = {
    "a string": _is(str),
    "a boolean": _is(bool),
    "an integer": _is(int),
    "a count": _in(0, _MAX, int),
    "a finite number": _FINITE,
    "a non-negative finite number": _in(0, _MAX, int, float),
    "a number in [0, 1]": _UNIT,
    "a number in [0, 1] or null": lambda value: value is None or _UNIT(value),
    "a finite number or null": lambda value: value is None or _FINITE(value),
    "a list of finite numbers": lambda value: _number_list(value) and all(map(math.isfinite, value)),
    "a list of lists of finite numbers": lambda value: (
        _item_types(value) <= {list} and all(map(FIELD_KINDS["a list of finite numbers"], value))),
    "an object": _is(dict),
    "'synthetic' or 'generated'": lambda value: value in ("synthetic", "generated"),
    "'constrained' or 'free'": lambda value: value in ("constrained", "free"),
    "a list of strings": lambda value: _item_types(value) <= {str},
    "a list of integers": lambda value: _item_types(value) <= {int},
    "a list of numbers": _number_list,
    "a list of counts": lambda value: (
        _item_types(value) <= {int} and 0 <= min(value, default=0) <= max(value, default=0) <= _MAX),
    "a list of integer pairs": lambda value: (_item_types(value) <= {list} and set(
        map(len, value)) <= {2} and _item_types([v for pair in value for v in pair]) <= {int}),
}


def check_fields(record, fields: dict, where: str) -> None:
    """Check that ``record`` is an object holding exactly the keys of ``fields``, each with a
    value of its kind: a :data:`FIELD_KINDS` name, a table for an object checked as ``where
    key``, or ``[table]`` for a list whose item i is checked as ``where key[i]``. Raises
    :class:`ValueError` after ``where``, naming missing keys, else unknown ones, else a bad one."""
    if not isinstance(record, dict):
        raise ValueError(f"{where} is not an object")
    if record.keys() != fields.keys():  # one C comparison; key lists only when it fails
        missing = [key for key in fields if key not in record]
        raise ValueError(f"{where} missing {missing}" if missing else
                         f"{where} has unknown keys {[key for key in record if key not in fields]}")
    for key, kind in fields.items():
        if type(kind) is str:
            if not FIELD_KINDS[kind](record[key]):
                raise ValueError(f"{where} {key} is not {kind}")
        elif type(kind) is dict:
            check_fields(record[key], kind, f"{where} {key}")
        elif type(record[key]) is not list:
            raise ValueError(f"{where} {key} is not a list")
        else:
            for i, item in enumerate(record[key]):
                check_fields(item, kind[0], f"{where} {key}[{i}]")


def csv_value(cell: str):
    """A CSV cell as a JSON value: plain ASCII digits are an int, an empty cell None,
    a float's ``repr`` (as the writers write floats) that float, any other cell itself."""
    if cell.isascii() and cell.isdigit():
        return int(cell)
    try:
        return float(cell) if repr(float(cell)) == cell else cell
    except ValueError:
        return cell or None


def write_csv(path, header: Iterable[str], rows) -> None:
    """``header`` then ``rows`` as CSV, UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# what a story line and each of its items hold (see check_fields)
ITEM_FIELDS = {"text": "a string", "image_feature": "a list of finite numbers"}
STORY_FIELDS = {"story_id": "a string", "items": [ITEM_FIELDS]}


def read_stories(path) -> list[Story]:
    """Read a JSON-lines story file: one :data:`STORY_FIELDS` object a line.
    Raises :class:`StoryFormatError` naming the file and line, and the item for
    one that fails its fields or whose feature has zero norm or another length
    than the first; and the story for one with no items or another feature
    length than the first story's; and the file for one that holds no story."""
    stories = []
    try:
        for lineno, record in jsonl_objects(path):
            where = f"line {lineno}:"
            check_fields(record, STORY_FIELDS, where)
            for i, item in enumerate(record["items"]):
                if item["image_feature"] and not any(item["image_feature"]):
                    raise ValueError(f"{where} items[{i}] image_feature has zero norm")
            try:  # Story checks that there are items, all of the first one's nonzero length
                story = Story(record["story_id"], tuple(
                    StoryItem(item["text"], tuple(map(float, item["image_feature"])))
                    for item in record["items"]))
            except ValueError as exc:
                raise ValueError(f"{where} {exc}") from None
            if stories and story.feat_dim != stories[0].feat_dim:
                raise ValueError(
                    f"{where} story {story.story_id!r} has {story.feat_dim}-dimensional "
                    f"image features, the first story has {stories[0].feat_dim}")
            stories.append(story)
    except ValueError as exc:  # a line jsonl_objects or the checks above rejected
        raise StoryFormatError(f"{path}: {exc}") from exc
    if not stories:
        raise StoryFormatError(f"{path}: no stories")
    return stories
