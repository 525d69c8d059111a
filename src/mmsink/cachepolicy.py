"""KV-cache retention policies.

Four strategies over the key/value entries kept during autoregressive
generation:

* dense: keep every entry.
* window: keep only the most recent ``w`` entries.
* sink: keep the first ``n_sink`` entries plus the most recent ``w - n_sink``,
  so the total budget stays at ``w``.
* mmsink: like sink, and additionally keep, for every completed image block,
  its begin marker, the first ``k_head`` slots, the last ``k_tail`` slots,
  and its end marker. Tokens of an in-progress image block are never evicted
  until the block closes. Punctuation gets no special treatment.

The sink budget lives inside the window budget, so window and sink caches
are always the same size; the image anchors of mmsink are extra on top,
``2 + k_head + k_tail`` per completed block with no bound on their number.

All four are one rule. Each position p carries ``until[p]``, the longest
prefix that protects it (:func:`protected_until`), and is retained after t
tokens when ``t <= w``, ``p >= t - (w - n_sink)`` or ``t <= until[p]``
(dense has an unbounded window). :func:`retained_rows` evaluates the rule
for a whole stream, and :class:`KvCache` evicts with it at the end of every
push.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, SequenceGrammarError
from .seqmodel import BlockGrammar, Token

# the parameters each kind reads, in its factory's order
KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "dense": (),
    "window": ("window",),
    "sink": ("n_sink", "window"),
    "mmsink": ("n_sink", "k_head", "k_tail", "window"),
}
POLICY_KINDS = tuple(KIND_PARAMS)


@dataclass(frozen=True)
class CachePolicy:
    """Retention strategy plus its numeric parameters.

    Each parameter in the kind's :data:`KIND_PARAMS` entry is at least 1,
    and the sinks fit inside the window; every other parameter is 0.
    """

    kind: str
    window: int = 0
    n_sink: int = 0
    k_head: int = 0
    k_tail: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KIND_PARAMS:
            raise ConfigError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        reads = KIND_PARAMS[self.kind]
        for name, value in self.params().items():
            if name in reads and value < 1:
                raise ConfigError(f"{self.kind} policy needs a positive {name}, got {value}")
            if name not in reads and value != 0:
                raise ConfigError(f"{self.kind} policy takes no {name}, got {value}")
        if self.n_sink and self.n_sink >= self.window:
            raise ConfigError(f"n_sink {self.n_sink} must be smaller than window {self.window}")

    @staticmethod
    def dense() -> "CachePolicy":
        return CachePolicy("dense")

    @staticmethod
    def windowed(window: int) -> "CachePolicy":
        return CachePolicy("window", window=window)

    @staticmethod
    def sink(n_sink: int, window: int) -> "CachePolicy":
        return CachePolicy("sink", window=window, n_sink=n_sink)

    @staticmethod
    def mmsink(n_sink: int, k_head: int, k_tail: int, window: int) -> "CachePolicy":
        return CachePolicy("mmsink", window=window, n_sink=n_sink, k_head=k_head, k_tail=k_tail)

    def params(self) -> dict[str, int]:
        """The numeric parameters by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "kind"}

    def check_block_length(self, m: int) -> None:
        """Anchors must fit inside one image block of length ``m``."""
        if self.k_head + self.k_tail > m:
            raise ConfigError(
                f"k_head {self.k_head} + k_tail {self.k_tail} exceeds block length {m}"
            )

    def describe(self) -> str:
        """The kind, then the parameters it reads as the flags name them."""
        args = ", ".join(f"{name}={getattr(self, name)}" for name in KIND_PARAMS[self.kind])
        return f"{self.kind}({args})" if args else self.kind


_FOREVER = np.iinfo(np.int64).max


def _completed_until(policy: CachePolicy, b: int, e: int, p: np.ndarray) -> np.ndarray:
    """``until`` of positions ``p`` of the completed block (b, e).

    Sinks and the anchors (begin and end marker, first ``k_head`` and last
    ``k_tail`` slots) are protected forever, the other members until e.
    """
    anchor = (p < policy.n_sink) | (p <= b + policy.k_head) | (p >= e - policy.k_tail)
    return np.where(anchor, _FOREVER, e)


def _recent(policy: CachePolicy) -> int:
    """How many of the latest positions the policy keeps unconditionally."""
    return _FOREVER if policy.kind == "dense" else policy.window - policy.n_sink


def _kept(policy: CachePolicy, t, p, until):
    """The retention rule: is position ``p < t`` retained after ``t`` tokens?

    It is when ``t`` is within the window, p is among the latest
    :func:`_recent` positions (all of them under dense), or p is protected
    for prefixes up to ``until`` and t is one of them.
    """
    return (t <= policy.window) | (p >= t - _recent(policy)) | (t <= until)


def protected_until(
    policy: CachePolicy,
    blocks: Sequence[tuple[int, int]],
    open_start: int | None,
    t: int,
) -> np.ndarray:
    """For each position below ``t``, the longest prefix that protects it.

    ``blocks`` and ``open_start`` are the block structure of the first
    ``t`` tokens. Sinks, image anchors and the members of the open block
    are protected after any number of tokens; the other members of a
    completed block only while it is open, that is for prefixes up to its
    end marker's position; everything else never (0).
    """
    p = np.arange(t)
    until = np.where(p < policy.n_sink, _FOREVER, 0)
    if policy.kind == "mmsink":
        for b, e in blocks:
            until[b : e + 1] = _completed_until(policy, b, e, p[b : e + 1])
        if open_start is not None:
            until[open_start:] = _FOREVER
    return until


def retained_rows(
    policy: CachePolicy,
    until: np.ndarray,
    steps: Sequence[int],
    positions: np.ndarray | None = None,
) -> np.ndarray:
    """Retention as a boolean (len(steps), len(until)) array.

    Entry [r, j] says whether position ``positions[j]`` (default: j) is
    retained after ``steps[r]`` tokens, given its ``until`` from
    :func:`protected_until` of a stream at least that long, or from
    :meth:`KvCache.entries`: the position must precede the step and pass
    the retention rule.
    """
    i = np.asarray(steps, dtype=np.int64)[:, None]
    p = np.arange(len(until)) if positions is None else positions
    return (p < i) & _kept(policy, i, p, until)


def retain_set(
    policy: CachePolicy,
    blocks: Sequence[tuple[int, int]],
    open_start: int | None,
    t: int,
) -> list[int]:
    """Positions retained after ``t`` tokens, in ascending order.

    ``blocks`` and ``open_start`` are the block structure of the first
    ``t`` tokens. This is the last row of :func:`retained_rows`.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    until = protected_until(policy, blocks, open_start, t)
    return np.flatnonzero(retained_rows(policy, until, [t])[0]).tolist()


def bytes_estimate(
    count: int,
    layers: int,
    heads: int,
    d_head: int,
    scalar_width: int = 8,
) -> int:
    """Cache footprint: one key and one value vector per entry, layer, head."""
    return count * layers * heads * 2 * d_head * scalar_width


class KvCache:
    """Retained key/value entries for one generation run.

    The retained position set is identical across layers and heads, so
    positions and block structure are stored once. Keys and values live in
    one (layers, 2, heads, capacity, d_head) array (see :meth:`kv`),
    positions and ``until`` in one (2, capacity) int64 array. A decode step
    of one or more tokens adds them with :meth:`append`, writes their keys
    and values into their rows in place, attends over the entries, then
    evicts with :meth:`push`.

    Each entry also carries its ``until``, the value :func:`protected_until`
    gives its position, kept current from the grammar's events: an entry
    starts protected forever if it is a sink or (mmsink) opens or extends a
    block, and at 0 otherwise; a completed block takes its values from the
    same rule as :func:`protected_until`; an abandoned block's non-sink
    members drop to the position of the token that broke it, the last
    prefix in which the block was open. So ``until`` only ever decreases,
    and its value after a run of appended tokens gives the retention of
    every prefix within the run (:meth:`entries`). A push therefore evicts
    once, at the end of the run, the entries that fail the rule
    :func:`retained_rows` evaluates, and after it the positions equal
    :func:`retain_set` at the current t. Past the window, every entry older
    than the latest :func:`_recent` positions is protected forever, so a
    push tests only the entries that leave them and the tail whose
    ``until`` the run rewrote.

    Block structure comes from one :class:`BlockGrammar` fed every appended
    token. In strict mode a structurally illegal token raises
    :class:`SequenceGrammarError` and leaves the cache untouched, also when
    it is not the first token of an append. In permissive mode (used by
    free-running generation) violations are recorded as ``t=<position>:
    <message>`` and the offending token is treated as plain content: an
    in-progress block broken by an illegal token is abandoned and loses its
    eviction protection, and never contributes anchors.
    """

    def __init__(
        self,
        policy: CachePolicy,
        layers: int,
        heads: int,
        d_head: int,
        m: int,
        strict: bool = True,
    ):
        policy.check_block_length(m)
        self.policy = policy
        self.layers = layers
        self.heads = heads
        self.d_head = d_head
        self.m = m
        self.grammar = BlockGrammar(m, strict)

        cap = 64
        self._kv = np.empty((layers, 2, heads, cap, d_head))
        self._pos_until = np.empty((2, cap), dtype=np.int64)
        self._count = 0
        self._pushed = 0  # entries before the tokens appended since the last push

        self.violations: list[str] = []
        self.peak_entries = 0

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._count

    def positions(self) -> list[int]:
        return self._pos_until[0, : self._count].tolist()

    def kv(self) -> np.ndarray:
        """The entries' keys and values, a (layers, 2, heads, size, d_head)
        view: layer l's keys are ``[l, 0]``, its values ``[l, 1]``."""
        return self._kv[..., : self._count, :]

    @property
    def t(self) -> int:
        """Tokens pushed so far."""
        return self.grammar.t

    @property
    def blocks(self) -> list[tuple[int, int]]:
        return self.grammar.blocks

    @property
    def open_start(self) -> int | None:
        return self.grammar.open_start

    @property
    def in_block(self) -> bool:
        return self.grammar.open_start is not None

    @property
    def next_slot(self) -> int | None:
        """Slot index the open block expects next, or None outside a block."""
        return self.grammar.next_slot if self.in_block else None

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions and ``until`` of the entries, as views. After an
        :meth:`append`, :func:`retained_rows` over them gives the entries
        retained after every prefix of the appended tokens, because ``until``
        only decreases."""
        return self._pos_until[0, : self._count], self._pos_until[1, : self._count]

    # -- mutation -----------------------------------------------------------

    def reserve(self, rows: int) -> None:
        """Grow the buffers to exactly ``rows`` rows, keeping the entries, if
        they hold fewer. A caller that knows how many entries the run will
        hold at most allocates them once; :meth:`append` grows by doubling."""
        c = self._count
        if rows > self._pos_until.shape[1]:
            kv = np.empty((self.layers, 2, self.heads, rows, self.d_head))
            kv[..., :c, :] = self._kv[..., :c, :]
            pos_until = np.empty((2, rows), dtype=np.int64)
            pos_until[:, :c] = self._pos_until[:, :c]
            self._kv, self._pos_until = kv, pos_until

    def _compact(self, drop: list[int]) -> None:
        """Remove the entries at the ascending indices ``drop``, shifting each
        run of kept entries left over the dropped ones before it."""
        ends = drop[1:] + [self._count]
        for shift, (i, end) in enumerate(zip(drop, ends), start=1):
            src, dst = slice(i + 1, end), slice(i + 1 - shift, end - shift)
            self._kv[..., dst, :] = self._kv[..., src, :]
            self._pos_until[:, dst] = self._pos_until[:, src]
        self._count -= len(drop)

    def append(self, *tokens: Token) -> None:
        """Make ``tokens`` the next entries without evicting: step the grammar
        once per token, record their positions and ``until`` (rewriting the
        ``until`` of a block they complete or abandon), and grow the buffers.
        The keys and values of their rows, the last ``len(tokens)`` of
        :meth:`kv`, are the caller's to write. A strict rejection restores
        the grammar and every ``until`` and raises, so no entry is added.
        :meth:`push` evicts.
        """
        policy, grammar = self.policy, self.grammar
        mmsink, sinks = policy.kind == "mmsink", policy.n_sink
        n, c, t0 = len(tokens), self._count, grammar.t
        if c + n > self._pos_until.shape[1]:
            self.reserve(max(2 * self._pos_until.shape[1], c + n))
        until = self._pos_until[1]
        # An open block's members are never evicted, so they are the last
        # entries, at consecutive positions, and an event that closes the
        # block rewrites the tail of ``until`` from its start on. Before
        # that, all of them are protected forever.
        start = c - (t0 - grammar.open_start) if mmsink and self.in_block else c
        state = grammar.save()
        try:
            for i, token in enumerate(tokens, start=c):
                pos, open_start = t0 + i - c, grammar.open_start
                change = grammar.step(token)
                if change.violations:
                    self.violations.extend(f"t={pos}: {message}" for message in change.violations)
                forever = pos < sinks or (mmsink and grammar.open_start is not None)
                until[i] = _FOREVER if forever else 0
                if mmsink and change.completed is not None:
                    b, e = change.completed
                    until[i - (e - b) : i + 1] = _completed_until(policy, b, e, np.arange(b, e + 1))
                elif mmsink and change.abandoned:
                    # protected while the block was open: for prefixes up to this token
                    until[i - (pos - max(open_start, sinks)) : i] = pos
        except SequenceGrammarError:
            grammar.restore(state)
            until[start:c] = _FOREVER
            raise
        self._pos_until[0, c : c + n] = np.arange(t0, t0 + n) if n > 1 else t0
        self._count = c + n

    def push(self, *tokens: Token) -> list[int]:
        """:meth:`append` ``tokens``, then apply the policy's eviction once to
        every token appended since the last push. After the push the
        retained position set equals ``retain_set`` at the new t, exactly as
        after one push per token. Returns the entry count after each of
        those tokens.
        """
        if tokens:
            self.append(*tokens)
        policy, c, t = self.policy, self._pushed, self.t
        n, t0 = self._count - c, t - (self._count - c)
        if not n:
            return []
        # The latest _recent entries pass the rule whatever their until. Of the
        # older ones, only those that left them since the last push, and those of
        # a block the appends closed (at most m + 1 entries before c), can fail
        # where that push passed them: usually one entry, so Python ints suffice.
        recent = _recent(policy)
        pos, until = self._pos_until
        drop = [i for i in range(max(0, c - max(recent, self.m + 1)), c + n - recent)
                if not _kept(policy, t, int(pos[i]), int(until[i]))]
        sizes = [c + n - len(drop)]
        if n > 1:
            # A dropped entry was retained while t <= max(window, p + recent,
            # until), the rule's three clauses as bounds on t; so the count
            # after each token leaves out the entries evicted by then.
            gone = sorted(max(policy.window, int(pos[i]) + recent, int(until[i])) + 1
                          for i in drop)
            sizes = [c + k - bisect.bisect_right(gone, t0 + k) for k in range(1, n + 1)]
        if drop:
            self._compact(drop)
        self._pushed = self._count
        self.peak_entries = max(self.peak_entries, *sizes)
        return sizes
