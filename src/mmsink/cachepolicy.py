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
for a whole stream, and :class:`KvCache` evicts with it after every push.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .seqmodel import BlockGrammar, Token

POLICY_KINDS = ("dense", "window", "sink", "mmsink")


@dataclass(frozen=True)
class CachePolicy:
    """Retention strategy plus its numeric parameters.

    Unused parameters are zero: dense has none, window ignores the sink and
    anchor counts, sink ignores the anchor counts.
    """

    kind: str
    window: int = 0
    n_sink: int = 0
    k_head: int = 0
    k_tail: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.kind != "dense" and self.window < 1:
            raise ConfigError(f"{self.kind} policy needs a positive window, got {self.window}")
        if self.kind in ("sink", "mmsink"):
            if self.n_sink < 1:
                raise ConfigError(f"{self.kind} policy needs a positive n_sink, got {self.n_sink}")
            if self.n_sink >= self.window:
                raise ConfigError(
                    f"n_sink {self.n_sink} must be smaller than window {self.window}"
                )
        if self.kind == "mmsink" and (self.k_head < 1 or self.k_tail < 1):
            raise ConfigError("mmsink policy needs positive k_head and k_tail")

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

    def check_block_length(self, m: int) -> None:
        """Anchors must fit inside one image block of length ``m``."""
        if self.kind == "mmsink" and self.k_head + self.k_tail > m:
            raise ConfigError(
                f"k_head {self.k_head} + k_tail {self.k_tail} exceeds block length {m}"
            )

    def describe(self) -> str:
        if self.kind == "dense":
            return "dense"
        if self.kind == "window":
            return f"window(w={self.window})"
        if self.kind == "sink":
            return f"sink(n={self.n_sink}, w={self.window})"
        return (
            f"mmsink(n={self.n_sink}, k_head={self.k_head}, "
            f"k_tail={self.k_tail}, w={self.window})"
        )


_FOREVER = np.iinfo(np.int64).max


def _n_sink(policy: CachePolicy) -> int:
    return policy.n_sink if policy.kind in ("sink", "mmsink") else 0


def _completed_until(policy: CachePolicy, b: int, e: int, p: np.ndarray) -> np.ndarray:
    """``until`` of positions ``p`` of the completed block (b, e).

    Sinks and the anchors (begin and end marker, first ``k_head`` and last
    ``k_tail`` slots) are protected forever, the other members until e.
    """
    anchor = (p < _n_sink(policy)) | (p <= b + policy.k_head) | (p >= e - policy.k_tail)
    return np.where(anchor, _FOREVER, e)


def _recent(policy: CachePolicy) -> int:
    """How many of the latest positions the policy keeps unconditionally."""
    return _FOREVER if policy.kind == "dense" else policy.window - _n_sink(policy)


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
    until = np.where(p < _n_sink(policy), _FOREVER, 0)
    if policy.kind == "mmsink":
        for b, e in blocks:
            until[b : e + 1] = _completed_until(policy, b, e, p[b : e + 1])
        if open_start is not None:
            until[open_start:] = _FOREVER
    return until


def retained_rows(policy: CachePolicy, until: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """Retention as a boolean (len(steps), len(until)) array.

    Entry [r, p] says whether position p is retained after ``steps[r]``
    tokens, given :func:`protected_until` of a stream at least that long:
    p must precede the step and pass the retention rule.
    """
    i = np.asarray(steps, dtype=np.int64)[:, None]
    p = np.arange(len(until))
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
    positions, tokens, and block structure are stored once; keys and values
    live in per-layer arrays of shape (heads, capacity, d_head).

    Each entry also carries its ``until``, the value :func:`protected_until`
    gives its position, kept current from the grammar's events: an entry
    starts protected forever if it is a sink or (mmsink) opens or extends a
    block, and at 0 otherwise; a completed block takes its values from the
    same rule as :func:`protected_until`; an abandoned block's non-sink
    members drop to 0. Every push evicts the entries that fail the rule
    :func:`retained_rows` evaluates, so the positions always equal
    :func:`retain_set` at the current t.

    Block structure comes from one :class:`BlockGrammar` fed every pushed
    token. In strict mode a structurally illegal token raises
    :class:`SequenceGrammarError` and leaves the cache untouched. In
    permissive mode (used by free-running generation) violations are
    recorded as ``t=<position>: <message>`` and the offending token is
    treated as plain content: an in-progress block broken by an illegal
    token is abandoned and loses its eviction protection, and never
    contributes anchors.
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
        self._k = [np.empty((heads, cap, d_head)) for _ in range(layers)]
        self._v = [np.empty((heads, cap, d_head)) for _ in range(layers)]
        self._pos = np.empty(cap, dtype=np.int64)
        self._until = np.empty(cap, dtype=np.int64)
        self._count = 0

        self._tokens: list[Token] = []
        self.violations: list[str] = []
        self.peak_entries = 0

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._count

    def positions(self) -> list[int]:
        return self._pos[: self._count].tolist()

    def tokens(self) -> list[Token]:
        return list(self._tokens)

    def keys(self, layer: int) -> np.ndarray:
        return self._k[layer][:, : self._count, :]

    def values(self, layer: int) -> np.ndarray:
        return self._v[layer][:, : self._count, :]

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

    def set_value(self, layer: int, head: int, index: int, value: np.ndarray) -> None:
        """Overwrite one retained value vector in place (test instrumentation)."""
        self._v[layer][head, index, :] = value

    # -- mutation -----------------------------------------------------------

    def _grow(self) -> None:
        cap = len(self._pos)
        if self._count < cap:
            return
        for l in range(self.layers):
            for store in (self._k, self._v):
                bigger = np.empty((self.heads, 2 * cap, self.d_head))
                bigger[:, :cap, :] = store[l]
                store[l] = bigger
        self._pos = np.concatenate([self._pos, np.empty(cap, dtype=np.int64)])
        self._until = np.concatenate([self._until, np.empty(cap, dtype=np.int64)])

    def _compact(self, drop: list[int]) -> None:
        """Remove the entries at the ascending indices ``drop``, shifting each
        run of kept entries left over the dropped ones before it."""
        ends = drop[1:] + [self._count]
        for shift, (i, end) in enumerate(zip(drop, ends), start=1):
            src, dst = slice(i + 1, end), slice(i + 1 - shift, end - shift)
            for l in range(self.layers):
                self._k[l][:, dst, :] = self._k[l][:, src, :]
                self._v[l][:, dst, :] = self._v[l][:, src, :]
            self._pos[dst] = self._pos[src]
            self._until[dst] = self._until[src]
        for i in reversed(drop):
            del self._tokens[i]
        self._count -= len(drop)

    def push(self, token: Token, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one entry and apply the policy's eviction.

        ``keys`` and ``values`` have shape (layers, heads, d_head). After the
        push the retained position set equals ``retain_set`` at the new t.
        """
        if keys.shape != (self.layers, self.heads, self.d_head):
            raise ValueError(
                f"keys shape {keys.shape}, expected {(self.layers, self.heads, self.d_head)}"
            )
        if values.shape != keys.shape:
            raise ValueError("keys and values shapes differ")
        pos, open_start = self.t, self.open_start
        change = self.grammar.step(token)
        self.violations.extend(f"t={pos}: {message}" for message in change.violations)
        mmsink = self.policy.kind == "mmsink"
        self._grow()
        n = self._count
        for l in range(self.layers):
            self._k[l][:, n, :] = keys[l]
            self._v[l][:, n, :] = values[l]
        self._pos[n] = pos
        forever = pos < _n_sink(self.policy) or (mmsink and self.in_block)
        self._until[n] = _FOREVER if forever else 0
        self._tokens.append(token)
        self._count = n + 1
        # An open block's members are never evicted, so they are the last
        # entries and each event rewrites a tail of ``_until``.
        if mmsink and change.completed is not None:
            b, e = change.completed
            tail = slice(n - (e - b), n + 1)
            self._until[tail] = _completed_until(self.policy, b, e, self._pos[tail])
        elif mmsink and change.abandoned:
            tail = slice(n - (pos - open_start), n)
            self._until[tail][self._pos[tail] >= _n_sink(self.policy)] = 0
        # The latest _recent entries pass the rule whatever their until, so
        # only the older ones are tested.
        old = n + 1 - _recent(self.policy)
        if old > 0:
            kept = _kept(self.policy, self.t, self._pos[:old], self._until[:old])
            drop = np.nonzero(~kept)[0].tolist()
            if drop:
                self._compact(drop)
        self.peak_entries = max(self.peak_entries, self._count)
