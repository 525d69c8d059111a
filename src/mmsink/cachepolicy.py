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
are always the same size; the image anchors of mmsink are extra on top.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .seqmodel import BlockGrammar, MultimodalSequence, Token

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


@dataclass(frozen=True)
class BlockHistory:
    """Image-block structure of a token prefix: completed spans and an
    optionally open trailing block."""

    blocks: tuple[tuple[int, int], ...] = ()
    open_start: int | None = None

    @staticmethod
    def of(prefix: "MultimodalSequence | BlockHistory") -> "BlockHistory":
        if isinstance(prefix, BlockHistory):
            return prefix
        return BlockHistory(tuple(prefix.image_blocks), prefix.open_block)


def _block_anchors(b: int, e: int, k_head: int, k_tail: int) -> set[int]:
    return {b, e} | set(range(b + 1, b + 1 + k_head)) | set(range(e - k_tail, e))


_FOREVER = np.iinfo(np.int64).max


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
    until = np.zeros(t, dtype=np.int64)
    if policy.kind == "mmsink":
        for b, e in blocks:
            until[b : e + 1] = e
            until[sorted(_block_anchors(b, e, policy.k_head, policy.k_tail))] = _FOREVER
        if open_start is not None:
            until[open_start:] = _FOREVER
    if policy.kind in ("sink", "mmsink"):
        until[: policy.n_sink] = _FOREVER
    return until


def retained_rows(policy: CachePolicy, until: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """Retention as a boolean (len(steps), len(until)) array.

    Entry [r, p] says whether position p is retained after ``steps[r]``
    tokens, given :func:`protected_until` of a stream at least that long:
    p must precede the step, and the policy is dense, the step is within
    the window, p is among the window's most recent ``w - n_sink``
    positions, or p is still protected.
    """
    i = np.asarray(steps, dtype=np.int64)[:, None]
    p = np.arange(len(until))
    before = p < i
    if policy.kind == "dense":
        return before
    w = policy.window
    recent = w - (policy.n_sink if policy.kind in ("sink", "mmsink") else 0)
    return before & ((i <= w) | (p >= i - recent) | (i <= until))


def retain_set(
    policy: CachePolicy,
    prefix: MultimodalSequence | BlockHistory,
    t: int,
) -> list[int]:
    """Positions retained after ``t`` tokens, in ascending order.

    ``prefix`` supplies the image-block structure; when it is a full
    sequence its length must equal ``t``. This is the last row of
    :func:`retained_rows` over the prefix.
    """
    if isinstance(prefix, MultimodalSequence) and len(prefix) != t:
        raise ValueError(f"t={t} does not match prefix length {len(prefix)}")
    if t < 1:
        raise ValueError("t must be at least 1")
    history = BlockHistory.of(prefix)
    until = protected_until(policy, history.blocks, history.open_start, t)
    return np.flatnonzero(retained_rows(policy, until, [t])[0]).tolist()


def entry_count(policy: CachePolicy, history: MultimodalSequence | BlockHistory, t: int) -> int:
    """Number of retained entries at step ``t``."""
    return len(retain_set(policy, BlockHistory.of(history), t))


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
        self._count = 0

        self._positions: list[int] = []
        self._tokens: list[Token] = []
        self._protected: set[int] = set()
        self.violations: list[str] = []
        self.peak_entries = 0

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._count

    def positions(self) -> list[int]:
        return list(self._positions)

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
        cap = self._k[0].shape[1]
        if self._count < cap:
            return
        new_cap = cap * 2
        for l in range(self.layers):
            for store in (self._k, self._v):
                bigger = np.empty((self.heads, new_cap, self.d_head))
                bigger[:, : self._count, :] = store[l][:, : self._count, :]
                store[l] = bigger

    def _keep_entry(self, pos: int, t: int) -> bool:
        w = self.policy.window
        n = self.policy.n_sink if self.policy.kind in ("sink", "mmsink") else 0
        if pos >= t - (w - n):
            return True
        if pos in self._protected:
            return True
        return (
            self.policy.kind == "mmsink"
            and self.open_start is not None
            and pos >= self.open_start
        )

    def _compact(self, keep_idx: list[int]) -> None:
        nk = len(keep_idx)
        for l in range(self.layers):
            self._k[l][:, :nk, :] = self._k[l][:, keep_idx, :]
            self._v[l][:, :nk, :] = self._v[l][:, keep_idx, :]
        self._positions = [self._positions[i] for i in keep_idx]
        self._tokens = [self._tokens[i] for i in keep_idx]
        self._count = nk

    def _evict(self, rescan: bool) -> None:
        t = self.t
        if self.policy.kind == "dense" or t <= self.policy.window:
            return
        if rescan:
            keep = [i for i, p in enumerate(self._positions) if self._keep_entry(p, t)]
            if len(keep) != self._count:
                self._compact(keep)
            return
        # The window boundary advances one position per push; only the entry
        # that just left the window can become evictable.
        w = self.policy.window
        n = self.policy.n_sink if self.policy.kind in ("sink", "mmsink") else 0
        boundary = t - (w - n) - 1
        i = bisect_left(self._positions, boundary)
        if i < self._count and self._positions[i] == boundary and not self._keep_entry(boundary, t):
            for l in range(self.layers):
                self._k[l][:, i : self._count - 1, :] = self._k[l][:, i + 1 : self._count, :]
                self._v[l][:, i : self._count - 1, :] = self._v[l][:, i + 1 : self._count, :]
            del self._positions[i]
            del self._tokens[i]
            self._count -= 1

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
        pos = self.t
        change = self.grammar.step(token)
        self.violations.extend(f"t={pos}: {message}" for message in change.violations)
        if change.completed is not None and self.policy.kind == "mmsink":
            self._protected.update(
                _block_anchors(*change.completed, self.policy.k_head, self.policy.k_tail)
            )
        self._grow()
        for l in range(self.layers):
            self._k[l][:, self._count, :] = keys[l]
            self._v[l][:, self._count, :] = values[l]
        self._positions.append(pos)
        self._tokens.append(token)
        self._count += 1
        if self.policy.kind in ("sink", "mmsink") and pos < self.policy.n_sink:
            self._protected.add(pos)
        # A completed or abandoned block can release more than the entry that
        # just left the window, so eviction must rescan every entry.
        self._evict(change.completed is not None or change.abandoned)
        self.peak_entries = max(self.peak_entries, self._count)
