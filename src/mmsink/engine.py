"""Deterministic decoder-only transformer over a retained KV cache.

The model is intentionally small: pre-norm blocks, learned absolute position
embeddings indexed by cache position, float64 arithmetic throughout. One
forward step attends only over the entries a retention policy kept, so the
same weights can be driven under dense, window, sink, or mmsink caching and
compared step for step.

Positions are cache-relative: a token entering a cache that currently holds
``c`` entries is embedded at position index ``c``. While nothing has been
evicted this equals the token's original position, which is what makes
pruned-cache runs bitwise identical to dense runs inside the window.

:func:`block` is the one transformer layer: a decode step runs it on one row
over the cache plus itself, feature prediction on the learnable queries over
the cache, :mod:`mmsink.losses` on a whole sequence (causal, no past) and on
the queries over that sequence's key/value prefix, and the teacher-forced
replay on chunks of a token stream, each row masked to the entries its
policy retains. Scores and contexts are BLAS matrix products throughout, so
a decode step and a batched pass agree to rounding (under 1e-15 on the
logits), not bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterable, Sequence

import json

import numpy as np

from .cachepolicy import CachePolicy, KvCache, protected_until, retained_rows
from .errors import ConfigError, SequenceGrammarError, StateError
from .seqmodel import (
    BlockGrammar,
    MultimodalSequence,
    Token,
    token_from_vocab_id,
    token_label,
    vocab_id,
    vocab_size,
)

LN_EPS = 1e-5
REPLAY_ROWS = 16  # rows per teacher-forced replay chunk; bounds its (heads, rows, keys) tiles
_GELU_C = math.sqrt(2.0 / math.pi)


# -- numeric primitives (float64, shared with the training code) -------------

def gelu(x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + 0.044715 * x**3)
    return 0.5 * x * (1.0 + np.tanh(u))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    u = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Normalize over the last axis. Returns (y, cache) for the backward pass."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def layer_norm_grad(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    mean1 = dxhat.mean(axis=-1, keepdims=True)
    mean2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - mean1 - xhat * mean2)
    return dx, dg, db


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    s = x - x.max(axis=axis, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


# -- model --------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    layers: int = 2
    heads: int = 2
    d_model: int = 64
    d_ff: int = 256
    v_text: int = 256
    m: int = 8
    q_queries: int = 4
    d_feat: int = 16
    max_positions: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("layers", "heads", "d_model", "d_ff", "v_text", "m",
                     "q_queries", "d_feat", "max_positions"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.heads:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @property
    def vocab(self) -> int:
        return vocab_size(self.m, self.v_text)


def _layer_param_names(l: int) -> list[str]:
    return [
        f"l{l}.ln1_g", f"l{l}.ln1_b",
        f"l{l}.wq", f"l{l}.wk", f"l{l}.wv", f"l{l}.wo",
        f"l{l}.ln2_g", f"l{l}.ln2_b",
        f"l{l}.w1", f"l{l}.w2",
    ]


def param_names(config: ModelConfig) -> list[str]:
    names = ["tok_emb", "pos_emb", "queries"]
    for l in range(config.layers):
        names.extend(_layer_param_names(l))
    names.extend(["lnf_g", "lnf_b", "w_out", "w_feat"])
    return names


class Model:
    """Immutable-by-convention weight container. Training makes a copy."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.p = params

    @staticmethod
    def init(config: ModelConfig) -> "Model":
        rng = np.random.default_rng(config.seed)
        d, ff = config.d_model, config.d_ff
        scale = 0.02

        def w(*shape):
            return rng.standard_normal(shape) * scale

        p: dict[str, np.ndarray] = {
            "tok_emb": w(config.vocab, d),
            "pos_emb": w(config.max_positions, d),
            "queries": w(config.q_queries, d),
        }
        for l in range(config.layers):
            p[f"l{l}.ln1_g"] = np.ones(d)
            p[f"l{l}.ln1_b"] = np.zeros(d)
            p[f"l{l}.wq"] = w(d, d)
            p[f"l{l}.wk"] = w(d, d)
            p[f"l{l}.wv"] = w(d, d)
            p[f"l{l}.wo"] = w(d, d)
            p[f"l{l}.ln2_g"] = np.ones(d)
            p[f"l{l}.ln2_b"] = np.zeros(d)
            p[f"l{l}.w1"] = w(d, ff)
            p[f"l{l}.w2"] = w(ff, d)
        p["lnf_g"] = np.ones(d)
        p["lnf_b"] = np.zeros(d)
        p["w_out"] = w(d, config.vocab)
        p["w_feat"] = w(d, config.d_feat)
        return Model(config, p)

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.p.items()})


def make_cache(model: Model, policy: CachePolicy, strict: bool = True) -> KvCache:
    c = model.config
    return KvCache(policy, c.layers, c.heads, c.d_head, c.m, strict=strict)


def save_model(model: Model, path) -> None:
    """Serialize config plus flat row-major weight arrays to JSON."""
    payload = {
        "format": "mmsink-model-v1",
        "config": asdict(model.config),
        "weights": {
            name: {
                "shape": list(model.p[name].shape),
                "data": [float(x) for x in model.p[name].ravel()],
            }
            for name in param_names(model.config)
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "mmsink-model-v1":
        raise ConfigError(f"{path}: not a model file")
    config = ModelConfig(**payload["config"])
    params: dict[str, np.ndarray] = {}
    for name in param_names(config):
        if name not in payload["weights"]:
            raise ConfigError(f"{path}: missing weight {name}")
        entry = payload["weights"][name]
        arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{path}: non-finite values in {name}")
        params[name] = arr
    return Model(config, params)


# -- the transformer block ------------------------------------------------------

def block(model: Model, l: int, x: np.ndarray, past_k: np.ndarray, past_v: np.ndarray,
          causal: bool, mask: np.ndarray | None = None,
          ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Pre-norm transformer layer ``l`` over the rows ``x`` (N, d_model).

    The rows attend over ``past_k``/``past_v`` (heads, K, d_head) and, when
    ``causal``, also over their own keys/values up to their own position.
    A boolean ``mask`` (N, K + N) replaces that causal triangle: row r
    attends to exactly the keys where ``mask[r]`` is set (each row needs
    at least one). Returns the output rows and the activations the
    hand-written backward in :mod:`mmsink.losses` reads. The rows' own keys
    and values (``kh``, ``vh``, shape (heads, N, d_head)) are computed only
    when ``causal``.
    """
    cfg = model.config
    p = model.p
    n, H, dh = len(x), cfg.heads, cfg.d_head
    a, lnc1 = layer_norm(x, p[f"l{l}.ln1_g"], p[f"l{l}.ln1_b"])
    qh = (a @ p[f"l{l}.wq"]).reshape(n, H, dh).transpose(1, 0, 2)
    acts = dict(a=a, lnc1=lnc1, qh=qh)
    keys, vals = past_k, past_v
    if causal:
        kh = (a @ p[f"l{l}.wk"]).reshape(n, H, dh).transpose(1, 0, 2)
        vh = (a @ p[f"l{l}.wv"]).reshape(n, H, dh).transpose(1, 0, 2)
        keys = np.concatenate([past_k, kh], axis=1)
        vals = np.concatenate([past_v, vh], axis=1)
        acts.update(kh=kh, vh=vh)
    s = qh @ keys.transpose(0, 2, 1) / math.sqrt(dh)
    if mask is not None:
        s = np.where(mask, s, -np.inf)
    elif causal and n > 1:
        s = np.where(np.tri(n, keys.shape[1], past_k.shape[1], dtype=bool), s, -np.inf)
    pr = softmax(s, axis=2)
    ctx = (pr @ vals).transpose(1, 0, 2).reshape(n, cfg.d_model)
    x_attn = x + ctx @ p[f"l{l}.wo"]
    b, lnc2 = layer_norm(x_attn, p[f"l{l}.ln2_g"], p[f"l{l}.ln2_b"])
    f1 = b @ p[f"l{l}.w1"]
    gact = gelu(f1)
    acts.update(pr=pr, ctx=ctx, b=b, lnc2=lnc2, f1=f1, gact=gact)
    return x_attn + gact @ p[f"l{l}.w2"], acts


# -- single-step forward -------------------------------------------------------

@dataclass
class StepResult:
    logits: np.ndarray                  # (vocab,)
    attention: list[np.ndarray]         # per layer: (heads, retained + 1)


def forward_step(model: Model, cache: KvCache, token: Token) -> StepResult:
    """Run one token through the stack, attending over the retained entries
    plus itself, then push its per-layer keys/values into the cache.

    Every attention row is a softmax over (cache entries, self), so it is
    non-negative and sums to one; causality holds because every cache entry
    is strictly older than the incoming token.
    """
    cfg = model.config
    p = model.p
    H, dh = cfg.heads, cfg.d_head
    if (cache.layers, cache.heads, cache.d_head, cache.m) != (cfg.layers, H, dh, cfg.m):
        raise ValueError(
            f"cache dimensions (L={cache.layers}, H={cache.heads}, d_head={cache.d_head}, "
            f"m={cache.m}) do not match the model"
        )
    c = cache.size
    if c >= cfg.max_positions:
        raise StateError(
            f"cache position {c} exceeds the position table ({cfg.max_positions})"
        )

    vid = vocab_id(token, cfg.m, cfg.v_text)
    x = p["tok_emb"][vid : vid + 1] + p["pos_emb"][c : c + 1]
    k_new = np.empty((cfg.layers, H, dh))
    v_new = np.empty((cfg.layers, H, dh))
    rows: list[np.ndarray] = []
    for l in range(cfg.layers):
        x, acts = block(model, l, x, cache.keys(l), cache.values(l), causal=True)
        k_new[l], v_new[l] = acts["kh"][:, 0], acts["vh"][:, 0]
        rows.append(acts["pr"][:, 0])
    hf, _ = layer_norm(x, p["lnf_g"], p["lnf_b"])
    logits = (hf @ p["w_out"])[0]
    cache.push(token, k_new, v_new)
    return StepResult(logits, rows)


def predict_image_features(model: Model, cache: KvCache) -> np.ndarray:
    """Run the learnable queries over the retained entries and map each
    output latent to feature space. Shape (q_queries, d_feat).

    Legal only when the cache ends right after a begin-of-image marker.
    The queries read the cache but never enter it, nor attend to each other.
    """
    if not (cache.in_block and cache.next_slot == 0):
        raise StateError("image feature prediction requires a freshly opened image block")
    cfg = model.config
    p = model.p
    c, Q = cache.size, cfg.q_queries
    if c + Q > cfg.max_positions:
        raise StateError(
            f"query positions {c}..{c + Q - 1} exceed the position table"
        )

    x = p["queries"] + p["pos_emb"][c : c + Q]
    for l in range(cfg.layers):
        x, _ = block(model, l, x, cache.keys(l), cache.values(l), causal=False)
    hf, _ = layer_norm(x, p["lnf_g"], p["lnf_b"])
    return hf @ p["w_feat"]


# -- generation ----------------------------------------------------------------

@dataclass
class GenerationTrace:
    entry_counts: list[int] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    attention_dumps: list[dict] = field(default_factory=list)
    predicted_features: list[tuple[int, np.ndarray]] = field(default_factory=list)
    forced_completion_steps: int = 0


@dataclass
class GenerationResult:
    tokens: list[Token]
    generated: list[Token]
    sequence: MultimodalSequence | None
    trace: GenerationTrace
    peak_entries: int


def _sample(
    logits: np.ndarray,
    legal: list[int] | None,
    temperature: float | None,
    rng: np.random.Generator,
) -> int:
    if legal is not None:
        masked = np.full_like(logits, -np.inf)
        masked[legal] = logits[legal]
    else:
        masked = logits
    if temperature is None:
        return int(np.argmax(masked))
    probs = softmax(masked / temperature)
    return int(rng.choice(len(probs), p=probs))


def _dump_rows(step: StepResult, labels: list[str], positions: list[int], t_after: int) -> list[dict]:
    records = []
    for l, rows in enumerate(step.attention):
        for h in range(rows.shape[0]):
            records.append(
                {
                    "t": t_after,
                    "layer": l,
                    "head": h,
                    "labels": labels,
                    "positions": positions,
                    "row": [float(x) for x in rows[h]],
                }
            )
    return records


def generate(
    model: Model,
    prompt: MultimodalSequence,
    policy: CachePolicy,
    steps: int,
    mode: str = "constrained",
    seed: int = 0,
    temperature: float | None = None,
    attn_dump: bool = False,
    predict_features: bool = False,
    boi_every: int | None = None,
    on_step: Callable[[KvCache], None] | None = None,
) -> GenerationResult:
    """Autoregressive generation under a retention policy.

    The cache's :class:`~mmsink.seqmodel.BlockGrammar` follows the block
    structure. In constrained mode its ``legal_next`` masks sampling, so the
    output stays structurally valid: image blocks, once opened, always run
    through their slots to the end marker, and begin/end-of-sequence tokens
    are never sampled (the harness targets fixed-length runs). If the step
    budget ends mid-block the block is completed anyway and the extra steps
    are reported on the trace. ``boi_every`` (``None`` or at least 1) forces
    a block start every so many steps, which gives benchmarks a guaranteed
    block cadence.

    In free mode tokens are sampled from the unmasked distribution and the
    grammar's violations are recorded, never repaired.

    A dense run must fit the position table, or :class:`ConfigError` is
    raised before any compute. The bound is ``len(prompt) + steps``, plus
    ``m + 1`` in constrained mode for a block completed after the budget.
    """
    if mode not in ("constrained", "free"):
        raise ConfigError(f"unknown generation mode {mode!r}")
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    if boi_every is not None and boi_every < 1:
        raise ConfigError(f"boi_every must be a positive number of steps, got {boi_every}")
    if prompt.m != model.config.m:
        raise ConfigError(
            f"prompt block length {prompt.m} differs from model block length {model.config.m}"
        )
    cfg = model.config
    constrained = mode == "constrained"
    completion = cfg.m + 1 if constrained else 0
    if policy.kind == "dense" and len(prompt) + steps + completion > cfg.max_positions:
        raise ConfigError(
            f"dense run of {len(prompt)} prompt + {steps} steps (+ {completion} to "
            f"complete a block) exceeds the position table ({cfg.max_positions})"
        )
    cache = make_cache(model, policy, strict=constrained)
    rng = np.random.default_rng(seed)
    trace = GenerationTrace()
    last: StepResult | None = None

    def feed(token: Token) -> StepResult:
        # Dump metadata snapshots the pre-push keys (retained entries + the
        # incoming token); eviction may remove some of them right after.
        if attn_dump:
            labels = [token_label(tk) for tk in cache.tokens()] + [token_label(token)]
            positions = cache.positions() + [cache.t]
        step = forward_step(model, cache, token)
        if attn_dump:
            trace.attention_dumps.extend(_dump_rows(step, labels, positions, cache.t))
        if on_step is not None:
            on_step(cache)
        return step

    for token in prompt.tokens:
        last = feed(token)

    tokens = list(prompt.tokens)
    generated: list[Token] = []

    def one_step(force_boi: bool) -> Token:
        nonlocal last
        t0 = time.perf_counter()
        legal = None
        if force_boi:
            legal = [vocab_id(Token.boi())]
        elif constrained:
            legal = cache.grammar.legal_next(cfg.v_text)
        vid = _sample(last.logits, legal, temperature, rng)
        token = token_from_vocab_id(vid, cfg.m, cfg.v_text)
        last = feed(token)
        trace.step_seconds.append(time.perf_counter() - t0)
        trace.entry_counts.append(cache.size)
        if predict_features and cache.in_block and cache.next_slot == 0:
            feats = predict_image_features(model, cache)
            trace.predicted_features.append((cache.t - 1, feats))
        return token

    for i in range(steps):
        force = bool(constrained and boi_every and not cache.in_block and i % boi_every == 0)
        token = one_step(force)
        generated.append(token)
        tokens.append(token)

    if constrained:
        while cache.in_block:
            token = one_step(False)
            generated.append(token)
            tokens.append(token)
            trace.forced_completion_steps += 1

    trace.violations = list(cache.violations)
    try:
        sequence = MultimodalSequence.from_tokens(tokens, cfg.m)
    except SequenceGrammarError:
        sequence = None
    return GenerationResult(tokens, generated, sequence, trace, cache.peak_entries)


def teacher_forced_logits(
    model: Model,
    tokens: Sequence[Token],
    policy: CachePolicy,
    checkpoints: Iterable[int],
) -> tuple[dict[int, np.ndarray], int]:
    """Replay a fixed token stream under a policy.

    Returns logits keyed by prefix length for each requested checkpoint,
    plus the peak retained-entry count of the replay.

    A decode step of token i attends to ``R_i`` (the positions retained
    after i tokens) plus itself, at position index ``|R_i|``, and its keys
    and values never change once computed. So the replay needs no decode
    loop: the stream runs through all layers in chunks of ``REPLAY_ROWS``
    rows, each row masked to its ``R_i`` by :func:`retained_rows`, over one
    key/value buffer per layer. A chunk attends only to the earlier keys
    some row of it retains, so no (T, T) array is ever built. The logits
    agree with stepwise decoding to rounding (under 1e-15), not bit for
    bit, because masked keys change how the softmax sums group.

    The stream must follow the block grammar (:class:`SequenceGrammarError`
    naming the position otherwise), and every position index must fit the
    position table (:class:`StateError` otherwise).
    """
    wanted = set(checkpoints)
    bad = [t for t in wanted if t < 1 or t > len(tokens)]
    if bad:
        raise ValueError(f"checkpoints {sorted(bad)} outside 1..{len(tokens)}")
    cfg = model.config
    p = model.p
    policy.check_block_length(cfg.m)
    grammar = BlockGrammar(cfg.m)
    for token in tokens:
        grammar.step(token)
    T = len(tokens)
    until = protected_until(policy, grammar.blocks, grammar.open_start, T)
    ids = np.array([vocab_id(tk, cfg.m, cfg.v_text) for tk in tokens], dtype=np.int64)
    keys = [np.empty((cfg.heads, T, cfg.d_head)) for _ in range(cfg.layers)]
    vals = [np.empty((cfg.heads, T, cfg.d_head)) for _ in range(cfg.layers)]
    out: dict[int, np.ndarray] = {}
    peak = int(retained_rows(policy, until, [T]).sum())
    for lo in range(0, T, REPLAY_ROWS):
        hi = min(lo + REPLAY_ROWS, T)
        steps = np.arange(lo, hi)
        attend = retained_rows(policy, until[:hi], steps)
        pos = attend.sum(axis=1)
        over = np.flatnonzero(pos >= cfg.max_positions)
        if over.size:
            raise StateError(
                f"cache position {pos[over[0]]} exceeds the position table ({cfg.max_positions})"
            )
        peak = max(peak, int(pos.max()))
        attend[np.arange(len(steps)), steps] = True
        past = np.flatnonzero(attend[:, :lo].any(axis=0))
        mask = attend[:, np.concatenate([past, steps])]
        if len(past) == lo:
            past = slice(0, lo)  # every earlier key (dense): a view instead of a gathered copy
        x = p["tok_emb"][ids[steps]] + p["pos_emb"][pos]
        for l in range(cfg.layers):
            x, acts = block(model, l, x, keys[l][:, past], vals[l][:, past], causal=True,
                            mask=mask)
            keys[l][:, lo:hi], vals[l][:, lo:hi] = acts["kh"], acts["vh"]
        hit = [r for r in range(hi - lo) if lo + r + 1 in wanted]
        if hit:
            hf, _ = layer_norm(x[hit], p["lnf_g"], p["lnf_b"])
            for r, row in zip(hit, hf @ p["w_out"]):
                out[lo + r + 1] = row
    return out, peak
