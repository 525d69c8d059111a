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

:func:`block` is the one transformer layer. It writes its rows' keys and
values into the layer's (2, heads, K, d_head) slice of the caller's buffer
at an offset and attends over it in place. :func:`_masked_layers` is the
one stack that writes, each row masked to the entries it attends:
:func:`forward_step` into the cache rows of the tokens it has just appended,
before the cache evicts (a decode step, a run of known tokens, the
teacher-forced replay), and :mod:`mmsink.losses` into one fresh buffer for
a whole sequence under the causal mask. Feature prediction
(:func:`query_features`, which training shares) only reads. Scores and
contexts are BLAS matrix products throughout, so a decode step and a
batched pass agree to rounding (under 1e-15 on the logits), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, Iterable, Sequence

import json

import numpy as np

from .cachepolicy import CachePolicy, KvCache, retained_rows
from .errors import ConfigError, StateError
from .seqmodel import (
    DEFAULT_BLOCK_LEN,
    DEFAULT_FEAT_DIM,
    DEFAULT_V_TEXT,
    MultimodalSequence,
    Token,
    check_fields,
    image_block_tokens,
    token_from_vocab_id,
    vocab_id,
    vocab_size,
)

LN_EPS = 1e-5
REPLAY_ROWS = 16  # rows per masked pass (replay chunk, run of decode tokens); bounds its tiles
SAVE_CHUNK = 4096  # weight values per json.dumps call in save_model
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
    # a sum over the axis divided by its length is np.mean, without its overhead
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * g + b, (xhat, inv)


def layer_norm_grad(dy: np.ndarray, cache, g: np.ndarray):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    mean1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / dy.shape[-1]
    mean2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / dy.shape[-1]
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
    v_text: int = DEFAULT_V_TEXT
    m: int = DEFAULT_BLOCK_LEN
    q_queries: int = 4
    d_feat: int = DEFAULT_FEAT_DIM
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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every weight's shape by name, in the order models store and draw them."""
    d, ff = config.d_model, config.d_ff
    shapes = {"tok_emb": (config.vocab, d), "pos_emb": (config.max_positions, d),
              "queries": (config.q_queries, d)}
    for l in range(config.layers):
        shapes.update({f"l{l}.ln1_g": (d,), f"l{l}.ln1_b": (d,), f"l{l}.wq": (d, d),
                       f"l{l}.wk": (d, d), f"l{l}.wv": (d, d), f"l{l}.wo": (d, d),
                       f"l{l}.ln2_g": (d,), f"l{l}.ln2_b": (d,),
                       f"l{l}.w1": (d, ff), f"l{l}.w2": (ff, d)})
    shapes.update({"lnf_g": (d,), "lnf_b": (d,), "w_out": (d, config.vocab),
                   "w_feat": (d, config.d_feat)})
    return shapes


def param_names(config: ModelConfig) -> list[str]:
    return list(param_shapes(config))


class Model:
    """Immutable-by-convention weight container. Training makes a copy."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.p = params

    @staticmethod
    def init(config: ModelConfig) -> "Model":
        """Layer-norm gains one and biases zero; every other weight drawn
        N(0, 0.02^2) from the config's seed, in :func:`param_shapes` order."""
        rng = np.random.default_rng(config.seed)
        p: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(config).items():
            fill = {"_g": np.ones, "_b": np.zeros}.get(name[-2:])
            p[name] = fill(shape) if fill else rng.standard_normal(shape) * 0.02
        return Model(config, p)

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.p.items()})


def make_cache(model: Model, policy: CachePolicy, strict: bool = True) -> KvCache:
    c = model.config
    return KvCache(policy, c.layers, c.heads, c.d_head, c.m, strict=strict)


def save_model(model: Model, path) -> None:
    """Serialize config plus flat row-major weight arrays to JSON.

    The bytes are those ``json.dump`` writes for the whole payload, but each
    weight goes through ``json.dumps`` ``SAVE_CHUNK`` values at a time, so
    no list of all its Python floats is ever built.
    """
    head = json.dumps({"format": "mmsink-model-v1", "config": asdict(model.config),
                       "weights": {}})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head[:-2])  # up to the weights' opening brace
        for i, name in enumerate(param_names(model.config)):
            w = model.p[name]
            fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(w.shape))}, "data": [')
            flat = w.ravel()
            for lo in range(0, len(flat), SAVE_CHUNK):
                chunk = json.dumps(flat[lo : lo + SAVE_CHUNK].tolist())[1:-1]
                fh.write(f", {chunk}" if lo else chunk)
            fh.write("]}")
        fh.write("}}\n")


def load_model(path) -> Model:
    """Read a :func:`save_model` file: :func:`model_from_payload` of its JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_payload(json.load(fh), path)


# what a model file's config (a seed may be negative) and each weight hold (see FIELD_KINDS)
_CONFIG_FIELDS = {f.name: "an integer" for f in fields(ModelConfig)}
_WEIGHT_FIELDS = {"shape": "a list of counts", "data": "a list of numbers"}


def model_from_payload(payload, path) -> Model:
    """The model a parsed :func:`save_model` file holds. A config key or weight that is
    unknown, missing or not of its kind, a weight whose shape is not the config's, and a
    non-finite value raise :class:`ConfigError` naming the file ``path`` and the key or weight."""
    if not isinstance(payload, dict) or payload.get("format") != "mmsink-model-v1":
        raise ConfigError(f"{path}: not a model file")
    try:
        check_fields(payload, {"config": "an object", "weights": "an object"}, "model file")
        raw, weights = payload["config"], payload["weights"]
        for key in sorted(raw.keys() ^ _CONFIG_FIELDS.keys()):
            raise ValueError(f"config key {key!r} is {'unknown' if key in raw else 'missing'}")
        check_fields(raw, _CONFIG_FIELDS, "config key")
        config = ModelConfig(**raw)
        shapes, params = param_shapes(config), {}
        for name in sorted(weights.keys() ^ shapes.keys()):
            raise ValueError(f"weight {name!r} is {'unknown' if name in weights else 'missing'}")
        for name, shape in shapes.items():
            entry, where = weights[name], f"weight {name}:"
            check_fields(entry, _WEIGHT_FIELDS, where)
            if entry["shape"] != list(shape) or len(entry["data"]) != math.prod(shape):
                raise ValueError(f"{where} shape {entry['shape']} with {len(entry['data'])} "
                                 f"values, the config gives shape {list(shape)}")
            params[name] = np.array(entry["data"], dtype=np.float64).reshape(shape)
            if not np.all(np.isfinite(params[name])):
                raise ValueError(f"non-finite values in {name}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return Model(config, params)


# -- the transformer block ------------------------------------------------------

def block(model: Model, l: int, x: np.ndarray, kv: np.ndarray,
          at: int | None = None, cols=None, mask: np.ndarray | None = None,
          ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Pre-norm transformer layer ``l`` over the rows ``x`` (N, d_model).

    ``kv`` is the layer's (2, heads, K, d_head) buffer, keys at ``[0]`` and
    values at ``[1]``. It has two modes. With ``at``, the rows first write
    their own keys and values into rows ``at .. at + N - 1`` of the buffer,
    then attend over the view ``[:at + N]``; more than one row needs a
    ``mask``. Without ``at`` they only read, attending over every row (the
    learnable queries). ``cols`` narrows the attended keys to those buffer
    columns (a gather), and a boolean ``mask`` (N, len(cols)) lets row r
    attend to exactly the keys where ``mask[r]`` is set (each row needs at
    least one). Returns the output rows and the activations the
    hand-written backward in :mod:`mmsink.losses` reads.
    """
    cfg = model.config
    p = model.p
    n, H, dh = len(x), cfg.heads, cfg.d_head
    a, lnc1 = layer_norm(x, p[f"l{l}.ln1_g"], p[f"l{l}.ln1_b"])
    qh = (a @ p[f"l{l}.wq"]).reshape(n, H, dh).transpose(1, 0, 2)
    if at is not None:
        kv[0, :, at : at + n] = (a @ p[f"l{l}.wk"]).reshape(n, H, dh).transpose(1, 0, 2)
        kv[1, :, at : at + n] = (a @ p[f"l{l}.wv"]).reshape(n, H, dh).transpose(1, 0, 2)
        kv = kv[:, :, : at + n]
    keys, vals = kv if cols is None else kv[:, :, cols]
    s = qh @ keys.transpose(0, 2, 1) / math.sqrt(dh)
    if mask is not None:
        s = np.where(mask, s, -np.inf)
    pr = softmax(s, axis=2)
    ctx = (pr @ vals).transpose(1, 0, 2).reshape(n, cfg.d_model)
    x_attn = x + ctx @ p[f"l{l}.wo"]
    b, lnc2 = layer_norm(x_attn, p[f"l{l}.ln2_g"], p[f"l{l}.ln2_b"])
    f1 = b @ p[f"l{l}.w1"]
    gact = gelu(f1)
    acts = dict(a=a, lnc1=lnc1, qh=qh, pr=pr, ctx=ctx, b=b, lnc2=lnc2, f1=f1, gact=gact)
    return x_attn + gact @ p[f"l{l}.w2"], acts


# -- decode steps ---------------------------------------------------------------

def _masked_layers(model: Model, kv: np.ndarray, ids: np.ndarray, at: int,
                   attend: np.ndarray | None = None):
    """Embed the tokens ``ids`` at their retained counts and run them through
    every layer over the (layers, 2, heads, K, d_head) buffer ``kv``: row r
    writes its keys and values at buffer row ``at + r`` and attends exactly
    the buffer columns set in ``attend[r]``, its own included. Without
    ``attend`` the one row attends every column up to its own, unmasked.
    Returns the output rows and (cols, mask, each layer's :func:`block`
    activations), whose ``"pr"`` are the (heads, rows, keys) weights.
    """
    cfg, p = model.config, model.p
    if attend is None:
        pos, cols, mask = np.array([at]), None, None
    else:
        pos = attend.sum(axis=1) - 1
        # the columns some row attends; all of them (dense): the view, not a gathered copy
        cols = np.flatnonzero(attend.any(axis=0))
        mask = attend[:, cols]
        if len(cols) == attend.shape[1]:
            cols = None
    if pos.max() >= cfg.max_positions:
        raise StateError(f"cache position {pos[pos >= cfg.max_positions][0]} exceeds the "
                         f"position table ({cfg.max_positions})")
    x = p["tok_emb"][ids] + p["pos_emb"][pos]
    layers = []
    for l in range(cfg.layers):
        x, acts = block(model, l, x, kv[l], at=at, cols=cols, mask=mask)
        layers.append(acts)
    return x, (cols, mask, layers)


@dataclass
class StepResult:
    """What one :func:`forward_step` call computed."""

    logits: np.ndarray | dict[int, np.ndarray]  # the last token's (vocab,), or per logits_at
    sizes: list[int]                    # the cache's entry count after each token
    maps: list[tuple]                   # per chunk of rows: (positions, mask, per-layer weights)

    def attention_rows(self):
        """Per token, in order: the positions of the keys it attended (the
        entries retained before it, and itself), and per layer its (heads,
        keys) weights over them."""
        for positions, mask, probs in self.maps:
            for r in range(probs[0].shape[1]):
                keep = slice(None) if mask is None else mask[r]
                yield positions[keep], [pr[:, r, keep] for pr in probs]


def forward_step(model: Model, cache: KvCache, *tokens: Token,
                 logits_at: Iterable[int] | None = None) -> StepResult:
    """Run tokens whose values are all known in advance through the stack:
    the prompt, say, the slots and end marker the grammar fixes once a block
    opens, or a whole stream to replay. One token is a plain decode step.

    The tokens are appended to the cache first (:meth:`KvCache.append`), so
    a strict rejection raises before any layer runs. Token r attends the
    entries retained after the first r tokens, and itself, at the position
    index of its retained count, as the r-th of n single steps would: each
    row's mask is :func:`retained_rows` over :meth:`KvCache.entries`, whose
    ``until`` holds for every prefix in the run because it only decreases.
    The rows write their keys and values into their cache rows and pass
    each layer as one masked :func:`block` call, ``REPLAY_ROWS`` at a time,
    so no (n, n) array is built; one :meth:`KvCache.push` then evicts. A
    single token needs no mask: it attends every entry. A position past the
    table raises :class:`StateError`, leaving the run appended, not evicted.

    By default ``logits`` are the last token's, and every row's attention
    maps are kept for :meth:`StepResult.attention_rows`, with the positions
    of the keys they attended, read before the push. With ``logits_at``,
    prefix lengths within the run (``cache.t`` after one of its tokens),
    ``logits`` maps each of them to its logits and no maps are kept, so a
    replay of a whole stream holds no (n, n) weights.

    Every attention row is a softmax over (retained entries, self), so it is
    non-negative and sums to one; causality holds because every attended key
    is older than the row or the row itself.
    """
    cfg = model.config
    p = model.p
    H, dh = cfg.heads, cfg.d_head
    if (cache.layers, cache.heads, cache.d_head, cache.m) != (cfg.layers, H, dh, cfg.m):
        raise ValueError(
            f"cache dimensions (L={cache.layers}, H={cache.heads}, d_head={cache.d_head}, "
            f"m={cache.m}) do not match the model"
        )
    if not tokens:
        raise ValueError("forward_step needs at least one token")
    n, c, t0 = len(tokens), cache.size, cache.t
    ids = np.array([vocab_id(token, cfg.m, cfg.v_text) for token in tokens])
    cache.append(*tokens)
    pos, until = cache.entries()
    wanted = set(logits_at or ())
    logits, maps = {}, []
    for lo in range(0, n, REPLAY_ROWS):
        hi = min(lo + REPLAY_ROWS, n)
        attend = None
        if n > 1:
            attend = retained_rows(cache.policy, until[: c + hi], range(t0 + lo, t0 + hi),
                                   pos[: c + hi])
            attend[np.arange(hi - lo), np.arange(c + lo, c + hi)] = True
        x, (cols, mask, layers) = _masked_layers(model, cache.kv(), ids[lo:hi], c + lo, attend)
        if logits_at is None:  # positions read now: push() compacts the buffers
            maps.append((pos[: c + hi].copy() if cols is None else pos[cols], mask,
                         [acts["pr"] for acts in layers]))
        del layers  # the next chunk runs without this one's activations
        hit = [r for r in range(hi - lo) if t0 + lo + r + 1 in wanted]
        if hit:
            hf, _ = layer_norm(x[hit], p["lnf_g"], p["lnf_b"])
            logits.update(zip([t0 + lo + r + 1 for r in hit], hf @ p["w_out"]))
    if logits_at is None:
        hf, _ = layer_norm(x[-1:], p["lnf_g"], p["lnf_b"])
        logits = (hf @ p["w_out"])[0]
    return StepResult(logits, cache.push(), maps)


def query_features(model: Model, kv: np.ndarray):
    """Run the learnable queries over the (layers, 2, heads, c, d_head) keys
    and values ``kv``, at positions c .. c + Q - 1, and map each output latent to
    feature space. The queries read the entries but never enter them, nor
    attend to each other. Returns the (q_queries, d_feat) features, then the
    final norm's output and cache and each layer's activations, which the
    backward in :mod:`mmsink.losses` reads.
    """
    cfg = model.config
    p = model.p
    c, Q = kv.shape[-2], cfg.q_queries
    if c + Q > cfg.max_positions:
        raise StateError(f"query positions {c}..{c + Q - 1} exceed the position table")
    x = p["queries"] + p["pos_emb"][c : c + Q]
    qlayers = []
    for l in range(cfg.layers):
        x, acts = block(model, l, x, kv[l])
        qlayers.append(acts)
    hq, lnqf = layer_norm(x, p["lnf_g"], p["lnf_b"])
    return hq @ p["w_feat"], hq, lnqf, qlayers


def predict_image_features(model: Model, cache: KvCache) -> np.ndarray:
    """:func:`query_features` over the retained entries. Shape
    (q_queries, d_feat).

    Legal only when the cache ends right after a begin-of-image marker.
    """
    if not (cache.in_block and cache.next_slot == 0):
        raise StateError("image feature prediction requires a freshly opened image block")
    return query_features(model, cache.kv())[0]


# -- generation ----------------------------------------------------------------

@dataclass
class GenerationTrace:
    # the entry count after each generated token; the prompt's are not included
    entry_counts: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    forced_completion_steps: int = 0
    # every (begin, end) block the cache's grammar completed, the prompt's included
    blocks: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class GenerationResult:
    tokens: list[Token]
    generated: list[Token]
    sequence: MultimodalSequence | None
    trace: GenerationTrace
    peak_entries: int


def _sample(
    logits: np.ndarray,
    legal: np.ndarray | None,
    temperature: float | None,
    rng: np.random.Generator,
) -> int:
    if temperature is None:  # legal ids ascend, so ties go to the lowest id either way
        return int(np.argmax(logits) if legal is None else legal[np.argmax(logits[legal])])
    masked = logits
    if legal is not None:
        masked = np.full_like(logits, -np.inf)
        masked[legal] = logits[legal]
    probs = softmax(masked / temperature)
    return int(rng.choice(len(probs), p=probs))


def generate(
    model: Model,
    prompt: MultimodalSequence,
    policy: CachePolicy,
    steps: int,
    mode: str = "constrained",
    seed: int = 0,
    temperature: float | None = None,
    boi_every: int | None = None,
    observe: Callable[[Sequence[Token], StepResult, KvCache], None] | None = None,
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
    grammar's violations are recorded, never repaired. The result's
    ``sequence`` comes from the cache's grammar, which read every token: it
    is ``None`` when that grammar recorded a violation or a block is open.

    Tokens known before they are computed go through one
    :func:`forward_step` call (jump-forward decoding): the prompt, and in
    constrained mode the rest of an open block once its begin marker is fed,
    since the grammar fixes each of those tokens. When sampling, each of them
    still draws the one double from ``rng`` that a sampled step draws, so the
    tokens and the per-token ``entry_counts`` equal those of one call per
    token.

    ``observe``, if given, is called after every :func:`forward_step` call,
    the prompt's included, as ``observe(run, step, cache)``: the tokens fed,
    their :class:`StepResult` and the cache after the push. A generated
    begin marker is fed alone, so an observer sees each block it opens
    before its slots. An observer must not change the cache; then an
    observed run feeds the same runs as an unobserved one.
    :func:`mmsink.attnstats.dump_writer` is one.

    ``temperature`` is ``None`` (greedy) or a positive finite number. A
    temperature that is not, ``boi_every`` in free mode, and a dense run that
    does not fit the position table raise :class:`ConfigError` before any
    compute. That bound is ``len(prompt) + steps``, plus ``m + 1`` in
    constrained mode for a block completed after the budget. A dense cache
    keeps every token, so it allocates that many rows once, up front.
    """
    if mode not in ("constrained", "free"):
        raise ConfigError(f"unknown generation mode {mode!r}")
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    if temperature is not None and not (math.isfinite(temperature) and temperature > 0):
        raise ConfigError(f"temperature must be a positive finite number, got {temperature}")
    if boi_every is not None and boi_every < 1:
        raise ConfigError(f"boi_every must be a positive number of steps, got {boi_every}")
    if boi_every is not None and mode != "constrained":
        raise ConfigError(f"boi_every applies to constrained generation only, not mode {mode!r}")
    if prompt.m != model.config.m:
        raise ConfigError(
            f"prompt block length {prompt.m} differs from model block length {model.config.m}"
        )
    cfg = model.config
    constrained = mode == "constrained"
    completion = cfg.m + 1 if constrained else 0
    most = len(prompt) + steps + completion  # tokens the run can feed
    if policy.kind == "dense" and most > cfg.max_positions:
        raise ConfigError(
            f"dense run of {len(prompt)} prompt + {steps} steps (+ {completion} to "
            f"complete a block) exceeds the position table ({cfg.max_positions})"
        )
    cache = make_cache(model, policy, strict=constrained)
    if policy.kind == "dense":
        cache.reserve(most)
    rng = np.random.default_rng(seed)
    trace = GenerationTrace()

    def feed(run: Sequence[Token]) -> StepResult:
        step = forward_step(model, cache, *run)
        if observe is not None:
            observe(run, step, cache)
        return step

    last = feed(prompt.tokens)

    closing = image_block_tokens(cfg.m)[1:]  # a block after its begin marker
    generated: list[Token] = []
    while len(generated) < steps or (constrained and cache.in_block):
        if constrained and cache.in_block:
            run = closing[cache.next_slot:]
            if temperature is not None:  # a sampled step draws one double, whatever its legal set
                rng.random(len(run))
        else:
            legal = None
            if constrained and boi_every and len(generated) % boi_every == 0:
                legal = np.array([vocab_id(Token.boi())])
            elif constrained:
                legal = cache.grammar.legal_next(cfg.v_text)
            vid = _sample(last.logits, legal, temperature, rng)
            run = [token_from_vocab_id(vid, cfg.m, cfg.v_text)]
        last = feed(run)
        trace.entry_counts.extend(last.sizes)
        generated.extend(run)
    trace.forced_completion_steps = max(0, len(generated) - steps)

    trace.violations = list(cache.violations)
    trace.blocks = cache.blocks
    tokens = list(prompt.tokens) + generated
    sequence = None  # the cache's grammar read every token: no second pass
    if not (cache.violations or cache.in_block):
        sequence = MultimodalSequence(tuple(tokens), tuple(cache.blocks), cfg.m)
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
    loop: it is one :func:`forward_step` call over a fresh strict cache,
    whose rows are masked to their ``R_i`` chunk by chunk. The logits agree
    with stepwise decoding to rounding (under 1e-15), not bit for bit,
    because masked keys change how the softmax sums group.

    The stream must follow the block grammar (:class:`SequenceGrammarError`
    naming the position otherwise, before any layer runs), and every
    position index must fit the position table (:class:`StateError`
    otherwise).
    """
    wanted = set(checkpoints)
    bad = [t for t in wanted if t < 1 or t > len(tokens)]
    if bad:
        raise ValueError(f"checkpoints {sorted(bad)} outside 1..{len(tokens)}")
    step = forward_step(model, make_cache(model, policy), *tokens, logits_at=wanted)
    return step.logits, max(step.sizes)
