"""Dual training objective: next-token cross entropy plus cosine feature
regression, with analytic gradients and a toy gradient-descent loop.

The forward pass is the engine's masked stack (the one decoding and the
replay run) over the full teacher-forced sequence, under the causal mask
as every row's ``attend``. Text targets
are the loss-masked tokens, each predicted from the hidden state one
position earlier. For every loss-masked image block the learnable queries
attend over the prefix ending at the block's begin marker and their output
latents are regressed onto the block's target feature vector, one cosine
term per query row, averaged.

The backward pass is written by hand, one block backward for both the main
stream and the query branches; the query branches feed gradient back into
the main stream through the keys and values they attended to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    Model,
    _masked_layers,
    gelu_grad,
    layer_norm,
    layer_norm_grad,
    log_softmax,
    param_names,
    query_features,
)
from .errors import TrainingDiverged
from .seqmodel import Story, TrainingSample, assemble_training_sequence, vocab_id

_ZERO_NORM_TOL = 1e-300
# the columns of TrainResult.curve, each with its kind (see seqmodel.FIELD_KINDS)
CURVE_HEADER = {"step": "a count", "ce": "a non-negative finite number",
                "img": "a finite number", "combined": "a finite number"}


@dataclass(frozen=True)
class LossReport:
    ce: float
    img: float
    combined: float
    n_image_blocks: int


def text_ce_loss(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood over rows of ``logits``.

    ``logits`` has one row per loss-masked position; ``targets`` the matching
    vocabulary indices.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    if logits.ndim != 2 or len(targets) != logits.shape[0]:
        raise ValueError("logits must be (positions, vocab) matching targets")
    if logits.shape[0] == 0:
        raise ValueError("no masked positions")
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise ValueError("target id outside the vocabulary")
    lsm = log_softmax(logits, axis=1)
    return float(-lsm[np.arange(len(targets)), targets].mean())


def _cosine_rows(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-row cosine, zero-norm-prediction mask, and prediction and target norms.

    Zero-norm prediction rows get cosine 0 and prediction norm 1.
    """
    pn = np.linalg.norm(pred, axis=1)
    tn = np.linalg.norm(target, axis=1)
    if np.any(tn <= _ZERO_NORM_TOL):
        raise ValueError("target rows must have nonzero norm")
    zero = pn <= _ZERO_NORM_TOL
    safe_pn = np.where(zero, 1.0, pn)
    cos = (pred * target).sum(axis=1) / (safe_pn * tn)
    cos = np.where(zero, 0.0, cos)
    return cos, zero, safe_pn, tn


def image_regression_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over rows of one minus the cosine between prediction and target.

    Zero-norm prediction rows contribute loss 1 (their cosine is defined as
    zero); zero-norm target rows are a contract violation.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.ndim != 2:
        raise ValueError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    cos, _zero, _pn, _tn = _cosine_rows(pred, target)
    return float((1.0 - cos).mean())


def combined_loss(ce: float, img: float, lam: float) -> float:
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return ce + lam * img


# -- full-sequence forward/backward ---------------------------------------------

def _main_forward(model: Model, ids: np.ndarray):
    """Teacher-forced pass over the whole sequence: the engine's masked stack
    into one fresh buffer, row r at position r attending rows 0 .. r. Returns
    logits plus what the backward pass needs: the final norm's output and
    cache, each layer's activations, and the (layers, 2, heads, T, d_head)
    keys and values."""
    cfg, p, T = model.config, model.p, len(ids)
    kv = np.empty((cfg.layers, 2, cfg.heads, T, cfg.d_head))
    x, (_cols, _mask, layers) = _masked_layers(model, kv, ids, 0, np.tri(T, dtype=bool))
    hf, lncf = layer_norm(x, p["lnf_g"], p["lnf_b"])
    logits = hf @ p["w_out"]
    return logits, hf, lncf, layers, kv


def _norm_backward(model: Model, name: str, dy: np.ndarray, cache, grads) -> np.ndarray:
    """Backward of the layer norm with weights ``{name}_g`` and ``{name}_b``:
    adds their gradients to ``grads`` and returns the input's."""
    dx, dg, db = layer_norm_grad(dy, cache, model.p[f"{name}_g"])
    grads[f"{name}_g"] += dg
    grads[f"{name}_b"] += db
    return dx


def _block_backward(model: Model, l: int, acts, dx: np.ndarray, kv: np.ndarray, grads):
    """Backward of :func:`~mmsink.engine.block` for layer ``l``.

    ``dx`` is the gradient at the block's output rows, ``kv`` the (2, heads,
    K, d_head) keys and values the rows attended over. Adds the layer's
    weight gradients to ``grads``, except ``ln1`` and the key/value
    projections, which belong to the caller. Returns the residual gradient
    at the block input, the query path's gradient at ln1's output, and the
    (2, heads, K, d_head) gradient of ``kv``.
    """
    cfg = model.config
    p = model.p
    n, H, dh = len(dx), cfg.heads, cfg.d_head
    scale = math.sqrt(dh)
    # feed-forward
    dgact = dx @ p[f"l{l}.w2"].T
    grads[f"l{l}.w2"] += acts["gact"].T @ dx
    df1 = dgact * gelu_grad(acts["f1"])
    grads[f"l{l}.w1"] += acts["b"].T @ df1
    db_ln = df1 @ p[f"l{l}.w1"].T
    dx_attn = _norm_backward(model, f"l{l}.ln2", db_ln, acts["lnc2"], grads) + dx
    # attention
    grads[f"l{l}.wo"] += acts["ctx"].T @ dx_attn
    dctx = dx_attn @ p[f"l{l}.wo"].T
    dch = dctx.reshape(n, H, dh).transpose(1, 0, 2)
    pr = acts["pr"]
    dpr = np.einsum("hqd,hkd->hqk", dch, kv[1])
    dvals = np.einsum("hqk,hqd->hkd", pr, dch)
    ds = pr * (dpr - (dpr * pr).sum(axis=2, keepdims=True))
    dqh = np.einsum("hqk,hkd->hqd", ds, kv[0]) / scale
    dkeys = np.einsum("hqk,hqd->hkd", ds, acts["qh"]) / scale
    dqm = dqh.transpose(1, 0, 2).reshape(n, cfg.d_model)
    grads[f"l{l}.wq"] += acts["a"].T @ dqm
    return dx_attn, dqm @ p[f"l{l}.wq"].T, np.stack([dkeys, dvals])


def _ce_inputs(sample: TrainingSample, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = np.array(sample.loss_mask, dtype=bool)
    mpos = np.nonzero(mask)[0]
    if mpos.size == 0:
        raise ValueError("sample has an empty loss mask")
    if mpos[0] == 0:
        raise ValueError("the initial token cannot be a prediction target")
    return mpos, ids[mpos]


def sample_loss(model: Model, sample: TrainingSample, lam: float = 1.0) -> LossReport:
    report, _ = _loss_impl(model, sample, lam, want_grads=False)
    return report


def sample_loss_and_grads(
    model: Model, sample: TrainingSample, lam: float = 1.0
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Combined loss and its gradient with respect to every parameter."""
    return _loss_impl(model, sample, lam, want_grads=True)


def _loss_impl(model: Model, sample: TrainingSample, lam: float, want_grads: bool):
    cfg = model.config
    p = model.p
    d, Q, L = cfg.d_model, cfg.q_queries, cfg.layers
    tokens = sample.sequence.tokens
    T = len(tokens)
    ids = np.array([vocab_id(tok, cfg.m, cfg.v_text) for tok in tokens])

    logits, hf, lncf, layers, kv = _main_forward(model, ids)
    mpos, targets = _ce_inputs(sample, ids)
    rows = logits[mpos - 1]
    lsm = log_softmax(rows, axis=1)
    n_ce = len(mpos)
    ce = float(-lsm[np.arange(n_ce), targets].mean())

    blocks = sample.masked_blocks()
    if len(blocks) != len(sample.target_features):
        raise ValueError(
            f"{len(sample.target_features)} target features for {len(blocks)} masked blocks"
        )
    if want_grads:
        grads = {name: np.zeros_like(p[name]) for name in param_names(cfg)}
        # cross-entropy head, whose gradients accumulate before the query branches'
        dlogits = np.zeros_like(logits)
        sm = np.exp(lsm)
        sm[np.arange(n_ce), targets] -= 1.0
        np.add.at(dlogits, mpos - 1, sm / n_ce)
        grads["w_out"] += hf.T @ dlogits
        dhf = dlogits @ p["w_out"].T
        dx_main = _norm_backward(model, "lnf", dhf, lncf, grads)
        # the query branches' gradient into the main stream's keys/values
        dkv_extra = np.zeros_like(kv)

    img_terms = []
    for (bpos, _e), feature in zip(blocks, sample.target_features):
        ctx_len = bpos + 1
        pred, hq, lnqf, qlayers = query_features(model, kv[..., :ctx_len, :])
        tgt = np.tile(np.asarray(feature, dtype=np.float64), (Q, 1))
        cos, zero, safe_pn, tn = _cosine_rows(pred, tgt)
        img_terms.append(float((1.0 - cos).mean()))
        if not want_grads:
            continue
        # d(1 - cos)/dpred, zero for zero-norm prediction rows
        dpred = cos[:, None] * pred / (safe_pn**2)[:, None] - tgt / (safe_pn * tn)[:, None]
        dpred = np.where(zero[:, None], 0.0, dpred)
        dpred *= lam / (len(blocks) * Q)

        grads["w_feat"] += hq.T @ dpred
        dhq = dpred @ p["w_feat"].T
        dxq = _norm_backward(model, "lnf", dhq, lnqf, grads)
        for l in reversed(range(L)):
            qc = qlayers[l]
            dx_attn, da, dkv = _block_backward(model, l, qc, dxq, kv[l, ..., :ctx_len, :], grads)
            dkv_extra[l, ..., :ctx_len, :] += dkv
            dxq = dx_attn + _norm_backward(model, f"l{l}.ln1", da, qc["lnc1"], grads)
        grads["queries"] += dxq
        grads["pos_emb"][ctx_len : ctx_len + Q] += dxq
    img = float(np.mean(img_terms)) if img_terms else 0.0
    report = LossReport(ce, img, combined_loss(ce, img, lam), len(blocks))
    if not want_grads:
        return report, None

    # main stream: its keys/values also carry the query branches' gradient
    dx = dx_main
    for l in reversed(range(L)):
        c = layers[l]
        dx_attn, da, dkv = _block_backward(model, l, c, dx, kv[l], grads)
        dkm, dvm = (dkv + dkv_extra[l]).transpose(0, 2, 1, 3).reshape(2, T, d)
        grads[f"l{l}.wk"] += c["a"].T @ dkm
        grads[f"l{l}.wv"] += c["a"].T @ dvm
        da = da + dkm @ p[f"l{l}.wk"].T + dvm @ p[f"l{l}.wv"].T
        dx = dx_attn + _norm_backward(model, f"l{l}.ln1", da, c["lnc1"], grads)

    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:T] += dx
    return report, grads


# -- toy training -----------------------------------------------------------------

@dataclass
class TrainResult:
    model: Model
    curve: list[tuple[int, float, float, float]]  # one row per step, as CURVE_HEADER names
    eval_initial: float
    eval_final: float


def dataset_loss(model: Model, samples, lam: float = 1.0) -> float:
    """Mean combined loss over a sample list."""
    return float(np.mean([sample_loss(model, s, lam).combined for s in samples]))


def build_samples(
    stories: list[Story],
    seed: int,
    m: int,
    v_text: int,
) -> list[TrainingSample]:
    """One training sample per story, with a seeded random assembled length."""
    rng = np.random.default_rng(seed)
    samples = []
    for story in stories:
        sampled_len = int(rng.integers(1, len(story.items) + 1))
        samples.append(assemble_training_sequence(story, sampled_len, m=m, v_text=v_text))
    return samples


def train_toy(
    model: Model,
    samples,
    steps: int,
    lr: float,
    seed: int = 0,
    lam: float = 1.0,
) -> TrainResult:
    """Plain stochastic gradient descent over the combined objective.

    One seeded-random sample per step; the recorded curve holds each step's
    pre-update loss. Aborts on the first non-finite loss.
    """
    if not samples:
        raise ValueError("samples must be non-empty")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    trained = model.copy()
    rng = np.random.default_rng(seed)
    eval_initial = dataset_loss(trained, samples, lam)
    curve = []
    for step in range(steps):
        sample = samples[int(rng.integers(len(samples)))]
        report, grads = sample_loss_and_grads(trained, sample, lam)
        if not math.isfinite(report.combined):
            raise TrainingDiverged(
                f"non-finite loss at step {step}: ce={report.ce}, img={report.img}"
            )
        curve.append((step, report.ce, report.img, report.combined))
        if lr:
            for name, g in grads.items():
                trained.p[name] -= lr * g
    eval_final = dataset_loss(trained, samples, lam)
    return TrainResult(trained, curve, eval_initial, eval_final)
