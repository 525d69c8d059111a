"""Brute-force reference implementations for tests.

Each function re-derives a result by the most literal method available and
deliberately shares no code with the implementation it checks. Nothing here
is used outside the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

import numpy as np

from .cachepolicy import BlockHistory, CachePolicy
from .seqmodel import MultimodalSequence


def brute_retain_set(
    policy: CachePolicy,
    prefix: MultimodalSequence | BlockHistory,
    t: int,
) -> list[int]:
    """Scan every position and test retention membership directly."""
    if isinstance(prefix, MultimodalSequence):
        if len(prefix.tokens) != t:
            raise ValueError(f"t={t} does not match prefix length {len(prefix.tokens)}")
        blocks = list(prefix.image_blocks)
        open_start = prefix.open_block
    else:
        blocks = list(prefix.blocks)
        open_start = prefix.open_start
    if t < 1:
        raise ValueError("t must be at least 1")

    def keep(pos: int) -> bool:
        if policy.kind == "dense":
            return True
        w = policy.window
        if t <= w:
            return True
        if policy.kind == "window":
            return pos >= t - w
        n = policy.n_sink
        if pos < n:
            return True
        if pos >= t - (w - n):
            return True
        if policy.kind == "sink":
            return False
        if open_start is not None and pos >= open_start:
            return True
        for b, e in blocks:
            if pos == b or pos == e:
                return True
            if b + 1 <= pos <= b + policy.k_head:
                return True
            if e - policy.k_tail <= pos <= e - 1:
                return True
        return False

    return [pos for pos in range(t) if keep(pos)]


def brute_block_validity(tokens, m: int) -> tuple[int, int]:
    """Attempted and valid image blocks by a literal scan.

    Each begin marker is an attempt; it is valid when the next m tokens are
    slots 0..m-1 in order and the one after is the end marker. Kinds are
    compared by name so nothing is shared with the grammar code.
    """
    attempted = valid = 0
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].kind.name == "BOI":
            attempted += 1
            ok = True
            j = i + 1
            for s in range(m):
                if j >= n or tokens[j].kind.name != "IMG" or tokens[j].value != s:
                    ok = False
                    break
                j += 1
            if ok and (j >= n or tokens[j].kind.name != "EOI"):
                ok = False
            if ok:
                valid += 1
                i = j + 1
                continue
        i += 1
    return attempted, valid


def recount_occurrences(maps, k: int = 10) -> dict[str, int]:
    """Independent top-k label occurrence recount.

    ``maps`` holds (labels, rows) pairs, each a full causal map with row i
    over keys 0..i. For each map: average each key column over all rows,
    rank by the average with ties to the lower index, take the first k, and
    count each distinct label once.
    """
    counts: Counter[str] = Counter()
    for labels, rows in maps:
        rows = np.asarray(rows, dtype=np.float64)
        width = rows.shape[1]
        means = [float(rows[:, j].sum()) / rows.shape[0] for j in range(width)]
        order = sorted(range(width), key=lambda j: (-means[j], j))
        top = order[: min(k, width)]
        for label in {labels[j] for j in top}:
            counts[label] += 1
    return dict(counts)


def recompute_attention_row(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One attention head recomputed scalar by scalar from first principles."""
    n, dh = keys.shape
    scores = []
    for i in range(n):
        s = 0.0
        for j in range(dh):
            s += float(query[j]) * float(keys[i, j])
        scores.append(s / math.sqrt(dh))
    mx = max(scores)
    exps = [math.exp(s - mx) for s in scores]
    z = sum(exps)
    weights = np.array([e / z for e in exps])
    ctx = np.zeros(dh)
    for i in range(n):
        ctx += weights[i] * values[i]
    return weights, ctx


def fd_gradient(
    loss_fn: Callable[[], float],
    params: dict[str, np.ndarray],
    eps: float = 1e-6,
) -> dict[str, np.ndarray]:
    """Central finite differences of ``loss_fn`` for every parameter entry.

    ``loss_fn`` must read the arrays in ``params``; each entry is perturbed
    in place and restored.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn()
            flat[i] = orig - eps
            f_minus = loss_fn()
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ArithmeticError(f"non-finite loss while perturbing {name}[{i}]")
            gflat[i] = (f_plus - f_minus) / (2 * eps)
        grads[name] = g
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative disagreement, zero when both vanish."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom
