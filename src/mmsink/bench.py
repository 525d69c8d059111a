"""Controlled comparison of retention policies over long generations.

Every policy replays one identical teacher-forced trajectory for logit
divergence against the dense reference, and runs its own free generation
for structural validity and (optionally) wall-clock timing. Reports are
written as CSV plus a JSON mirror.

Wall-clock numbers are only collected when timing is switched on; the
functional report is fully deterministic so repeated runs are byte-equal.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .cachepolicy import CachePolicy, bytes_estimate
from .engine import Model, generate, teacher_forced_logits, log_softmax, softmax
from .errors import ConfigError
from .seqmodel import MultimodalSequence, Token, block_validity, item_tokens, synth_stories

SCALAR_WIDTH = 8  # float64 cache entries
CSV_HEADER = ["policy", "peak_entries", "bytes", "mean_tok_s", "ckpt",
              "max_logit_diff", "kl", "validity"]


@dataclass
class CheckpointDivergence:
    t: int
    max_abs_logit_diff: float
    kl: float


def divergence(t: int, a: np.ndarray, b: np.ndarray) -> CheckpointDivergence:
    """Max absolute logit difference and KL(softmax(a) || softmax(b)) at
    checkpoint ``t``; ``a`` is the reference."""
    diff = float(np.max(np.abs(a - b)))
    kl = float(np.sum(softmax(a) * (log_softmax(a) - log_softmax(b))))
    return CheckpointDivergence(t, diff, kl)


@dataclass
class PolicyResult:
    policy: CachePolicy
    peak_entries: int
    bytes_estimate: int
    mean_tok_s: float | None
    divergence: list[CheckpointDivergence]
    validity_rate: float


@dataclass
class BenchReport:
    results: list[PolicyResult]
    prompt_len: int
    total_steps: int
    checkpoints: list[int]
    repeats: int
    seed: int
    timing: bool
    trajectory: str


def synthetic_trajectory(
    prompt: MultimodalSequence,
    total_steps: int,
    seed: int,
    v_text: int,
) -> list[Token]:
    """Deterministic continuation with a guaranteed image-block cadence.

    Story items (text plus one image block each) are appended after the
    prompt and truncated to the requested step count.
    """
    m = prompt.m
    continuation: list[Token] = []
    story_seed = seed
    while len(continuation) < total_steps:
        for story in synth_stories(4, items_per_story=8, rng_seed=story_seed, d_feat=4):
            for item in story.items:
                continuation.extend(item_tokens(item, m, v_text))
                if len(continuation) >= total_steps:
                    break
            if len(continuation) >= total_steps:
                break
        story_seed += 1
    return list(prompt.tokens) + continuation[:total_steps]


def default_checkpoints(prompt_len: int, total_steps: int) -> list[int]:
    """Quartile prefix lengths across the generated region."""
    ts = sorted({prompt_len + max(1, (total_steps * q) // 4) for q in (1, 2, 3, 4)})
    return [t for t in ts if t <= prompt_len + total_steps]


def run_benchmark(
    model: Model,
    prompt: MultimodalSequence,
    policies: list[CachePolicy],
    total_steps: int,
    checkpoints: list[int] | None = None,
    repeats: int = 3,
    seed: int = 0,
    timing: bool = False,
    trajectory: str = "synthetic",
) -> BenchReport:
    """Benchmark each policy on one shared trajectory.

    ``trajectory`` selects where the teacher-forced tokens come from:
    "synthetic" splices deterministic story items after the prompt, which
    guarantees completed image blocks regardless of what the model would
    generate; "generated" uses the dense run's own constrained output.

    The dense reference replay always runs, so ``prompt + total_steps``
    must fit the model's position table, or :class:`ConfigError` is raised
    before any compute.
    """
    if repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if total_steps < 1:
        raise ConfigError("total_steps must be at least 1")
    if trajectory not in ("synthetic", "generated"):
        raise ConfigError(f"unknown trajectory source {trajectory!r}")
    if not policies:
        raise ConfigError("no policies to benchmark")
    for policy in policies:
        policy.check_block_length(model.config.m)

    cfg = model.config
    prompt_len = len(prompt)
    if checkpoints is None:
        checkpoints = default_checkpoints(prompt_len, total_steps)
    bad = [t for t in checkpoints if t < 1 or t > prompt_len + total_steps]
    if bad:
        raise ConfigError(f"checkpoints {bad} outside 1..{prompt_len + total_steps}")
    if prompt_len + total_steps > cfg.max_positions:
        raise ConfigError(
            f"run of {prompt_len} prompt + {total_steps} steps exceeds "
            f"the position table ({cfg.max_positions})"
        )

    if trajectory == "synthetic":
        tokens = synthetic_trajectory(prompt, total_steps, seed, cfg.v_text)
    else:
        dense_run = generate(
            model, prompt, CachePolicy.dense(), total_steps, mode="constrained", seed=seed
        )
        tokens = dense_run.tokens

    dense_logits, _ = teacher_forced_logits(
        model, tokens, CachePolicy.dense(), checkpoints
    )

    results = []
    for policy in policies:
        policy_logits, peak = teacher_forced_logits(model, tokens, policy, checkpoints)
        divergences = [
            divergence(t, dense_logits[t], policy_logits[t]) for t in sorted(set(checkpoints))
        ]

        free = generate(model, prompt, policy, total_steps, mode="free", seed=seed)
        attempted, valid = block_validity(free.generated, cfg.m)
        validity = valid / attempted if attempted else 1.0

        mean_tok_s: float | None = None
        if timing:
            per_run = []
            for _ in range(repeats):
                started = time.perf_counter()
                timed = generate(model, prompt, policy, total_steps, mode="free", seed=seed)
                per_run.append((time.perf_counter() - started) / len(timed.generated))
            mean_tok_s = float(np.mean(per_run))

        results.append(
            PolicyResult(
                policy=policy,
                peak_entries=peak,
                bytes_estimate=bytes_estimate(peak, cfg.layers, cfg.heads, cfg.d_head, SCALAR_WIDTH),
                mean_tok_s=mean_tok_s,
                divergence=divergences,
                validity_rate=validity,
            )
        )
    return BenchReport(
        results=results,
        prompt_len=prompt_len,
        total_steps=total_steps,
        checkpoints=sorted(set(checkpoints)),
        repeats=repeats,
        seed=seed,
        timing=timing,
        trajectory=trajectory,
    )


def write_report_csv(report: BenchReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in report.results:
            tok_s = "" if r.mean_tok_s is None else repr(r.mean_tok_s)
            for div in r.divergence:
                writer.writerow([
                    r.policy.kind, r.peak_entries, r.bytes_estimate, tok_s,
                    div.t, repr(div.max_abs_logit_diff), repr(div.kl),
                    repr(r.validity_rate),
                ])


def report_to_dict(report: BenchReport) -> dict:
    return {
        "prompt_len": report.prompt_len,
        "total_steps": report.total_steps,
        "checkpoints": report.checkpoints,
        "repeats": report.repeats,
        "seed": report.seed,
        "timing": report.timing,
        "trajectory": report.trajectory,
        "policies": [
            {
                "policy": r.policy.kind,
                "params": r.policy.params(),
                "peak_entries": r.peak_entries,
                "bytes": r.bytes_estimate,
                "mean_tok_s": r.mean_tok_s,
                "validity": r.validity_rate,
                "divergence": [
                    {"t": d.t, "max_logit_diff": d.max_abs_logit_diff, "kl": d.kl}
                    for d in r.divergence
                ],
            }
            for r in report.results
        ],
    }


def write_report_json(report: BenchReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    for field in ("total_steps", "checkpoints", "policies"):
        if field not in payload:
            raise ValueError(f"{path}: missing field {field!r}")
    return payload


@dataclass
class TimeProfile:
    slope: float
    stderr: float
    n: int


def per_token_time_profile(seconds, min_steps: int = 100) -> TimeProfile:
    """Least-squares slope of per-token seconds against step index."""
    y = np.asarray(seconds, dtype=np.float64)
    n = len(y)
    if n < min_steps:
        raise ValueError(f"trace has {n} steps, need at least {min_steps}")
    x = np.arange(n, dtype=np.float64)
    xm = x - x.mean()
    sxx = float((xm**2).sum())
    slope = float((xm * y).sum() / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    sigma2 = float((resid**2).sum() / (n - 2))
    stderr = float(np.sqrt(sigma2 / sxx))
    return TimeProfile(slope, stderr, n)
