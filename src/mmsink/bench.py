"""Controlled comparison of retention policies over long generations.

Every policy replays one identical teacher-forced trajectory for logit
divergence against the dense reference. With timing on, it also runs its
own free generations for wall-clock timing and structural validity, which
the last run's cache grammar reads token by token.

The report is one dict: :func:`run_benchmark` returns exactly what the
JSON file holds, with its keys in the file's order, and the CSV flattens
its ``policies`` to one row per policy and checkpoint.

Wall-clock numbers are only collected when timing is switched on; the
functional report is fully deterministic so repeated runs are byte-equal.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np

from .cachepolicy import CachePolicy, bytes_estimate
from .engine import GenerationResult, Model, generate, teacher_forced_logits, log_softmax, softmax
from .errors import ConfigError
from .seqmodel import (
    MultimodalSequence, Token, TokenKind, check_fields, item_tokens, synth_stories, write_csv,
)

# the keys :func:`check_report` checks, in the JSON's order, and the kind of each (see
# seqmodel.check_fields), down to an entry's "params" and each checkpoint of its "divergence"
PARAM_FIELDS = dict.fromkeys(CachePolicy.dense().params(), "an integer")
DIVERGENCE_FIELDS = {"t": "a count", "max_logit_diff": "a non-negative finite number",
                     "kl": "a non-negative finite number"}
POLICY_FIELDS = {"policy": "a string", "params": PARAM_FIELDS,
                 "peak_entries": "a count", "bytes": "a count",
                 "mean_tok_s": "a finite number or null",
                 "validity": "a number in [0, 1] or null",
                 "divergence": [DIVERGENCE_FIELDS]}
REPORT_FIELDS = {"prompt_len": "a count", "total_steps": "a count", "checkpoints": "a list of counts",
                 "repeats": "a count", "seed": "a count", "timing": "a boolean",
                 "trajectory": "'synthetic' or 'generated'", "policies": [POLICY_FIELDS]}

# the CSV's header, each column with the kind of the JSON value it holds
CSV_HEADER = {name: {**POLICY_FIELDS, **DIVERGENCE_FIELDS, "ckpt": DIVERGENCE_FIELDS["t"]}[name]
              for name in ("policy", "peak_entries", "bytes", "mean_tok_s", "ckpt",
                           "max_logit_diff", "kl", "validity")}


def divergence(t: int, a: np.ndarray, b: np.ndarray) -> dict:
    """Max absolute logit difference and KL(softmax(a) || softmax(b)) at
    checkpoint ``t``; ``a`` is the reference."""
    return {
        "t": t,
        "max_logit_diff": float(np.max(np.abs(a - b))),
        "kl": float(np.sum(softmax(a) * (log_softmax(a) - log_softmax(b)))),
    }


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
    continuation: list[Token] = []
    for story_seed in itertools.count(seed):
        for story in synth_stories(4, items_per_story=8, rng_seed=story_seed, d_feat=4):
            for item in story.items:
                continuation.extend(item_tokens(item, prompt.m, v_text))
                if len(continuation) >= total_steps:
                    return list(prompt.tokens) + continuation[:total_steps]


def default_checkpoints(prompt_len: int, total_steps: int) -> list[int]:
    """Quartile prefix lengths across the generated region."""
    return sorted({prompt_len + max(1, (total_steps * q) // 4) for q in (1, 2, 3, 4)})


def block_validity(free: GenerationResult, prompt_len: int) -> tuple[int, int]:
    """Attempted and valid image blocks of a free run after its ``prompt_len``-token prompt.

    Every generated begin marker is an attempt; the valid ones are the blocks
    the run's own permissive cache grammar completed from such a marker.
    """
    attempted = sum(token.kind is TokenKind.BOI for token in free.generated)
    return attempted, sum(begin >= prompt_len for begin, _ in free.trace.blocks)


def check_run(run: dict, kinds: list[str]) -> None:
    """Raise :class:`ConfigError` for run keys (a report's, ``policies`` aside) or policy
    kinds that no benchmark run may take."""
    if run["repeats"] < 1:
        raise ConfigError("repeats must be at least 1")
    if run["total_steps"] < 1:
        raise ConfigError("total_steps must be at least 1")
    if run["trajectory"] not in ("synthetic", "generated"):
        raise ConfigError(f"unknown trajectory source {run['trajectory']!r}")
    if not kinds:
        raise ConfigError("no policies to benchmark")
    repeated = [kind for kind in dict.fromkeys(kinds) if kinds.count(kind) > 1]
    if repeated:
        raise ConfigError(f"policy kinds {repeated} given more than once")
    checkpoints, end = run["checkpoints"], run["prompt_len"] + run["total_steps"]
    bad = [t for t in checkpoints if t < 1 or t > end]
    if bad:
        raise ConfigError(f"checkpoints {bad} outside 1..{end}")
    if not checkpoints or checkpoints != sorted(set(checkpoints)):
        raise ConfigError(f"checkpoints {checkpoints} are empty, unsorted or repeated")


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
) -> dict:
    """Benchmark each policy on one shared trajectory; return the report
    as :func:`write_report_json` writes it.

    ``trajectory`` selects where the teacher-forced tokens come from:
    "synthetic" splices deterministic story items after the prompt, which
    guarantees completed image blocks regardless of what the model would
    generate; "generated" uses the dense run's own constrained output.

    Report rows are keyed by policy kind, so each kind may appear once.
    With ``timing`` on, each policy's free generation runs ``repeats``
    timed times (every run has the same seed), and validity is
    :func:`block_validity` of the last run, with no second pass: the share
    of its attempted blocks that completed, or None when it attempted none.
    With ``timing`` off, no free generation runs, and ``mean_tok_s`` and
    ``validity`` are None.

    The dense reference replay always runs, so ``prompt + total_steps``
    must fit the model's position table, or :class:`ConfigError` is raised
    before any compute.
    """
    cfg = model.config
    prompt_len = len(prompt)
    if checkpoints is None:
        checkpoints = default_checkpoints(prompt_len, total_steps)
    run = {"prompt_len": prompt_len, "total_steps": total_steps, "checkpoints": checkpoints,
           "repeats": repeats, "seed": seed, "timing": timing, "trajectory": trajectory}
    check_run(run, [policy.kind for policy in policies])
    for policy in policies:
        policy.check_block_length(cfg.m)
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
        per_token_s, validity = [], None
        for _ in range(repeats if timing else 0):
            started = time.perf_counter()
            free = generate(model, prompt, policy, total_steps, mode="free", seed=seed)
            per_token_s.append((time.perf_counter() - started) / len(free.generated))
        if timing:
            attempted, valid = block_validity(free, prompt_len)
            validity = valid / attempted if attempted else None
        results.append({
            "policy": policy.kind,
            "params": policy.params(),
            "peak_entries": peak,
            "bytes": bytes_estimate(peak, cfg.layers, cfg.heads, cfg.d_head),
            "mean_tok_s": float(np.mean(per_token_s)) if timing else None,
            "validity": validity,
            "divergence": [divergence(t, dense_logits[t], policy_logits[t]) for t in checkpoints],
        })
    return {**run, "policies": results}


def write_report_csv(report: dict, path) -> None:
    """One row per policy and checkpoint of ``report["policies"]``."""
    rows = []
    for r in report["policies"]:
        tok_s, validity = ("" if r[key] is None else repr(r[key])
                           for key in ("mean_tok_s", "validity"))
        rows.extend([r["policy"], r["peak_entries"], r["bytes"], tok_s,
                     div["t"], repr(div["max_logit_diff"]), repr(div["kl"]),
                     validity] for div in r["divergence"])
    write_csv(path, CSV_HEADER, rows)


def write_report_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def record_policy(record: dict, where: str) -> CachePolicy:
    """The :class:`CachePolicy` a record's checked ``policy`` and ``params`` name. A policy
    that rejects them raises :class:`ValueError` naming ``where``."""
    try:
        return CachePolicy(record["policy"], **record["params"])
    except ConfigError as exc:
        raise ValueError(f"{where} {exc}") from None


def check_report(payload, where) -> None:
    """A key missing, unknown or outside its kind, an entry :func:`record_policy` rejects, a
    ``mean_tok_s`` null exactly where ``timing`` is on, a divergence not at the checkpoints, or
    a run :func:`check_run` rejects raises :class:`ValueError` naming ``where``, entry and key."""
    check_fields(payload, REPORT_FIELDS, f"{where}:")
    for i, entry in enumerate(payload["policies"]):
        at = f"{where}: policies[{i}]"
        record_policy(entry, at)
        if (entry["mean_tok_s"] is None) == payload["timing"]:
            raise ValueError(f"{at} mean_tok_s is {json.dumps(entry['mean_tok_s'])}, "
                             f"timing is {json.dumps(payload['timing'])}")
        ts = [div["t"] for div in entry["divergence"]]
        if ts != payload["checkpoints"]:
            raise ValueError(f"{at} divergence at t={ts}, "
                             f"the checkpoints are {payload['checkpoints']}")
    try:
        check_run(payload, [entry["policy"] for entry in payload["policies"]])
    except ConfigError as exc:
        raise ValueError(f"{where}: {exc}") from None
