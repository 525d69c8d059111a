"""Command-line entry point.

Subcommands: synth, train-toy, gen, stats, bench, validate. Settings come
from built-in profile defaults, overridden by an INI-style config file with
sections named after the library modules, overridden again by flags. Every
run prints its effective configuration first, so any output can be
reproduced from the printed lines alone.

Exit codes: 0 success, 1 validation or runtime failure, 2 usage error.
``MMSINK_SEED`` provides a fallback seed when neither flag nor file set one.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys

from . import attnstats, bench, engine, losses, seqmodel
from .cachepolicy import CachePolicy
from .engine import Model, ModelConfig
from .errors import (
    ConfigError,
    SequenceGrammarError,
    StateError,
    StoryFormatError,
    TrainingDiverged,
)

KNOWN_KEYS: dict[str, dict[str, type]] = {
    "cli": {"profile": str, "seed": int},
    "seqmodel": {"v_text": int, "m": int, "d_feat": int, "items_per_story": int},
    "engine": {
        "layers": int, "heads": int, "d_model": int, "d_ff": int,
        "q_queries": int, "max_positions": int,
    },
    "cachepolicy": {"policy": str, "window": int, "n_sink": int, "k_head": int, "k_tail": int},
    "losses": {"lam": float, "lr": float, "steps": int},
    "bench": {"steps": int, "repeats": int, "checkpoints": str, "timing": str},
}

_DESK = {
    ("seqmodel", "v_text"): 256,
    ("seqmodel", "m"): 8,
    ("seqmodel", "d_feat"): 16,
    ("seqmodel", "items_per_story"): 30,
    ("engine", "layers"): 2,
    ("engine", "heads"): 2,
    ("engine", "d_model"): 64,
    ("engine", "d_ff"): 256,
    ("engine", "q_queries"): 4,
    ("engine", "max_positions"): 4096,
    ("cachepolicy", "policy"): "mmsink",
    ("cachepolicy", "window"): 64,
    ("cachepolicy", "n_sink"): 4,
    ("cachepolicy", "k_head"): 1,
    ("cachepolicy", "k_tail"): 2,
    ("losses", "lam"): 1.0,
    ("losses", "lr"): 0.5,
    ("losses", "steps"): 500,
    ("bench", "steps"): 512,
    ("bench", "repeats"): 3,
    ("bench", "checkpoints"): "",
    ("bench", "timing"): "off",
}

_PAPER_FAITHFUL = dict(_DESK)
_PAPER_FAITHFUL.update({
    ("seqmodel", "m"): 64,
    ("engine", "q_queries"): 64,
    ("engine", "max_positions"): 16384,
    ("cachepolicy", "window"): 256,
    ("cachepolicy", "n_sink"): 4,
    ("cachepolicy", "k_head"): 5,
    ("cachepolicy", "k_tail"): 8,
})

PROFILES = {"desk": _DESK, "paper-faithful": _PAPER_FAITHFUL}


def _load_config_file(path) -> dict[tuple[str, str], object]:
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file {path} not found")
    values: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            caster = KNOWN_KEYS[section][key]
            try:
                values[(section, key)] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


def _resolve_config(args, flag_overrides: dict[tuple[str, str], object]):
    """Profile defaults, then config file, then flags. Returns (cfg, seed)."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    profile = getattr(args, "profile", None) or file_values.get(("cli", "profile")) or "desk"
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, expected one of {sorted(PROFILES)}")
    cfg = dict(PROFILES[profile])
    cfg.update({k: v for k, v in file_values.items() if k != ("cli", "profile")})
    cfg.update({k: v for k, v in flag_overrides.items() if v is not None})
    cfg[("cli", "profile")] = profile

    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get(("cli", "seed"))
    if seed is None:
        env = os.environ.get("MMSINK_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise ConfigError(f"MMSINK_SEED must be an integer, got {env!r}") from exc
    if seed is None:
        seed = 0
    cfg[("cli", "seed")] = int(seed)
    return cfg, int(seed)


def _print_effective(command: str, cfg: dict, extras: dict) -> None:
    print(f"[{command}] effective config:")
    for (section, key) in sorted(cfg):
        print(f"  {section}.{key} = {cfg[(section, key)]}")
    for key in sorted(extras):
        print(f"  {command}.{key} = {extras[key]}")


def _model_config(cfg, seed: int) -> ModelConfig:
    return ModelConfig(
        layers=cfg[("engine", "layers")],
        heads=cfg[("engine", "heads")],
        d_model=cfg[("engine", "d_model")],
        d_ff=cfg[("engine", "d_ff")],
        v_text=cfg[("seqmodel", "v_text")],
        m=cfg[("seqmodel", "m")],
        q_queries=cfg[("engine", "q_queries")],
        d_feat=cfg[("seqmodel", "d_feat")],
        max_positions=cfg[("engine", "max_positions")],
        seed=seed,
    )


def _policy_from_cfg(cfg, kind: str | None = None) -> CachePolicy:
    kind = kind or cfg[("cachepolicy", "policy")]
    w = cfg[("cachepolicy", "window")]
    n = cfg[("cachepolicy", "n_sink")]
    if kind == "dense":
        return CachePolicy.dense()
    if kind == "window":
        return CachePolicy.windowed(w)
    if kind == "sink":
        return CachePolicy.sink(n, w)
    if kind == "mmsink":
        return CachePolicy.mmsink(n, cfg[("cachepolicy", "k_head")], cfg[("cachepolicy", "k_tail")], w)
    raise ConfigError(f"unknown policy {kind!r}")


def _obtain_model(args, cfg, seed: int) -> Model:
    if getattr(args, "model", None):
        return engine.load_model(args.model)
    return Model.init(_model_config(cfg, seed))


def _build_prompt(model: Model, items: int, prompt_seed: int) -> seqmodel.MultimodalSequence:
    cfg = model.config
    story = seqmodel.synth_stories(1, items_per_story=max(items, 1),
                                   rng_seed=prompt_seed, d_feat=cfg.d_feat)[0]
    return seqmodel.prompt_sequence(story, items, m=cfg.m, v_text=cfg.v_text)


# -- subcommands -------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg, seed = _resolve_config(args, {
        ("seqmodel", "items_per_story"): args.len,
        ("seqmodel", "d_feat"): args.d_feat,
    })
    _print_effective("synth", cfg, {"stories": args.stories, "out": args.out})
    stories = seqmodel.synth_stories(
        args.stories,
        items_per_story=cfg[("seqmodel", "items_per_story")],
        rng_seed=seed,
        d_feat=cfg[("seqmodel", "d_feat")],
    )
    seqmodel.write_stories(stories, args.out)
    print(f"wrote {len(stories)} stories to {args.out}")
    return 0


def cmd_train_toy(args) -> int:
    cfg, seed = _resolve_config(args, {
        ("losses", "steps"): args.steps,
        ("losses", "lr"): args.lr,
        ("losses", "lam"): args.lam,
    })
    extras = {
        "stories": args.stories or f"<synthetic x{args.synth_stories}>",
        "model_out": args.model_out,
        "curve_out": args.curve_out or "<none>",
    }
    _print_effective("train-toy", cfg, extras)
    if args.stories:
        stories = seqmodel.read_stories(args.stories)
    else:
        stories = seqmodel.synth_stories(
            args.synth_stories,
            items_per_story=args.synth_len,
            rng_seed=seed,
            d_feat=cfg[("seqmodel", "d_feat")],
        )
    model = Model.init(_model_config(cfg, seed))
    samples = losses.build_samples(
        stories, seed, m=model.config.m, v_text=model.config.v_text
    )
    result = losses.train_toy(
        model, samples,
        steps=cfg[("losses", "steps")],
        lr=cfg[("losses", "lr")],
        seed=seed,
        lam=cfg[("losses", "lam")],
    )
    engine.save_model(result.model, args.model_out)
    if args.curve_out:
        with open(args.curve_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["step", "ce", "img", "combined"])
            for step, ce, img, combined in result.curve:
                writer.writerow([step, repr(ce), repr(img), repr(combined)])
    print(
        f"trained {cfg[('losses', 'steps')]} steps: "
        f"mean combined loss {result.eval_initial:.4f} -> {result.eval_final:.4f}"
    )
    return 0


def cmd_gen(args) -> int:
    cfg, seed = _resolve_config(args, {
        ("cachepolicy", "policy"): args.policy,
        ("cachepolicy", "window"): args.window,
        ("cachepolicy", "n_sink"): args.n_sink,
        ("cachepolicy", "k_head"): args.k_head,
        ("cachepolicy", "k_tail"): args.k_tail,
    })
    extras = {
        "model": args.model or "<fresh from config>",
        "out": args.out,
        "steps": args.steps,
        "mode": args.mode,
        "prompt_items": args.prompt_items,
        "prompt_seed": args.prompt_seed if args.prompt_seed is not None else seed,
        "attn_dump": args.attn_dump or "<none>",
        "features": args.features,
        "boi_every": "<none>" if args.boi_every is None else args.boi_every,
    }
    _print_effective("gen", cfg, extras)
    model = _obtain_model(args, cfg, seed)
    policy = _policy_from_cfg(cfg)
    prompt_seed = args.prompt_seed if args.prompt_seed is not None else seed
    prompt = _build_prompt(model, args.prompt_items, prompt_seed)
    result = engine.generate(
        model, prompt, policy, args.steps,
        mode=args.mode, seed=seed, temperature=args.temperature,
        attn_dump=bool(args.attn_dump), predict_features=args.features,
        boi_every=args.boi_every,
    )
    record = {
        "kind": "mmsink-generation-v1",
        "policy": policy.kind,
        "params": {"window": policy.window, "n_sink": policy.n_sink,
                   "k_head": policy.k_head, "k_tail": policy.k_tail},
        "mode": args.mode,
        "seed": seed,
        "steps": args.steps,
        "prompt_len": len(prompt),
        "m": model.config.m,
        "valid": result.sequence is not None,
        "labels": [seqmodel.token_label(t) for t in result.tokens],
        "blocks": [list(b) for b in result.sequence.image_blocks] if result.sequence else [],
        "violations": result.trace.violations,
        "peak_entries": result.peak_entries,
        "entry_counts": result.trace.entry_counts,
        "forced_completion_steps": result.trace.forced_completion_steps,
    }
    if args.features:
        record["features"] = [
            {"block_start": pos, "values": [[float(x) for x in row] for row in feats]}
            for pos, feats in result.trace.predicted_features
        ]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record))
        fh.write("\n")
    if args.attn_dump:
        with open(args.attn_dump, "w", encoding="utf-8", newline="\n") as fh:
            for rec in result.trace.attention_dumps:
                fh.write(json.dumps(rec))
                fh.write("\n")
    print(
        f"generated {len(result.generated)} tokens under {policy.describe()}, "
        f"peak entries {result.peak_entries}, valid={record['valid']}"
    )
    return 0


def cmd_stats(args) -> int:
    cfg, _seed = _resolve_config(args, {})
    extras = {"dumps": args.dumps, "k": args.k,
              "occ_out": args.occ_out, "cat_out": args.cat_out or "<none>"}
    _print_effective("stats", cfg, extras)
    records = attnstats.load_records(args.dumps)
    table = attnstats.aggregate_occurrence(records, k=args.k)
    attnstats.write_occurrence_csv(table, args.occ_out)
    m = cfg[("seqmodel", "m")]
    k_head = cfg[("cachepolicy", "k_head")]
    k_tail = cfg[("cachepolicy", "k_tail")]
    if args.cat_out:
        attnstats.write_category_csv(table, m, k_head, k_tail, args.cat_out)
    shares = attnstats.category_shares(table, m, k_head, k_tail)
    print(f"analyzed {table.total_maps} maps; category shares:")
    for cat in attnstats.CATEGORIES:
        print(f"  {cat}: {shares[cat]:.4f}")
    return 0


def cmd_bench(args) -> int:
    cfg, seed = _resolve_config(args, {
        ("bench", "steps"): args.steps,
        ("bench", "repeats"): args.repeats,
        ("bench", "checkpoints"): args.checkpoints,
        ("bench", "timing"): args.timing,
        ("cachepolicy", "window"): args.window,
        ("cachepolicy", "n_sink"): args.n_sink,
        ("cachepolicy", "k_head"): args.k_head,
        ("cachepolicy", "k_tail"): args.k_tail,
    })
    extras = {
        "model": args.model or "<fresh from config>",
        "policies": args.policies,
        "report": args.report,
        "json": args.json_out or "<none>",
        "trajectory": args.trajectory,
        "prompt_items": args.prompt_items,
    }
    _print_effective("bench", cfg, extras)
    model = _obtain_model(args, cfg, seed)
    kinds = [p.strip() for p in args.policies.split(",") if p.strip()]
    policies = [_policy_from_cfg(cfg, kind) for kind in kinds]
    prompt = _build_prompt(model, args.prompt_items, seed)
    raw_ckpts = cfg[("bench", "checkpoints")]
    checkpoints = None
    if raw_ckpts:
        try:
            checkpoints = [int(x) for x in str(raw_ckpts).split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"bench.checkpoints must be comma-separated integers ({exc})") from None
    timing_mode = str(cfg[("bench", "timing")])
    if timing_mode not in ("off", "wall"):
        raise ConfigError(f"timing must be 'off' or 'wall', got {timing_mode!r}")
    report = bench.run_benchmark(
        model, prompt, policies,
        total_steps=cfg[("bench", "steps")],
        checkpoints=checkpoints,
        repeats=cfg[("bench", "repeats")],
        seed=seed,
        timing=timing_mode == "wall",
        trajectory=args.trajectory,
    )
    bench.write_report_csv(report, args.report)
    if args.json_out:
        bench.write_report_json(report, args.json_out)
    for r in report.results:
        print(
            f"  {r.name}: peak_entries={r.peak_entries} bytes={r.bytes_estimate} "
            f"validity={r.validity_rate:.3f} "
            f"final_kl={r.divergence[-1].kl:.6g}"
        )
    return 0


def _validate_jsonl(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            if line.strip():
                first = line
                break
    if not first:
        raise ValueError(f"{path}: empty file")
    record = json.loads(first)
    if "story_id" in record:
        stories = seqmodel.read_stories(path)
        return f"story file with {len(stories)} stories"
    if record.get("kind") == "mmsink-generation-v1":
        required = ("policy", "mode", "seed", "steps", "valid", "labels", "blocks",
                    "violations", "peak_entries")
        missing = [k for k in required if k not in record]
        if missing:
            raise ValueError(f"{path}: generation record missing {missing}")
        if record["valid"] and record["blocks"]:
            n_labels = len(record["labels"])
            for b, e in record["blocks"]:
                if not (0 <= b < e < n_labels):
                    raise ValueError(f"{path}: block ({b}, {e}) out of range")
        return "generation record"
    if all(k in record for k in ("t", "layer", "head", "labels", "positions", "row")):
        records = attnstats.records_from_dumps(attnstats.load_dump_file(path))
        return f"attention dump with {len(records)} maps"
    raise ValueError(f"{path}: unrecognized JSONL content")


# header -> (columns parsed as int or float, description with the row count)
_CSV_TABLES = {
    tuple(bench.CSV_HEADER): ({5: float, 6: float, 7: float}, "benchmark report with {} rows"),
    ("label", "count"): ({1: int}, "occurrence table with {} labels"),
    ("category", "share"): ({1: float}, "category share table"),
    ("step", "ce", "img", "combined"): ({0: int, 1: float, 2: float, 3: float},
                                        "loss curve with {} steps"),
}


def _validate_csv(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {line} has {len(row)} fields, the header has {len(header)}"
            )
    if tuple(header) not in _CSV_TABLES:
        raise ValueError(f"{path}: unrecognized CSV header {header}")
    kinds, description = _CSV_TABLES[tuple(header)]
    for line, row in enumerate(rows, start=2):
        if header[0] == "category" and row[0] not in attnstats.CATEGORIES:
            raise ValueError(f"{path}: row {line}: unknown category {row[0]!r}")
        for col, kind in kinds.items():
            try:
                kind(row[col])
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ValueError(
                    f"{path}: row {line} column {header[col]!r}: {row[col]!r} is not {what}"
                ) from None
    return description.format(len(rows))


def _validate_one(path) -> str:
    if not os.path.exists(path):
        raise ValueError(f"{path}: no such file")
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") == "mmsink-model-v1":
            engine.load_model(path)
            return "model file"
        if "policies" in payload:
            bench.load_report_json(path)
            return "benchmark JSON report"
        raise ValueError(f"{path}: unrecognized JSON content")
    if path.endswith(".jsonl"):
        return _validate_jsonl(path)
    if path.endswith(".csv"):
        return _validate_csv(path)
    raise ValueError(f"{path}: unsupported extension")


def cmd_validate(args) -> int:
    failures = 0
    for path in args.paths:
        try:
            kind = _validate_one(path)
        except Exception as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok: {path}: {kind}")
    return 1 if failures else 0


# -- parser -------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--profile", choices=sorted(PROFILES), help="parameter profile")
    sub.add_argument("--seed", type=int, help="run seed (fallback: MMSINK_SEED, then 0)")


def _add_policy_flags(sub) -> None:
    sub.add_argument("--policy", choices=["dense", "window", "sink", "mmsink"])
    sub.add_argument("--window", type=int)
    sub.add_argument("--n-sink", type=int, dest="n_sink")
    sub.add_argument("--k-head", type=int, dest="k_head")
    sub.add_argument("--k-tail", type=int, dest="k_tail")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsink",
        description="KV-cache retention policies for interleaved text/image generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic stories")
    _add_common(p)
    p.add_argument("--stories", type=int, required=True)
    p.add_argument("--len", type=int, default=None, help="items per story")
    p.add_argument("--d-feat", type=int, default=None, dest="d_feat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-toy", help="train the toy model")
    _add_common(p)
    p.add_argument("--stories", help="story JSONL file (default: synthesize)")
    p.add_argument("--synth-stories", type=int, default=20, dest="synth_stories")
    p.add_argument("--synth-len", type=int, default=4, dest="synth_len")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--model-out", required=True, dest="model_out")
    p.add_argument("--curve-out", dest="curve_out")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("gen", help="generate a sequence under a policy")
    _add_common(p)
    _add_policy_flags(p)
    p.add_argument("--model", help="model JSON (default: fresh seeded model)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--mode", choices=["constrained", "free"], default="constrained")
    p.add_argument("--temperature", type=float)
    p.add_argument("--prompt-items", type=int, default=1, dest="prompt_items")
    p.add_argument("--prompt-seed", type=int, dest="prompt_seed")
    p.add_argument("--boi-every", type=int, dest="boi_every")
    p.add_argument("--features", action="store_true")
    p.add_argument("--attn-dump", dest="attn_dump")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="attention-map key statistics")
    _add_common(p)
    p.add_argument("--dumps", required=True, help="dump file or directory")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--occ-out", required=True, dest="occ_out")
    p.add_argument("--cat-out", dest="cat_out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="compare retention policies")
    _add_common(p)
    _add_policy_flags(p)
    p.add_argument("--model", help="model JSON (default: fresh seeded model)")
    p.add_argument("--policies", default="dense,window,sink,mmsink")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--checkpoints", default=None, help="comma-separated prefix lengths")
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--timing", choices=["off", "wall"], default=None)
    p.add_argument("--trajectory", choices=["synthetic", "generated"], default="synthetic")
    p.add_argument("--prompt-items", type=int, default=1, dest="prompt_items")
    p.add_argument("--report", required=True)
    p.add_argument("--json", dest="json_out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("validate", help="validate files emitted by other subcommands")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StoryFormatError, SequenceGrammarError, StateError,
            TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
