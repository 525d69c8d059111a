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
import contextlib
import csv
import itertools
import json
import os
import sys

from . import attnstats, bench, engine, losses, seqmodel
from .cachepolicy import KIND_PARAMS, POLICY_KINDS, CachePolicy
from .engine import Model, ModelConfig
from .errors import ConfigError, StateError, TrainingDiverged

# the ModelConfig fields each config section sets; their desk values are its defaults
_MODEL_KEYS = [(section, key) for section, keys in (
    ("seqmodel", ("v_text", "m", "d_feat")),
    ("engine", ("layers", "heads", "d_model", "d_ff", "q_queries", "max_positions")),
) for key in keys]

_DESK = {(section, key): getattr(ModelConfig(), key) for section, key in _MODEL_KEYS}
_DESK.update({
    ("seqmodel", "items_per_story"): seqmodel.DEFAULT_ITEMS_PER_STORY,
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
})

# each config key's type, by section: the type of its desk value
KNOWN_KEYS: dict[str, dict[str, type]] = {"cli": {"profile": str, "seed": int}}
for (_section, _key), _value in _DESK.items():
    KNOWN_KEYS.setdefault(_section, {})[_key] = type(_value)

_PAPER_FAITHFUL = dict(_DESK)
_PAPER_FAITHFUL.update({
    ("seqmodel", "m"): 64,
    ("engine", "q_queries"): 64,
    ("engine", "max_positions"): 16384,
    ("cachepolicy", "window"): 256,
    ("cachepolicy", "k_head"): 5,
    ("cachepolicy", "k_tail"): 8,
})

PROFILES = {"desk": _DESK, "paper-faithful": _PAPER_FAITHFUL}

# the values a config key may take, where its type allows more: checked in a config
# file, and the choices of the flag that sets the key
_CHOICES = {("cli", "profile"): tuple(PROFILES), ("cachepolicy", "policy"): POLICY_KINDS,
            ("bench", "timing"): ("off", "wall")}


def _load_config_file(path) -> dict[tuple[str, str], object]:
    parser = configparser.ConfigParser()
    read = parser.read(path, encoding="utf-8")
    if not read:
        raise ConfigError(f"config file {path} not found")
    values: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"{path}: unknown config key {key!r} in section [{section}]")
            caster = KNOWN_KEYS[section][key]
            try:
                value = values[(section, key)] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
            choices = _CHOICES.get((section, key))
            if choices is not None and value not in choices:
                raise ConfigError(f"{path}: [{section}] {key}: unknown value {value!r}, "
                                  f"expected one of {list(choices)}")
    return values


def _resolve_config(args):
    """Profile defaults, then config file, then flags. A flag that sets a
    config key has that key, ``section.key``, as its dest. Returns (cfg, seed)."""
    file_values = _load_config_file(args.config) if args.config else {}
    flags = {tuple(k.split(".")): v for k, v in vars(args).items() if "." in k and v is not None}
    cfg = {("cli", "profile"): "desk", **file_values, **flags}
    cfg = {**PROFILES[cfg[("cli", "profile")]], **cfg}
    if ("cli", "seed") not in cfg:
        env = os.environ.get("MMSINK_SEED", "0")
        try:
            cfg[("cli", "seed")] = int(env)
        except ValueError as exc:
            raise ConfigError(f"MMSINK_SEED must be an integer, got {env!r}") from exc
    return cfg, cfg[("cli", "seed")]


# dests not printed as ``command.dest``: argparse's own, and the config file's path
_UNPRINTED = {"func", "command", "config"}


def _print_effective(command: str, cfg: dict, args) -> None:
    """The config keys, then each other argument of the run as
    ``command.dest``, so the lines reproduce the run."""
    print(f"[{command}] effective config:")
    for (section, key) in sorted(cfg):
        print(f"  {section}.{key} = {cfg[(section, key)]}")
    for dest, value in sorted(vars(args).items()):
        if "." not in dest and dest not in _UNPRINTED:
            print(f"  {command}.{dest} = {'<none>' if value is None else value}")


def _at_least_one(command: str, args, *dests: str) -> None:
    """Reject a count argument below 1, named as ``command.dest``."""
    for dest in dests:
        if getattr(args, dest) < 1:
            raise ConfigError(f"{command}.{dest} must be at least 1, got {getattr(args, dest)}")


def _model_config(cfg, seed: int) -> ModelConfig:
    return ModelConfig(**{key: cfg[(section, key)] for section, key in _MODEL_KEYS}, seed=seed)


def _policy_from_cfg(cfg, kind: str | None = None) -> CachePolicy:
    kind = kind or cfg[("cachepolicy", "policy")]
    reads = KIND_PARAMS.get(kind, ())  # none for an unknown kind, which CachePolicy rejects
    return CachePolicy(kind, **{name: cfg[("cachepolicy", name)] for name in reads})


def _obtain_model(args, cfg, seed: int) -> Model:
    if getattr(args, "model", None):
        return engine.load_model(args.model)
    return Model.init(_model_config(cfg, seed))


def _build_prompt(model: Model, items: int, prompt_seed: int) -> seqmodel.MultimodalSequence:
    cfg = model.config
    story = seqmodel.synth_stories(1, items_per_story=items, rng_seed=prompt_seed,
                                   d_feat=cfg.d_feat)[0]
    return seqmodel.prompt_sequence(story, items, m=cfg.m, v_text=cfg.v_text)


# -- subcommands -------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg, seed = _resolve_config(args)
    _print_effective("synth", cfg, args)
    _at_least_one("synth", args, "stories")
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
    cfg, seed = _resolve_config(args)
    _print_effective("train-toy", cfg, args)
    _at_least_one("train-toy", args, "synth_stories", "synth_len")
    if args.stories:
        stories = seqmodel.read_stories(args.stories)  # all of the first story's dimension
        story, d_feat = stories[0], cfg[("seqmodel", "d_feat")]
        if story.feat_dim != d_feat:
            raise ConfigError(f"{args.stories}: story {story.story_id!r} has {story.feat_dim}"
                              f"-dimensional image features, [seqmodel] d_feat is {d_feat}")
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
        seqmodel.write_csv(args.curve_out, losses.CURVE_HEADER,
                           [(step, repr(ce), repr(img), repr(combined))
                            for step, ce, img, combined in result.curve])
    print(
        f"trained {cfg[('losses', 'steps')]} steps: "
        f"mean combined loss {result.eval_initial:.4f} -> {result.eval_final:.4f}"
    )
    return 0


@contextlib.contextmanager
def _moved_into_place(path):
    """A text file moved onto ``path`` if the block completes, removed if it raises."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:  # after a successful replace there is nothing left to remove
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def cmd_gen(args) -> int:
    cfg, seed = _resolve_config(args)
    _print_effective("gen", cfg, args)
    _at_least_one("gen", args, "prompt_items")
    model = _obtain_model(args, cfg, seed)
    policy = _policy_from_cfg(cfg)
    prompt_seed = args.prompt_seed if args.prompt_seed is not None else seed
    prompt = _build_prompt(model, args.prompt_items, prompt_seed)
    features = []  # (begin marker position, predicted features) per block opened
    with _moved_into_place(args.attn_dump) if args.attn_dump else contextlib.nullcontext() as dump:
        write = None if dump is None else attnstats.dump_writer(dump)

        def observe(run, step, cache) -> None:
            if write is not None:
                write(run, step, cache)
            if args.features and cache.in_block and cache.next_slot == 0:
                features.append((cache.t - 1, engine.predict_image_features(model, cache)))

        result = engine.generate(
            model, prompt, policy, args.steps, mode=args.mode, seed=seed,
            temperature=args.temperature, boi_every=args.boi_every, observe=observe,
        )
        record = {
            "kind": "mmsink-generation-v1",
            "policy": policy.kind,
            "params": policy.params(),
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
            record["features"] = [{"block_start": pos, "values": feats.tolist()}
                                  for pos, feats in features]
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(record))
            fh.write("\n")
    print(
        f"generated {len(result.generated)} tokens under {policy.describe()}, "
        f"peak entries {result.peak_entries}, valid={record['valid']}"
    )
    return 0


def cmd_stats(args) -> int:
    cfg, _seed = _resolve_config(args)
    _print_effective("stats", cfg, args)
    _at_least_one("stats", args, "k")
    records = attnstats.load_records(args.dumps)
    m = cfg[("seqmodel", "m")]
    k_head = cfg[("cachepolicy", "k_head")]
    k_tail = cfg[("cachepolicy", "k_tail")]
    for label in set().union(*(r.labels for r in records)):  # a slot m cannot hold raises
        attnstats.classify_token(label, m, k_head, k_tail)
    table = attnstats.aggregate_occurrence(records, k=args.k)
    attnstats.write_occurrence_csv(table, args.occ_out)
    shares = attnstats.category_shares(table, m, k_head, k_tail)
    if args.cat_out:
        attnstats.write_category_csv(shares, args.cat_out)
    print(f"analyzed {table.total_maps} maps; category shares:")
    for cat in attnstats.CATEGORIES:
        print(f"  {cat}: {shares[cat]:.4f}")
    return 0


def cmd_bench(args) -> int:
    cfg, seed = _resolve_config(args)
    del cfg[("cachepolicy", "policy")]  # bench runs each of --policies
    _print_effective("bench", cfg, args)
    _at_least_one("bench", args, "prompt_items")
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
    report = bench.run_benchmark(
        model, prompt, policies,
        total_steps=cfg[("bench", "steps")],
        checkpoints=checkpoints,
        repeats=cfg[("bench", "repeats")],
        seed=seed,
        timing=cfg[("bench", "timing")] == "wall",
        trajectory=args.trajectory,
    )
    bench.write_report_csv(report, args.report)
    if args.json_out:
        bench.write_report_json(report, args.json_out)
    for r in report["policies"]:
        print(
            f"  {r['policy']}: peak_entries={r['peak_entries']} bytes={r['bytes']} "
            f"validity={'-' if r['validity'] is None else format(r['validity'], '.3f')} "
            f"final_kl={r['divergence'][-1]['kl']:.6g}"
        )
    return 0


# the keys a generation record holds and the kind of each (see seqmodel.check_fields);
# only gen --features writes "features", the predicted features of each image block opened
_GENERATION_FIELDS = {
    "kind": "a string", "policy": "a string", "params": bench.PARAM_FIELDS,
    "mode": "'constrained' or 'free'", "seed": "a count", "steps": "a count", "prompt_len": "a count",
    "m": "a count", "valid": "a boolean", "labels": "a list of strings",
    "blocks": "a list of integer pairs", "violations": "a list of strings", "peak_entries": "a count",
    "entry_counts": "a list of counts", "forced_completion_steps": "a count",
    "features": [{"block_start": "a count", "values": "a list of lists of finite numbers"}],
}


def _check_generation_record(record, where) -> None:
    """Raise :class:`ValueError` from ``where`` for a relation a checked record's fields break."""
    policy, m, labels = bench.record_policy(record, where), record["m"], record["labels"]
    try:  # the policy fits m, and so does every image slot label, as stats asks
        policy.check_block_length(m)
        for label in labels:
            attnstats.classify_token(label, m, 0, 0)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None
    counts, fed = record["entry_counts"], len(labels) - record["prompt_len"]
    steps = record["steps"] + record["forced_completion_steps"]
    if not len(counts) == fed == steps:
        raise ValueError(f"{where} entry_counts has {len(counts)} counts for {fed} labels "
                         f"after prompt_len and {steps} steps + forced_completion_steps")
    if max(counts, default=0) > record["peak_entries"]:
        raise ValueError(f"{where} entry_counts reach {max(counts)}, above peak_entries")
    listed = "violations" if record["valid"] else "blocks"
    if record[listed]:
        raise ValueError(f"{where} {listed} is not empty, valid is {json.dumps(record['valid'])}")
    block = [seqmodel.token_label(token) for token in seqmodel.image_block_tokens(m)]
    spans = [[b, b + m + 1] for b, label in enumerate(labels) if label == "BOI" and record["valid"]]
    for i, (got, span) in enumerate(itertools.zip_longest(record["blocks"], spans)):
        if got != span:
            raise ValueError(f"{where} blocks[{i}] is {json.dumps(got)} where the BOI labels "
                             f"give {json.dumps(span)}")
        for k, want in enumerate(block, start=span[0]):
            if labels[k:k + 1] != [want]:
                raise ValueError(f"{where} labels[{k}] is not {want!r}, inside blocks[{i}]")
    after, first = record["prompt_len"] - 1, None  # the position each block_start follows
    for i, feature in enumerate(record.get("features", [])):
        begin, values = feature["block_start"], feature["values"]
        if begin <= after or labels[begin:begin + 1] != ["BOI"]:
            raise ValueError(f"{where} features[{i}] block_start {begin} is no BOI after {after}")
        shape = (len(values), *set(map(len, values)))  # (rows, width) for rows of one width
        after, first = begin, first or shape
        if len(shape) != 2 or shape != first:
            raise ValueError(f"{where} features[{i}] values has {len(values)} rows of lengths "
                             f"{sorted(shape[1:])}; all share one non-zero row count and length")


def _validate_jsonl(path) -> str:
    """Each line of a generation-record file is checked and named if it fails;
    story files and attention dumps go through their own readers."""
    _, first = next(seqmodel.jsonl_objects(path), (0, None))
    if first is None:
        raise ValueError(f"{path}: empty file")
    if "story_id" in first:
        stories = seqmodel.read_stories(path)
        return f"story file with {len(stories)} stories"
    if first.get("kind") == "mmsink-generation-v1":
        for count, (lineno, record) in enumerate(seqmodel.jsonl_objects(path), start=1):
            if record.get("kind") != "mmsink-generation-v1":
                raise ValueError(f"{path}: line {lineno}: not a generation record")
            where = f"{path}: line {lineno}: generation record"
            seqmodel.check_fields({"features": [], **record}, _GENERATION_FIELDS, where)
            _check_generation_record(record, where)
        return "generation record" if count == 1 else f"{count} generation records"
    if all(k in first for k in attnstats.DUMP_FIELDS):
        records = attnstats.load_dump_file(path)
        return f"attention dump with {len(records)} maps"
    raise ValueError(f"{path}: unrecognized JSONL content")


def _check_occurrence_rows(path, rows) -> None:
    """An occurrence table lists each label once, with a count of at least 1, by count
    descending, then label, as :func:`attnstats.aggregate_occurrence` orders them."""
    row_of: dict[str, int] = {}  # the row that lists each label
    for line, (label, count) in enumerate(rows, start=2):
        if label in row_of:
            raise ValueError(f"{path}: row {line} column 'label': {label!r}, "
                             f"row {row_of[label]} lists it already")
        if int(count) < 1:
            raise ValueError(f"{path}: row {line} column 'count': {count}, below 1")
        above_label, above = rows[line - 3] if line > 2 else (label, count)
        if (-int(count), label) < (-int(above), above_label):
            name, got, was = (("count", count, above) if int(count) != int(above)
                              else ("label", repr(label), repr(above_label)))
            raise ValueError(f"{path}: row {line} column {name!r}: {got} after {was}, the "
                             "rows go by count descending, then label")
        row_of[label] = line


def _check_category_rows(path, rows) -> None:
    """A category share table lists each of :data:`attnstats.CATEGORIES` once, in that
    order, and its shares sum to one."""
    named, expected = [repr(row[0]) for row in rows], map(repr, attnstats.CATEGORIES)
    for line, (got, want) in enumerate(itertools.zip_longest(named, expected, fillvalue="no row"),
                                       start=2):
        if got != want:
            raise ValueError(f"{path}: row {line} column 'category': {got}, expected {want}; the "
                             f"table lists {', '.join(attnstats.CATEGORIES)} once each, in order")
    total = sum(seqmodel.csv_value(row[1]) for row in rows)
    if not abs(total - 1.0) <= attnstats.ROW_SUM_TOL:
        raise ValueError(f"{path}: column 'share' sums to {total!r}, not 1")


def _check_bench_rows(path, rows) -> None:
    """A benchmark CSV flattens one report: it has rows, each policy's contiguous rows share
    its ``peak_entries``, ``bytes``, ``mean_tok_s`` and ``validity``, ``mean_tok_s`` is empty
    in every row or none, the first policy's checkpoints ascend without repeats, as
    :func:`bench.check_run` asks, and each policy lists them, in order."""
    if not rows:
        raise ValueError(f"{path}: benchmark report with no rows")
    groups: dict[str, list] = {}  # policy -> (line, cells) of each of its rows
    for line, row in enumerate(rows, start=2):
        if row[0] in groups and row[0] != list(groups)[-1]:  # seen, but not in the row above
            raise ValueError(f"{path}: row {line}: policy {row[0]!r} resumes after another")
        groups.setdefault(row[0], []).append((line, dict(zip(bench.CSV_HEADER, row))))
    head = next(iter(groups.values()))  # the first policy's rows, row 2 first
    ckpts, tok_s = [cells["ckpt"] for _, cells in head], head[0][1]["mean_tok_s"]
    for (line, cells), (_, above) in zip(head[1:], head):
        if int(cells["ckpt"]) <= int(above["ckpt"]):
            raise ValueError(f"{path}: row {line} column 'ckpt': {cells['ckpt']} after "
                             f"{above['ckpt']}, the checkpoints must ascend without repeats")
    for policy, group in groups.items():
        (at, first), own = group[0], [cells["ckpt"] for _, cells in group]
        for line, cells in group:
            for name in ("peak_entries", "bytes", "mean_tok_s", "validity"):
                if cells[name] != first[name]:
                    raise ValueError(f"{path}: row {line} column {name!r}: {cells[name]!r}, "
                                     f"row {at} of policy {policy!r} has {first[name]!r}")
        if (first["mean_tok_s"] == "") != (tok_s == ""):
            raise ValueError(f"{path}: row {at} column 'mean_tok_s': {first['mean_tok_s']!r}, "
                             f"row 2 has {tok_s!r}")
        if own != ckpts:
            line = next((ln for (ln, _), a, b in zip(group, own, ckpts) if a != b), group[-1][0])
            raise ValueError(f"{path}: row {line} column 'ckpt': policy {policy!r} lists "
                             f"checkpoints {','.join(own)}, the first policy {','.join(ckpts)}")


# each CSV header the tool writes -> (its columns' kinds, description with row count, row check)
_CSV_TABLES = {tuple(columns): (columns, description, check) for columns, description, check in [
    (bench.CSV_HEADER, "benchmark report with {} rows", _check_bench_rows),
    (attnstats.OCCURRENCE_HEADER, "occurrence table with {} labels", _check_occurrence_rows),
    (attnstats.CATEGORY_HEADER, "category share table", _check_category_rows),
    (losses.CURVE_HEADER, "loss curve with {} steps", lambda path, rows: None),
]}


def _validate_csv(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = list(reader)
    if tuple(header) not in _CSV_TABLES:
        raise ValueError(f"{path}: unrecognized CSV header {header}")
    columns, description, check = _CSV_TABLES[tuple(header)]
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line} has {len(row)} fields, "
                             f"the header has {len(header)}")
        for (name, kind), cell in zip(columns.items(), row):
            if not seqmodel.FIELD_KINDS[kind](seqmodel.csv_value(cell)):
                raise ValueError(f"{path}: row {line} column {name!r}: {cell!r} is not {kind}")
    check(path, rows)
    return description.format(len(rows))


def _validate_one(path) -> str:
    if not os.path.exists(path):
        raise ValueError(f"{path}: no such file")
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: the top level is not a JSON object")
        if payload.get("format") == "mmsink-model-v1":
            engine.model_from_payload(payload, path)
            return "model file"
        if "policies" in payload:
            bench.check_report(payload, path)
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
        except Exception as exc:  # the path once, whether or not the message begins with it
            print(f"error: {path}: {str(exc).removeprefix(f'{path}: ')}", file=sys.stderr)
            failures += 1
            continue
        print(f"ok: {path}: {kind}")
    return 1 if failures else 0


# -- parser -------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", help="INI config file")
    _key_flag(sub, "--profile", "cli.profile", help="parameter profile")
    _key_flag(sub, "--seed", "cli.seed", help="run seed (fallback: MMSINK_SEED, then 0)")


def _key_flag(sub, flag: str, key: str, **kwargs) -> None:
    """A flag that sets the config key ``key`` (``section.key``): its dest, its
    type, its choices and, unless given, its help."""
    section, name = key.split(".")
    kwargs.setdefault("help", f"[{section}] {name}")
    sub.add_argument(flag, dest=key, type=KNOWN_KEYS[section][name],
                     choices=_CHOICES.get((section, name)), **kwargs)


def _add_policy_flags(sub) -> None:
    for name in KIND_PARAMS["mmsink"]:  # every parameter a policy reads
        _key_flag(sub, "--" + name.replace("_", "-"), f"cachepolicy.{name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmsink",
        description="KV-cache retention policies for interleaved text/image generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic stories")
    _add_common(p)
    p.add_argument("--stories", type=int, required=True)
    _key_flag(p, "--len", "seqmodel.items_per_story")
    _key_flag(p, "--d-feat", "seqmodel.d_feat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-toy", help="train the toy model")
    _add_common(p)
    p.add_argument("--stories", help="story JSONL file (default: synthesize)")
    p.add_argument("--synth-stories", type=int, default=20, dest="synth_stories")
    p.add_argument("--synth-len", type=int, default=4, dest="synth_len")
    _key_flag(p, "--steps", "losses.steps")
    _key_flag(p, "--lr", "losses.lr")
    _key_flag(p, "--lam", "losses.lam")
    p.add_argument("--model-out", required=True, dest="model_out")
    p.add_argument("--curve-out", dest="curve_out")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("gen", help="generate a sequence under a policy")
    _add_common(p)
    _key_flag(p, "--policy", "cachepolicy.policy")
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
    _key_flag(p, "--k-head", "cachepolicy.k_head")
    _key_flag(p, "--k-tail", "cachepolicy.k_tail")
    p.add_argument("--occ-out", required=True, dest="occ_out")
    p.add_argument("--cat-out", dest="cat_out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("bench", help="compare retention policies")
    _add_common(p)
    _add_policy_flags(p)
    p.add_argument("--model", help="model JSON (default: fresh seeded model)")
    p.add_argument("--policies", default="dense,window,sink,mmsink")
    _key_flag(p, "--steps", "bench.steps")
    _key_flag(p, "--checkpoints", "bench.checkpoints", help="comma-separated prefix lengths")
    _key_flag(p, "--repeats", "bench.repeats")
    _key_flag(p, "--timing", "bench.timing")
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
    except (StateError, TrainingDiverged, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
