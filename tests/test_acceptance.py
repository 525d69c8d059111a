"""Acceptance criteria.

One test per criterion, at the stated tolerance. A conftest hook prints a
PASS/FAIL line per criterion. The wall-clock criterion (10) carries the
``benchmark`` marker and is excluded from the default run; invoke it with
``pytest -m benchmark``.
"""

import math
import time

import numpy as np
import pytest

from conftest import dumps_from_maps, make_stream
from mmsink import attnstats, bench, engine, losses
from mmsink import seqmodel as sq
from mmsink.cachepolicy import CachePolicy, KvCache, retain_set
from mmsink.cli import main
from mmsink.oracle import brute_retain_set, fd_gradient, recount_occurrences, relative_error
from mmsink.seqmodel import TokenKind


def _random_policy(rng: np.random.Generator, kind: str, m: int) -> CachePolicy:
    w = int(rng.integers(2, 48))
    if kind == "dense":
        return CachePolicy.dense()
    if kind == "window":
        return CachePolicy.windowed(w)
    n = int(rng.integers(1, w))
    if kind == "sink":
        return CachePolicy.sink(n, w)
    k_head = int(rng.integers(1, m))
    k_tail = int(rng.integers(1, m - k_head + 1))
    return CachePolicy.mmsink(n, k_head, k_tail, w)


def _history_snapshots(tokens) -> list[tuple[tuple[tuple[int, int], ...], int | None]]:
    """Block structure (blocks, open_start) of every prefix of a valid token stream."""
    blocks: list[tuple[int, int]] = []
    open_start = None
    out = []
    for pos, tok in enumerate(tokens):
        if tok.kind is TokenKind.BOI:
            open_start = pos
        elif tok.kind is TokenKind.EOI:
            blocks.append((open_start, pos))
            open_start = None
        out.append((tuple(blocks), open_start))
    return out


def test_criterion_1_retention_set_oracle_equivalence():
    """retain_set equals the brute-force enumerator on >= 10,000 cases."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    kinds = ["dense", "window", "sink", "mmsink"]
    cases = 0
    streams = 0
    while cases < 10_000:
        m = int(rng.integers(2, 10))
        length = int(rng.integers(8, 150))
        tokens = make_stream(rng, m, length)
        histories = _history_snapshots(tokens)
        streams += 1
        # spot-check the snapshot structure against the sequence validator
        seq = sq.MultimodalSequence.from_tokens(tokens, m, allow_in_progress=True)
        assert histories[-1] == (seq.image_blocks, seq.open_block)
        for _ in range(24):
            t = int(rng.integers(1, length + 1))
            policy = _random_policy(rng, kinds[cases % 4], m)
            got = retain_set(policy, *histories[t - 1], t)
            want = brute_retain_set(policy, *histories[t - 1], t)
            assert got == want, (
                f"mismatch: {policy} t={t} blocks={histories[t - 1]}"
            )
            cases += 1
    elapsed = time.perf_counter() - started
    assert cases >= 10_000 and streams > 100
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_within_window_equivalence(small_model):
    """All policies match dense logits bit for bit while nothing is evicted."""
    w = 24
    cfg = small_model.config
    policies = [
        CachePolicy.windowed(w),
        CachePolicy.sink(4, w),
        CachePolicy.mmsink(4, 1, 2, w),
    ]
    worst = 0.0
    for run_seed in range(100):
        rng = np.random.default_rng(run_seed)
        tokens = make_stream(rng, cfg.m, w)
        ts = range(1, len(tokens) + 1)
        dense_a, _ = engine.teacher_forced_logits(small_model, tokens, CachePolicy.dense(), ts)
        dense_b, _ = engine.teacher_forced_logits(small_model, tokens, CachePolicy.dense(), ts)
        for t in ts:
            # dense vs dense: exactly zero
            assert np.array_equal(dense_a[t], dense_b[t])
        for policy in policies:
            got, _ = engine.teacher_forced_logits(small_model, tokens, policy, ts)
            for t in ts:
                worst = max(worst, float(np.max(np.abs(got[t] - dense_a[t]))))
    assert worst <= 1e-9, f"max within-window logit deviation {worst}"


def test_criterion_3_memory_relation_and_closed_forms(small_model):
    """Dense > MultimodalSink > AttentionSink = Window entry counts."""
    w, n, k_head, k_tail, m = 64, 4, 1, 2, small_model.config.m
    policies = {
        "dense": CachePolicy.dense(),
        "window": CachePolicy.windowed(w),
        "sink": CachePolicy.sink(n, w),
        "mmsink": CachePolicy.mmsink(n, k_head, k_tail, w),
    }
    story = sq.synth_stories(1, items_per_story=1, rng_seed=0,
                             d_feat=small_model.config.d_feat)[0]
    prompt = sq.prompt_sequence(story, 1, m=m, v_text=small_model.config.v_text)
    tokens = bench.synthetic_trajectory(prompt, 512, seed=0,
                                        v_text=small_model.config.v_text)
    completed, _ = _history_snapshots(tokens)[-1]
    outside = [b for b in completed if b[1] < len(tokens) - (w - n)]
    assert len(outside) >= 3, "scenario precondition: blocks outside the window"

    peaks = {}
    finals = {}
    for name, policy in policies.items():
        cache = KvCache(policy, 1, 1, 2, m)
        z = np.zeros((1, 1, 2))
        for tok in tokens:
            cache.push(tok, z, z)
        peaks[name] = cache.peak_entries
        finals[name] = cache.size
        assert cache.positions() == brute_retain_set(
            policy, cache.blocks, cache.open_start, cache.t
        )

    assert peaks["dense"] > peaks["mmsink"] > peaks["sink"] == peaks["window"]
    # closed forms
    T = len(tokens)
    assert peaks["dense"] == finals["dense"] == T
    assert peaks["window"] == peaks["sink"] == w
    anchors: set[int] = set()
    for b, e in completed:
        anchors |= {b, e} | set(range(b + 1, b + 1 + k_head)) | set(range(e - k_tail, e))
    expected_mm = len(set(range(n)) | set(range(T - (w - n), T)) | anchors)
    assert finals["mmsink"] == expected_mm
    # a pure scenario with every anchor group disjoint from window and sinks
    blocks = tuple((10 + 20 * i, 19 + 20 * i) for i in range(5))
    pure = CachePolicy.mmsink(4, 1, 2, 100)
    assert len(retain_set(pure, blocks, None, 1000)) == 100 + 5 * (2 + 1 + 2)


def test_criterion_4_anchor_persistence_2048_steps(small_model, small_prompt):
    """Completed-block anchors survive every later step; window keeps only
    the recent positions."""
    m = small_model.config.m
    policy = CachePolicy.mmsink(4, 1, 2, 64)

    failures: list[str] = []

    def check_anchors(cache: KvCache) -> None:
        held = set(cache.positions())
        for b, e in cache.blocks:
            wanted = {b, e} | set(range(b + 1, b + 1 + policy.k_head)) | \
                set(range(e - policy.k_tail, e))
            if not wanted <= held:
                failures.append(f"t={cache.t} block=({b},{e}) missing {wanted - held}")

    result = engine.generate(
        small_model, small_prompt, policy, 2048,
        mode="constrained", seed=0, boi_every=24, on_step=check_anchors,
    )
    assert not failures, failures[:3]
    assert len(result.sequence.image_blocks) >= 40
    assert result.sequence is not None

    w = 64
    stale: list[str] = []

    def check_window(cache: KvCache) -> None:
        if cache.t > w and cache.positions()[0] < cache.t - w:
            stale.append(f"t={cache.t} oldest={cache.positions()[0]}")

    engine.generate(
        small_model, small_prompt, CachePolicy.windowed(w), 2048,
        mode="constrained", seed=0, boi_every=24, on_step=check_window,
    )
    assert not stale, stale[:3]


def test_criterion_5_gradient_check(tiny_config):
    """Analytic gradients match central differences on every group."""
    model = engine.Model.init(tiny_config)
    story = sq.synth_stories(1, items_per_story=2, rng_seed=11,
                             d_feat=tiny_config.d_feat)[0]
    sample = sq.assemble_training_sequence(
        story, 2, m=tiny_config.m, v_text=tiny_config.v_text
    )
    _, grads = losses.sample_loss_and_grads(model, sample, lam=1.0)

    def loss_fn():
        return losses.sample_loss(model, sample, lam=1.0).combined

    fd = fd_gradient(loss_fn, model.p, eps=1e-6)
    for name in engine.param_names(tiny_config):
        err = relative_error(grads[name], fd[name])
        assert err < 1e-4, f"{name}: relative error {err:.3e}"

    v = tiny_config.vocab
    assert losses.text_ce_loss(np.zeros((1, v)), [3]) == pytest.approx(
        math.log(v), abs=1e-9
    )
    x = np.array([[2.0, 0.0, 0.0]])
    y = np.array([[0.0, 4.0, 0.0]])
    assert losses.image_regression_loss(x, x) == 0.0
    assert losses.image_regression_loss(x, y) == 1.0
    assert losses.image_regression_loss(x, -x) == 2.0


def test_criterion_6_attention_stats_oracle():
    """aggregate_occurrence equals an independent recount on 1,000 maps."""
    rng = np.random.default_rng(7)
    pool = ["BOS", "EOS", ",", ".", ";", "BOI", "EOI",
            "IMG00", "IMG01", "IMG06", "IMG07", "W1", "W2", "W3", "the"]
    maps = []
    for _ in range(1000):
        n = int(rng.integers(2, 20))
        rows = np.zeros((n, n))
        for i in range(n):
            weights = rng.random(i + 1) + 1e-9
            rows[i, : i + 1] = weights / weights.sum()
        labels = tuple(pool[int(rng.integers(len(pool)))] for _ in range(n))
        maps.append((labels, rows))
    records = attnstats.records_from_dumps(dumps_from_maps(maps))

    table = attnstats.aggregate_occurrence(records, k=10)
    assert table.as_dict() == recount_occurrences(maps, k=10)
    assert table.total_maps == 1000
    for record in records:
        assert record.means.sum() == pytest.approx(1.0, abs=1e-9)

    # deterministic tie-break: equal means resolve to the lower key index
    assert attnstats.top_k_keys([0.4, 0.4, 0.2], 1) == [0]
    tied = attnstats.records_from_dumps(dumps_from_maps(
        [(("left", "right"), np.array([[1.0, 0.0], [0.0, 1.0]]))]
    ))
    means = tied[0].means
    assert means[0] == means[1]
    assert attnstats.top_k_keys(means, 1) == [0]
    assert attnstats.aggregate_occurrence(tied, k=1).as_dict() == {"left": 1}


def test_criterion_7_loss_masking(tiny_config):
    """Loss falls only on the final item; other logits are irrelevant."""
    model = engine.Model.init(tiny_config)
    stories = sq.synth_stories(6, items_per_story=4, rng_seed=3,
                               d_feat=tiny_config.d_feat)
    for story in stories:
        for sampled_len in (1, 2, 4):
            sample = sq.assemble_training_sequence(
                story, sampled_len, m=tiny_config.m, v_text=tiny_config.v_text
            )
            toks = sample.sequence.tokens
            item = sq.item_tokens(story.items[sampled_len - 1],
                                  tiny_config.m, tiny_config.v_text)
            start = len(toks) - len(item) - 1
            assert all(not f for f in sample.loss_mask[:start])
            assert all(sample.loss_mask[start:])
            assert sum(sample.loss_mask) == len(item) + 1

            ids = np.array([
                sq.vocab_id(t, tiny_config.m, tiny_config.v_text) for t in toks
            ])
            logits = losses.sequence_logits(model, toks)
            mpos = np.nonzero(np.array(sample.loss_mask))[0]
            baseline = losses.text_ce_loss(logits[mpos - 1], ids[mpos])
            zeroed = np.zeros_like(logits)
            zeroed[mpos - 1] = logits[mpos - 1]
            assert losses.text_ce_loss(zeroed[mpos - 1], ids[mpos]) == baseline


def _run_subcommands(base, tag: str) -> dict[str, bytes]:
    d = base / tag
    d.mkdir()
    stories = d / "stories.jsonl"
    model = d / "m.json"
    curve = d / "curve.csv"
    gen_out = d / "g.jsonl"
    dumps = d / "dumps.jsonl"
    occ = d / "occ.csv"
    cat = d / "cat.csv"
    rep = d / "bench.csv"
    repj = d / "bench.json"
    assert main(["synth", "--stories", "3", "--len", "4", "--seed", "11",
                 "--out", str(stories)]) == 0
    assert main(["train-toy", "--synth-stories", "3", "--synth-len", "2",
                 "--steps", "6", "--lr", "0.3", "--seed", "2",
                 "--model-out", str(model), "--curve-out", str(curve)]) == 0
    assert main(["gen", "--model", str(model), "--policy", "mmsink",
                 "--window", "24", "--steps", "32", "--seed", "3",
                 "--boi-every", "10", "--features",
                 "--attn-dump", str(dumps), "--out", str(gen_out)]) == 0
    assert main(["stats", "--dumps", str(dumps), "--occ-out", str(occ),
                 "--cat-out", str(cat)]) == 0
    assert main(["bench", "--model", str(model),
                 "--policies", "dense,window,sink,mmsink", "--steps", "64",
                 "--window", "24", "--seed", "4", "--report", str(rep),
                 "--json", str(repj)]) == 0
    assert main(["validate", str(stories), str(model), str(curve), str(gen_out),
                 str(dumps), str(occ), str(cat), str(rep), str(repj)]) == 0
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_criterion_8_subcommand_determinism(tmp_path, capsys):
    """Every subcommand, run twice with one seed, emits identical bytes."""
    first = _run_subcommands(tmp_path, "run1")
    out1 = capsys.readouterr().out
    second = _run_subcommands(tmp_path, "run2")
    out2 = capsys.readouterr().out
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    # validate output (stdout-only subcommand) is reproducible too, modulo paths
    assert out1.replace("run1", "X") == out2.replace("run2", "X")


def test_criterion_9_toy_training_regression():
    """Frozen desk seed: 500 steps at least halve the combined loss."""
    started = time.perf_counter()
    config = engine.ModelConfig()  # desk defaults
    model = engine.Model.init(config)
    stories = sq.synth_stories(20, items_per_story=4, rng_seed=0,
                               d_feat=config.d_feat)
    samples = losses.build_samples(stories, seed=0, m=config.m, v_text=config.v_text)
    result = losses.train_toy(model, samples, steps=500, lr=0.5, seed=0)
    elapsed = time.perf_counter() - started
    assert result.eval_final <= 0.5 * result.eval_initial, (
        f"loss went {result.eval_initial:.4f} -> {result.eval_final:.4f}"
    )
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    assert len(result.curve) == 500


@pytest.mark.benchmark
def test_criterion_10_per_token_time_slopes(small_model, small_prompt):
    """Dense per-token time grows with t; mmsink stays flat (3 sigma)."""
    steps = 2048
    dense = engine.generate(small_model, small_prompt, CachePolicy.dense(),
                            steps, mode="free", seed=0)
    mmsink = engine.generate(small_model, small_prompt,
                             CachePolicy.mmsink(4, 1, 2, 64),
                             steps, mode="free", seed=0)
    prof_d = bench.per_token_time_profile(dense.trace)
    prof_m = bench.per_token_time_profile(mmsink.trace)
    gap = prof_d.slope - prof_m.slope
    noise = math.sqrt(prof_d.stderr**2 + prof_m.stderr**2)
    assert gap > 3 * noise, (
        f"dense slope {prof_d.slope:.3e} vs mmsink {prof_m.slope:.3e}, "
        f"gap {gap:.3e} <= 3x{noise:.3e}"
    )
