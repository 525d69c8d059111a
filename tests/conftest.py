"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from mmsink import attnstats, engine, seqmodel
from mmsink.attnstats import DUMP_FIELDS
from mmsink.cachepolicy import CachePolicy
from mmsink.seqmodel import Token


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}")


@pytest.fixture(scope="session")
def tiny_config() -> engine.ModelConfig:
    """Smallest config the gradient checks run on."""
    return engine.ModelConfig(
        layers=1, heads=1, d_model=8, d_ff=16, v_text=12, m=4,
        q_queries=2, d_feat=4, max_positions=160, seed=5,
    )


@pytest.fixture(scope="session")
def small_config() -> engine.ModelConfig:
    return engine.ModelConfig(
        layers=2, heads=2, d_model=32, d_ff=64, v_text=32, m=4,
        q_queries=3, d_feat=4, max_positions=4096, seed=3,
    )


@pytest.fixture(scope="session")
def small_model(small_config) -> engine.Model:
    return engine.Model.init(small_config)


@pytest.fixture(scope="session")
def small_prompt(small_config) -> seqmodel.MultimodalSequence:
    story = seqmodel.synth_stories(
        1, items_per_story=2, rng_seed=9, d_feat=small_config.d_feat
    )[0]
    return seqmodel.prompt_sequence(
        story, 1, m=small_config.m, v_text=small_config.v_text
    )


def make_stream(rng: np.random.Generator, m: int, length: int, v_text: int = 32) -> list[Token]:
    """Random structurally valid token stream of at least ``length`` tokens.

    May end inside an image block (an in-progress generation prefix).
    """
    tokens: list[Token] = [Token.bos()]
    while len(tokens) < length:
        choice = rng.integers(4)
        if choice == 0:
            tokens.append(Token.boi())
            tokens.extend(Token.img(s) for s in range(m))
            tokens.append(Token.eoi())
        elif choice == 1:
            tokens.append(Token.punct(int(rng.integers(5))))
        else:
            tokens.append(Token.word(int(rng.integers(v_text))))
    return tokens[:length]


def breaking_stream(rng: np.random.Generator, m: int, length: int) -> list[Token]:
    """A :func:`make_stream` with about one token in twelve replaced by an
    arbitrary one, so a permissive grammar sees broken blocks, stray slots
    and end markers, BOS and EOS out of place."""
    anywhere = [Token.bos(), Token.eos(), Token.boi(), Token.eoi(), Token.word(1),
                *(Token.img(s) for s in range(m))]
    return [anywhere[int(rng.integers(len(anywhere)))] if i and rng.random() < 1 / 12 else tok
            for i, tok in enumerate(make_stream(rng, m, length))]


def split_runs(rng: np.random.Generator, tokens: list[Token], longest: int) -> list[list[Token]]:
    """``tokens`` cut into consecutive runs of 1 .. ``longest`` tokens."""
    runs, i = [], 0
    while i < len(tokens):
        n = int(rng.integers(1, longest + 1))
        runs.append(tokens[i : i + n])
        i += n
    return runs


def all_policies(w: int, n_sink: int = 2, k_head: int = 1, k_tail: int = 2) -> list[CachePolicy]:
    return [
        CachePolicy.dense(),
        CachePolicy.windowed(w),
        CachePolicy.sink(n_sink, w),
        CachePolicy.mmsink(n_sink, k_head, k_tail, w),
    ]


def dump_rows(rows: list):
    """An ``observe`` callback for :func:`engine.generate` that appends each
    token's dump rows to ``rows`` as :data:`DUMP_FIELDS` dicts, by layer, then
    head; a token's rows share its labels and positions lists. Labels come
    from ``attnstats.token_label``, as :func:`attnstats.dump_writer`'s do."""
    labels = []  # the label of each position fed

    def collect(run, step, cache):
        labels.extend(attnstats.token_label(token) for token in run)
        for t, (attended, layers) in enumerate(step.attention_rows(),
                                               start=cache.t - len(run) + 1):
            positions = attended.tolist()
            held = [labels[p] for p in positions]
            rows.extend(dict(zip(DUMP_FIELDS, (t, l, h, held, positions, row.tolist())))
                        for l, heads in enumerate(layers) for h, row in enumerate(heads))

    return collect


def records_from_maps(maps) -> list[attnstats.KeyMeans]:
    """Key means of hand-built (labels, rows) causal maps, in order, each
    folded from the dump of a run of its own, since a run gives each position
    one label.

    Row t-1 of a map becomes step t's dump row (layer 0, head 0) over keys
    0..t-1, plus every nonzero weight beyond them (which the ingestion
    rejects as future keys).
    """
    records = []
    for labels, rows in maps:
        dump = []
        for t in range(1, len(rows) + 1):
            row = rows[t - 1]
            positions = [j for j in range(len(row)) if j < t or row[j] != 0.0]
            dump.append({
                "t": t, "layer": 0, "head": 0,
                "labels": [labels[j] for j in positions],
                "positions": positions,
                "row": [float(row[j]) for j in positions],
            })
        records += attnstats.records_from_dumps(dump)
    return records


class TimeProfile(NamedTuple):
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
