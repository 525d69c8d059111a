"""Per-key mean attention, top-k selection, occurrence counting, and labels."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmsink import attnstats, cli, engine
from mmsink.attnstats import (
    aggregate_occurrence,
    category_shares,
    classify_token,
    load_records,
    records_from_dumps,
    top_k_keys,
)
from mmsink.cachepolicy import CachePolicy
from mmsink.cli import main
from mmsink.oracle import recount_occurrences

from conftest import dump_rows, records_from_maps


def causal_map(rng: np.random.Generator, n: int, labels=None) -> tuple[tuple[str, ...], np.ndarray]:
    rows = np.zeros((n, n))
    for i in range(n):
        weights = rng.random(i + 1) + 1e-9
        rows[i, : i + 1] = weights / weights.sum()
    if labels is None:
        pool = ["BOS", ",", ".", "EOI", "BOI", "IMG01", "IMG06", "W3", "W9", "the"]
        labels = tuple(pool[int(rng.integers(len(pool)))] for _ in range(n))
    return tuple(labels), rows


def ingest(*maps):
    """Key means of hand-built (labels, rows) maps, through their dump rows."""
    return records_from_maps(maps)


def key_means(labels, rows) -> np.ndarray:
    return ingest((labels, rows))[0].means


class TestKeyMeanAttention:
    def test_two_row_example(self):
        np.testing.assert_allclose(key_means(("a", "b"), [[1.0, 0.0], [0.5, 0.5]]),
                                   [0.75, 0.25])

    def test_uniform_causal_three(self):
        rows = np.array([
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
        ])
        np.testing.assert_allclose(
            key_means(("x", "y", "z"), rows), [11 / 18, 5 / 18, 1 / 9], atol=1e-12
        )

    @given(st.integers(0, 9999), st.integers(1, 25))
    @settings(max_examples=50)
    def test_means_sum_to_one(self, seed, n):
        labels, rows = causal_map(np.random.default_rng(seed), n)
        assert key_means(labels, rows).sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_record_rejected(self):
        empty = {"t": 1, "layer": 0, "head": 0, "labels": [], "positions": [], "row": []}
        with pytest.raises(ValueError):
            records_from_dumps([empty])

    def test_nonzero_padding_rejected(self):
        rows = np.array([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(ValueError, match="future"):
            key_means(("a", "b"), rows)

    def test_bad_row_sum_rejected(self):
        rows = np.array([[0.9, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sums"):
            key_means(("a", "b"), rows)


class TestTopK:
    def test_fewer_keys_than_k(self):
        means = [0.1, 0.4, 0.2, 0.25, 0.05]
        assert top_k_keys(means, 10) == [1, 3, 2, 0, 4]

    def test_k_two(self):
        assert top_k_keys([0.2, 0.5, 0.3], 2) == [1, 2]

    def test_tie_breaks_to_lower_index(self):
        assert top_k_keys([0.4, 0.4, 0.2], 1) == [0]
        assert top_k_keys([0.3, 0.4, 0.4], 2) == [1, 2]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_keys([0.5], 0)


class TestAggregateOccurrence:
    def test_identical_top_keys_count_per_map(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.4]])
        table = aggregate_occurrence(ingest((("BOS", "W1"), rows), (("BOS", "W1"), rows)), k=10)
        assert dict(table.counts) == {"BOS": 2, "W1": 2}
        assert table.total_maps == 2

    def test_duplicate_labels_in_one_map_count_once(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.4, 0.3, 0.3]])
        table = aggregate_occurrence(ingest(((",", ",", "W2"), rows)), k=3)
        assert dict(table.counts)[","] == 1

    def test_counts_bounded_by_total(self):
        rng = np.random.default_rng(0)
        records = ingest(*[causal_map(rng, int(rng.integers(2, 14))) for _ in range(40)])
        table = aggregate_occurrence(records, k=5)
        assert all(c <= table.total_maps for _, c in table.counts)

    def test_sorted_by_count_descending(self):
        rng = np.random.default_rng(1)
        records = ingest(*[causal_map(rng, 12) for _ in range(25)])
        table = aggregate_occurrence(records, k=4)
        counts = [c for _, c in table.counts]
        assert counts == sorted(counts, reverse=True)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        records = ingest(*[causal_map(rng, int(rng.integers(2, 10))) for _ in range(20)])
        a = aggregate_occurrence(records, k=3)
        b = aggregate_occurrence(list(reversed(records)), k=3)
        assert dict(a.counts) == dict(b.counts)

    def test_matches_independent_recount(self):
        rng = np.random.default_rng(3)
        maps = [causal_map(rng, int(rng.integers(2, 16))) for _ in range(60)]
        table = aggregate_occurrence(ingest(*maps), k=10)
        assert dict(table.counts) == recount_occurrences(maps, k=10)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_occurrence([], k=3)


class TestClassifyToken:
    @pytest.mark.parametrize("label,expected", [
        ("BOS", "starting"),
        (",", "punctuation"),
        (";", "punctuation"),
        ("BOI", "near_boi"),
        ("EOI", "near_eoi"),
        ("IMG30", "other"),
        ("the", "other"),
        ("W42", "other"),
        ("EOS", "other"),
        ("IMGxx", "other"),
    ])
    def test_paper_faithful_defaults(self, label, expected):
        assert classify_token(label, m=64, k_head=5, k_tail=8) == expected

    def test_near_eoi_band(self):
        # with m=64 and k_tail=8, slots 56..63 sit in the end band
        assert classify_token("IMG57", 64, 5, 8) == "near_eoi"
        assert classify_token("IMG56", 64, 5, 8) == "near_eoi"
        assert classify_token("IMG55", 64, 5, 8) == "other"

    def test_near_boi_band(self):
        assert classify_token("IMG04", 64, 5, 8) == "near_boi"
        assert classify_token("IMG05", 64, 5, 8) == "other"

    def test_slot_past_the_block_raises(self):
        assert classify_token("IMG07", 8, 1, 2) == "near_eoi"
        with pytest.raises(ValueError, match="'IMG20': slot 20 .* m=8"):
            classify_token("IMG20", 8, 1, 2)

    def test_category_shares_sum_to_one(self):
        rng = np.random.default_rng(4)
        records = ingest(*[causal_map(rng, 10) for _ in range(10)])
        table = aggregate_occurrence(records, k=4)
        shares = category_shares(table, m=8, k_head=1, k_tail=2)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def dump_records(small_model, small_prompt):
    rows = []
    result = engine.generate(
        small_model, small_prompt, CachePolicy.mmsink(2, 1, 1, 12), 24,
        seed=0, observe=dump_rows(rows), boi_every=10,
    )
    return rows, len(result.tokens)


def dense_rebuild(dumps, layer: int, head: int) -> np.ndarray:
    """The zero-padded T x T map of one (layer, head), scattered from its dumps."""
    recs = [r for r in dumps if (r["layer"], r["head"]) == (layer, head)]
    rows = np.zeros((len(recs), len(recs)))
    for r in recs:
        rows[r["t"] - 1, r["positions"]] = r["row"]
    return rows


class TestDumpIngestion:

    def test_one_mean_vector_per_map(self, dump_records, small_model):
        dumps, n_tokens = dump_records
        records = records_from_dumps(dumps)
        cfg = small_model.config
        assert len(records) == cfg.layers * cfg.heads
        for rec in records:
            assert rec.means.shape == (n_tokens,)
            assert len(rec.labels) == n_tokens
            assert rec.means.sum() == pytest.approx(1.0, abs=1e-9)

    def test_eviction_leaves_exact_zeros(self, dump_records, small_model):
        dumps, _ = dump_records
        dense = dense_rebuild(dumps, 0, 0)
        n = dense.shape[0]
        # late rows must contain evicted (zero) keys inside their prefix
        late = dense[n - 1, : n - 1]
        assert np.any(late == 0.0)
        # and the per-key sums give that zero-padded map's column means exactly
        cfg = small_model.config
        for rec, (layer, head) in zip(records_from_dumps(dumps),
                                      np.ndindex(cfg.layers, cfg.heads)):
            np.testing.assert_array_equal(rec.means, dense_rebuild(dumps, layer, head).mean(axis=0))

    def test_future_position_rejected(self):
        bad = [{
            "t": 1, "layer": 0, "head": 0,
            "labels": ["BOS", "W1"], "positions": [0, 1], "row": [0.5, 0.5],
        }]
        with pytest.raises(ValueError, match="future"):
            records_from_dumps(bad)

    def test_load_records_roundtrip(self, dump_records, tmp_path):
        import json

        dumps, _ = dump_records
        path = tmp_path / "dumps.jsonl"
        with open(path, "w") as fh:
            for rec in dumps:
                fh.write(json.dumps(rec) + "\n")
        records = load_records(path)
        direct = records_from_dumps(dumps)
        assert len(records) == len(direct)
        for a, b in zip(records, direct):
            assert a.labels == b.labels
            np.testing.assert_array_equal(a.means, b.means)

    def test_collected_rows_are_the_gen_dump(self, small_model, tmp_path):
        import json

        model_path, dump = tmp_path / "model.json", tmp_path / "dump.jsonl"
        engine.save_model(small_model, model_path)
        assert main(["gen", "--model", str(model_path), "--policy", "window", "--window", "10",
                     "--steps", "20", "--seed", "3", "--prompt-seed", "9", "--boi-every", "7",
                     "--attn-dump", str(dump), "--out", str(tmp_path / "g.jsonl")]) == 0
        rows = []
        engine.generate(small_model, cli._build_prompt(small_model, 1, 9), CachePolicy.windowed(10),
                        20, seed=3, observe=dump_rows(rows), boi_every=7)
        assert dump.read_bytes() == "".join(json.dumps(r) + "\n" for r in rows).encode()

    def test_dump_writer_lines_are_json_dumps(self, monkeypatch):
        """Each line is ``json.dumps`` of its row dict: floats in their
        shortest repr, 1e-300 included, and labels escaped."""
        import io
        import json
        from types import SimpleNamespace

        from mmsink.engine import StepResult
        from mmsink.seqmodel import Token, token_label

        # a label that needs escaping, which no real token has
        monkeypatch.setattr(attnstats, "token_label",
                            lambda tok: 'W"1' if tok == Token.word(1) else token_label(tok))
        out, rows = io.StringIO(), []
        write, collect = attnstats.dump_writer(out), dump_rows(rows)
        # (tokens fed, cache.t after them, per chunk (positions, mask, per-layer
        # (heads, rows, keys) weights))
        for run, t, maps in [
            ([Token.bos()], 1, [(np.array([0]), None, [np.array([[[1.0]], [[1.0]]])])]),
            ([Token.word(1)], 2, [(np.array([0, 1]), None,
                                   [np.array([[[0.25, 0.75]], [[1e-300, 1.0]]]),
                                    np.array([[[1 / 3, 2 / 3]], [[0.5, 0.5]]])])]),
            ([Token.boi(), Token.img(1)], 4, [(np.array([0, 2, 3]),
                                               np.array([[True, True, False],
                                                         [True, False, True]]),
                                               [np.array([[[0.5, 0.5, 0.0], [0.1, 0.0, 0.9]]])])]),
        ]:
            call = run, StepResult(None, [], maps), SimpleNamespace(t=t)
            write(*call)
            collect(*call)
        assert len(rows) == 8
        assert [(r["t"], r["labels"], r["positions"]) for r in rows[-2:]] == \
            [(3, ["BOS", "BOI"], [0, 2]), (4, ["BOS", "IMG01"], [0, 3])]
        assert out.getvalue() == "".join(json.dumps(r) + "\n" for r in rows)

    def test_load_records_directory(self, dump_records, tmp_path):
        import json

        dumps, _ = dump_records
        for name in ("a.jsonl", "b.jsonl"):
            with open(tmp_path / name, "w") as fh:
                for rec in dumps:
                    fh.write(json.dumps(rec) + "\n")
        records = load_records(tmp_path)
        assert len(records) == 2 * len(records_from_dumps(dumps))

    @pytest.mark.parametrize("t, change, expected", [
        (2, {"positions": [0, -1]}, "negative position -1"),
        (1, {"row": [1.0, 0.0, 7.0]}, "1 positions, 1 labels and 3 weights"),
        (2, {"labels": ["BOS", "BOS"], "positions": [0, 0]}, "position 0 appears twice"),
        (3, {"t": 2}, "a second row for this step"),
        (2, {"labels": ["W5", "W1"]}, "label 'W5' for position 0"),
        (2, {"row": [0.5, 0.6]}, "sums to"),
        (3, {"t": 4}, "no row for t=3"),
        (2, {"positions": ["a", 1]}, "positions is not a list of integers"),
        (2, {"positions": [0.0, 1]}, "positions is not a list of integers"),
        (2, {"positions": [0, True]}, "positions is not a list of integers"),
        (2, {"t": "x"}, "t is not a count"),
        (2, {"layer": 1.0}, "layer is not a count"),
        (2, {"head": None}, "head is not a count"),
        (2, {"layer": -1}, "layer is not a count"),
        (1, {"head": -2}, "head is not a count"),
        (2, {"row": [0.5, "0.5"]}, "row is not a list of numbers"),
        (2, {"positions": 7}, "positions is not a list of integers"),
        (1, {"labels": [5]}, "labels is not a list of strings"),
        (2, {"labels": ["BOS", None]}, "labels is not a list of strings"),
        (2, {"row": [10**400, 0.5]}, "row is not a list of numbers"),
    ], ids=["negative", "lengths", "repeated", "duplicate-t", "label", "row-sum", "missing-t",
            "str-position", "float-position", "bool-position", "str-t", "float-layer",
            "null-head", "negative-layer", "negative-head", "str-weight", "scalar-positions",
            "int-label", "null-label", "huge-int-weight"])
    def test_malformed_row_rejected(self, tmp_path, capsys, t, change, expected):
        import json

        dumps = [{"t": s, "layer": 1, "head": 0, "labels": ["BOS", "W1", "."][:s],
                  "positions": list(range(s)), "row": [1.0 / s] * s} for s in (1, 2, 3)]
        bad = dumps[t - 1] = dict(dumps[t - 1], **change)
        where = f"t={bad['t']} layer={bad['layer']} head={bad['head']}"
        with pytest.raises(ValueError, match=f"{where}: .*{re.escape(expected)}"):
            records_from_dumps(dumps)
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in dumps))
        assert main(["validate", str(path)]) == 1
        assert main(["stats", "--dumps", str(path), "--occ-out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.count(where) == 2 and err.count(expected) == 2

    def test_rows_out_of_t_order_rejected(self, tmp_path, capsys):
        import json

        dumps = [{"t": s, "layer": 1, "head": 0, "labels": ["BOS", "W1", "."][:s],
                  "positions": list(range(s)), "row": [1.0 / s] * s} for s in (2, 1, 3)]
        expected = "dump row t=2 layer=1 head=0: no row for t=1"
        with pytest.raises(ValueError, match=re.escape(expected)):
            records_from_dumps(dumps)
        path = tmp_path / "swapped.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in dumps))
        assert main(["validate", str(path)]) == 1
        assert main(["stats", "--dumps", str(path), "--occ-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.count(expected) == 2

    def test_position_never_observed_rejected(self, tmp_path, capsys):
        import json

        # t=2 attends position 0 only, so no row ever labels position 1
        dumps = [{"t": s, "layer": 0, "head": 0, "labels": ["BOS"], "positions": [0],
                  "row": [1.0]} for s in (1, 2)]
        expected = "layer=0 head=0: positions never observed: [1]"
        with pytest.raises(ValueError, match=re.escape(expected)):
            records_from_dumps(dumps)
        path = tmp_path / "never.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in dumps))
        assert main(["validate", str(path)]) == 1
        assert main(["stats", "--dumps", str(path), "--occ-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.count(f"{path}: {expected}") == 2

    def test_equal_positions_checked_again_at_a_new_t_or_after_an_edit(self):
        def row(t, layer, positions):
            n = len(positions)
            return {"t": t, "layer": layer, "head": 0, "labels": ["BOS", "W1", "."][:n],
                    "positions": positions, "row": [1.0 / n] * n}

        # the row before has equal positions at t=3; at t=2 position 2 is in the future
        later = [row(1, 1, [0]), row(1, 0, [0]), row(2, 0, [0, 1]), row(3, 0, [0, 1, 2]),
                 row(2, 1, [0, 1, 2])]
        with pytest.raises(ValueError, match="t=2 layer=1 head=0: future position 2"):
            records_from_dumps(later)
        shared = [0]

        def changed_in_place():
            yield row(1, 0, shared)
            shared[0] = -1
            yield row(1, 1, shared)

        with pytest.raises(ValueError, match="t=1 layer=1 head=0: negative position -1"):
            records_from_dumps(changed_in_place())

    def test_one_label_per_position_across_the_maps_of_a_file(self, tmp_path, capsys):
        import json

        # a file is one run: head 1 may not relabel the position head 0 labelled
        dumps = [{"t": t, "layer": 0, "head": h, "labels": ["BOS", label][:t],
                  "positions": list(range(t)), "row": [1.0 / t] * t}
                 for t in (1, 2) for h, label in enumerate(["W5", "W7"])]
        expected = "dump row t=2 layer=0 head=1: label 'W7' for position 1, earlier rows gave 'W5'"
        with pytest.raises(ValueError, match=re.escape(expected)):
            records_from_dumps(dumps)
        path = tmp_path / "relabelled.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in dumps))
        assert main(["validate", str(path)]) == 1
        assert main(["stats", "--dumps", str(path), "--occ-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.count(f"{path}: {expected}") == 2

    def test_equal_labels_checked_again_after_an_edit(self):
        labels = ["BOS"]

        def changed_in_place():
            yield {"t": 1, "layer": 0, "head": 0, "labels": labels, "positions": [0], "row": [1.0]}
            labels[0] = "W1"
            yield {"t": 1, "layer": 1, "head": 0, "labels": labels, "positions": [0], "row": [1.0]}

        with pytest.raises(ValueError, match="t=1 layer=1 head=0: label 'W1' for position 0, "
                                             "earlier rows gave 'BOS'"):
            records_from_dumps(changed_in_place())

    def test_generator_of_rows_is_held_one_row_at_a_time(self):
        t_max, maps, keys = 2_000, 16, 64
        names = [f"W{p}" for p in range(32)]

        def rows():
            for t in range(1, t_max + 1):
                positions = list(range(max(0, t - keys), t))
                for layer in range(maps):
                    yield {"t": t, "layer": layer, "head": 0,
                           "labels": [names[p % 32] for p in positions],
                           "positions": positions,
                           "row": [1.0 / len(positions)] * len(positions)}

        tracemalloc.start()
        try:
            records = records_from_dumps(rows())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == maps and records[0].means.shape == (t_max,)
        # the 32,000 rows as dicts of lists would take well over 100 MB
        assert peak < 8 * 2**20

    def test_window_dump_never_builds_a_full_map(self):
        t_max, keys = 4_000, 8
        dumps = []
        for t in range(1, t_max + 1):
            positions = list(range(max(0, t - keys), t))
            dumps.append({"t": t, "layer": 0, "head": 0,
                          "labels": [f"W{p % 32}" for p in positions],
                          "positions": positions,
                          "row": [1.0 / len(positions)] * len(positions)})
        tracemalloc.start()
        try:
            (record,) = records_from_dumps(dumps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.means.shape == (t_max,)
        # one T x T float64 map would be 4,000 * 4,000 * 8 bytes = 128 MB
        assert peak < 10 * 2**20


class TestCsvOutputs:
    def test_occurrence_schema(self, tmp_path):
        rng = np.random.default_rng(5)
        table = aggregate_occurrence(ingest(*[causal_map(rng, 8) for _ in range(6)]), k=3)
        path = tmp_path / "occ.csv"
        attnstats.write_occurrence_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "label,count"
        assert len(lines) == 1 + len(table.counts)

    def test_category_schema(self, tmp_path):
        rng = np.random.default_rng(6)
        table = aggregate_occurrence(ingest(*[causal_map(rng, 8) for _ in range(6)]), k=3)
        path = tmp_path / "cat.csv"
        attnstats.write_category_csv(category_shares(table, m=8, k_head=1, k_tail=2), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "category,share"
        assert len(lines) == 1 + len(attnstats.CATEGORIES)
