"""End-to-end command-line behavior: subcommands, config, exit codes."""

import argparse
import json

import pytest

from mmsink import attnstats, engine
from mmsink.errors import StateError
from mmsink.bench import CSV_HEADER, write_report_csv
from mmsink import seqmodel as sq
from mmsink.cachepolicy import POLICY_KINDS, CachePolicy
from mmsink.cli import KNOWN_KEYS, PROFILES, _build_parser, _policy_from_cfg, main


def run(args, capsys=None):
    code = main(args)
    return code


class TestSynth:
    def test_writes_requested_stories(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--stories", "10", "--len", "30", "--seed", "7",
                     "--out", str(out)]) == 0
        stories = sq.read_stories(out)
        assert len(stories) == 10
        assert all(len(s.items) == 30 for s in stories)

    def test_prints_effective_config(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        main(["synth", "--stories", "1", "--len", "2", "--out", str(out)])
        text = capsys.readouterr().out
        assert "effective config:" in text
        assert "seqmodel.items_per_story = 2" in text


class TestGen:
    def test_runs_twice_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            dump = tmp_path / f"{name}_dumps.jsonl"
            assert main(["gen", "--policy", "mmsink", "--window", "24",
                         "--steps", "40", "--seed", "1", "--boi-every", "10",
                         "--features", "--attn-dump", str(dump),
                         "--out", str(out)]) == 0
            outs.append((out.read_bytes(), dump.read_bytes()))
        assert outs[0] == outs[1]

    def test_record_is_valid_and_constrained(self, tmp_path, capsys):
        out = tmp_path / "g.jsonl"
        main(["gen", "--policy", "window", "--window", "16", "--steps", "24",
              "--seed", "2", "--out", str(out)])
        assert " under window(window=16), " in capsys.readouterr().out
        record = json.loads(out.read_text())
        assert record["valid"] is True
        assert record["policy"] == "window"
        assert len(record["labels"]) == record["prompt_len"] + 24 + \
            record["forced_completion_steps"]

    def test_free_mode_records_violations(self, tmp_path):
        out = tmp_path / "g.jsonl"
        main(["gen", "--policy", "dense", "--mode", "free", "--steps", "64",
              "--seed", "3", "--out", str(out)])
        record = json.loads(out.read_text())
        assert record["mode"] == "free"
        # validity may or may not hold; the field must be present and boolean
        assert isinstance(record["valid"], bool)


class TestTrainToy:
    def test_end_to_end_and_curve_schema(self, tmp_path):
        model_out = tmp_path / "m.json"
        curve_out = tmp_path / "curve.csv"
        assert main(["train-toy", "--synth-stories", "3", "--synth-len", "2",
                     "--steps", "8", "--lr", "0.3", "--seed", "1",
                     "--model-out", str(model_out), "--curve-out", str(curve_out)]) == 0
        lines = curve_out.read_text().splitlines()
        assert lines[0] == "step,ce,img,combined"
        assert len(lines) == 9
        payload = json.loads(model_out.read_text())
        assert payload["format"] == "mmsink-model-v1"

    def test_reads_story_file(self, tmp_path):
        stories_path = tmp_path / "s.jsonl"
        sq.write_stories(sq.synth_stories(2, 2, rng_seed=0), stories_path)
        model_out = tmp_path / "m.json"
        assert main(["train-toy", "--stories", str(stories_path), "--steps", "2",
                     "--lr", "0.1", "--seed", "0",
                     "--model-out", str(model_out)]) == 0


    def test_story_feature_dimension_must_match_the_config(self, tmp_path, capsys,
                                                           monkeypatch):
        stories_path = tmp_path / "s.jsonl"
        sq.write_stories(sq.synth_stories(2, 2, rng_seed=0, d_feat=2), stories_path)
        monkeypatch.setattr(engine.Model, "init", None)  # fails before any model is built
        assert main(["train-toy", "--stories", str(stories_path), "--steps", "2",
                     "--model-out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ConfigError" in err
        assert "story 'synth-0-0000' has 2-dimensional image features" in err
        assert "d_feat is 16" in err


class TestStats:
    def test_stats_pipeline_from_gen_dumps(self, tmp_path):
        dump = tmp_path / "dumps.jsonl"
        out = tmp_path / "g.jsonl"
        main(["gen", "--policy", "sink", "--window", "16", "--steps", "30",
              "--seed", "4", "--boi-every", "12", "--attn-dump", str(dump),
              "--out", str(out)])
        occ = tmp_path / "occ.csv"
        cat = tmp_path / "cat.csv"
        assert main(["stats", "--dumps", str(dump), "--occ-out", str(occ),
                     "--cat-out", str(cat)]) == 0
        assert occ.read_text().splitlines()[0] == "label,count"
        assert cat.read_text().splitlines()[0] == "category,share"

    def test_anchor_flags_set_the_categories(self, tmp_path, capsys):
        """gen --k-head 3, then stats --k-head 3: IMG00-IMG02 count as near_boi."""
        dump = tmp_path / "d.jsonl"
        main(["gen", "--k-head", "3", "--steps", "60", "--boi-every", "12",
              "--attn-dump", str(dump), "--out", str(tmp_path / "g.jsonl")])
        occ, cat = tmp_path / "occ.csv", tmp_path / "cat.csv"
        assert main(["stats", "--k-head", "3", "--k", "40", "--dumps", str(dump),
                     "--occ-out", str(occ), "--cat-out", str(cat)]) == 0
        assert "  cachepolicy.k_head = 3" in capsys.readouterr().out.splitlines()
        counts = {label: int(n) for label, n in
                  (line.split(",") for line in occ.read_text().splitlines()[1:])}
        assert {"IMG01", "IMG02"} <= counts.keys()
        near_boi = sum(counts.get(label, 0) for label in ("BOI", "IMG00", "IMG01", "IMG02"))
        shares = dict(line.split(",") for line in cat.read_text().splitlines()[1:])
        assert float(shares["near_boi"]) == near_boi / sum(counts.values())


class TestBench:
    def test_csv_has_four_policy_rows_per_checkpoint(self, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        assert main(["bench", "--policies", "dense,window,sink,mmsink",
                     "--steps", "96", "--window", "32", "--seed", "0",
                     "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        policies = {line.split(",")[0] for line in lines[1:]}
        assert policies == {"dense", "window", "sink", "mmsink"}
        # untimed, no free run gives a validity to print
        printed = [line for line in capsys.readouterr().out.splitlines() if "validity=" in line]
        assert len(printed) == 4 and all(" validity=- " in line for line in printed)

    def test_deterministic_with_timing_off(self, tmp_path):
        blobs = []
        for name in ("x", "y"):
            rep = tmp_path / f"{name}.csv"
            js = tmp_path / f"{name}.json"
            main(["bench", "--policies", "dense,mmsink", "--steps", "64",
                  "--window", "32", "--seed", "5", "--report", str(rep),
                  "--json", str(js)])
            blobs.append((rep.read_bytes(), js.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_wall_timing_fills_column(self, tmp_path):
        rep = tmp_path / "t.csv"
        main(["bench", "--policies", "window", "--steps", "48", "--window", "16",
              "--timing", "wall", "--repeats", "1", "--report", str(rep)])
        row = rep.read_text().splitlines()[1].split(",")
        assert float(row[3]) > 0.0


# the params of a window(8) benchmark entry: all four keys, as CachePolicy.params() writes them
PARAMS = {"window": 8, "n_sink": 0, "k_head": 0, "k_tail": 0}
# what a generation record's feature values that break their one shape fail with, after the lengths
_ONE_SHAPE = "; all share one non-zero row count and length"
# the top-level keys of an untimed benchmark JSON report, apart from "policies"
REPORT_TOP = {"prompt_len": 3, "total_steps": 4, "checkpoints": [4], "repeats": 1, "seed": 0,
              "timing": False, "trajectory": "synthetic"}
# a policy entry of that report, its validity as untimed reports held it before they left it null
ENTRY = {"policy": "window", "params": PARAMS, "peak_entries": 9, "bytes": 1,
         "mean_tok_s": None, "validity": 1.0,
         "divergence": [{"t": 4, "max_logit_diff": 0.0, "kl": 0.0}]}


class TestValidate:
    def test_accepts_everything_the_tool_emits(self, tmp_path):
        stories = tmp_path / "s.jsonl"
        model = tmp_path / "m.json"
        curve = tmp_path / "curve.csv"
        gen_out = tmp_path / "g.jsonl"
        dumps = tmp_path / "dumps.jsonl"
        occ = tmp_path / "occ.csv"
        cat = tmp_path / "cat.csv"
        rep = tmp_path / "bench.csv"
        repj = tmp_path / "bench.json"
        timed = tmp_path / "timed.json"
        free = tmp_path / "free.jsonl"
        main(["synth", "--stories", "2", "--len", "2", "--out", str(stories)])
        main(["train-toy", "--synth-stories", "2", "--synth-len", "2",
              "--steps", "2", "--lr", "0.1", "--model-out", str(model),
              "--curve-out", str(curve)])
        main(["gen", "--model", str(model), "--steps", "24", "--boi-every", "10",
              "--attn-dump", str(dumps), "--out", str(gen_out)])
        main(["stats", "--dumps", str(dumps), "--occ-out", str(occ),
              "--cat-out", str(cat)])
        main(["bench", "--model", str(model), "--policies", "dense,mmsink",
              "--steps", "48", "--window", "24", "--report", str(rep),
              "--json", str(repj)])
        main(["bench", "--model", str(model), "--policies", "window", "--steps", "16",
              "--timing", "wall", "--repeats", "1", "--report", str(tmp_path / "timed.csv"),
              "--json", str(timed)])
        assert json.loads(timed.read_text())["policies"][0]["mean_tok_s"] > 0.0
        main(["gen", "--model", str(model), "--steps", "24", "--mode", "free",
              "--temperature", "1.0", "--out", str(free)])
        paths = [stories, model, curve, gen_out, dumps, occ, cat, rep, repj, timed,
                 tmp_path / "timed.csv", free]
        assert main(["validate"] + [str(p) for p in paths]) == 0

    def test_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nonsense": true}\n')
        assert main(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["validate", "does-not-exist.csv"]) == 1

    @pytest.mark.parametrize("name, text, expected", [
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,1,2\n", "row 2 has 3 fields"),
        ("occ.csv", "label,count\nBOS,3\nTXT\n", "row 3 has 1 fields"),
        ("cat.csv", "category,share\nsink\n", "row 2 has 1 fields"),
        ("curve.csv", "step,ce,img,combined\n0,1.0,0.5\n", "row 2 has 3 fields"),
        ("gen.jsonl", json.dumps({
            "kind": "mmsink-generation-v1", "policy": "dense", "mode": "free", "seed": 0,
            "steps": 1, "labels": ["BOS"], "blocks": [], "violations": [],
            "peak_entries": 1, "params": {}, "prompt_len": 1, "m": 4, "entry_counts": [1],
            "forced_completion_steps": 0}) + "\n", "missing ['valid']"),
        ("occ.csv", "label,count\nBOS,x\n", "row 2 column 'count': 'x' is not a count"),
        ("curve.csv", "step,ce,img,combined\n0,1.0,0.5,1.5\n1,a,b,c\n",
         "row 3 column 'ce': 'a' is not a non-negative finite number"),
        ("bench.json", json.dumps(dict(REPORT_TOP, total_steps=1, checkpoints=[], policies=5)),
         "policies is not a list"),
        ("bench.json", json.dumps(dict(REPORT_TOP, total_steps=1, policies=[{"policy": "window"}])),
         "policies[0] missing ['params', 'peak_entries', 'bytes', 'mean_tok_s', 'validity', "
         "'divergence']"),
        ("bench.json", json.dumps(dict(REPORT_TOP, total_steps=1, policies=["window"])),
         "policies[0] is not an object"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,x,y,z,w,0.0,0.0,1.0\n",
         "row 2 column 'peak_entries': 'x' is not a count"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,z,w,0.0,0.0,1.0\n",
         "row 2 column 'mean_tok_s': 'z' is not a finite number or null"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,,5.0,0.0,0.0,1.0\n",
         "row 2 column 'ckpt': '5.0' is not a count"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,1_000,-5,nan,0,inf,-1.0,7\n",
         "row 2 column 'peak_entries': '1_000' is not a count"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,-5,,4,0.0,0.0,1.0\n",
         "row 2 column 'bytes': '-5' is not a count"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,nan,4,0.0,0.0,1.0\n",
         "row 2 column 'mean_tok_s': 'nan' is not a finite number or null"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,,4,inf,0.0,1.0\n",
         "row 2 column 'max_logit_diff': 'inf' is not a non-negative finite number"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,,4,0.0,-1.0,1.0\n",
         "row 2 column 'kl': '-1.0' is not a non-negative finite number"),
        ("bench.csv", ",".join(CSV_HEADER) + "\nwindow,3,4,,4,0.0,0.0,7\n",
         "row 2 column 'validity': '7' is not a number in [0, 1]"),
        ("bench.csv", ",".join(CSV_HEADER) + "\n5,3,4,,4,0.0,0.0,1.0\n",
         "row 2 column 'policy': '5' is not a string"),
        ("occ.csv", "label,count\nBOS,-1\n", "row 2 column 'count': '-1' is not a count"),
        ("cat.csv", "category,share\nstarting,1.5\n",
         "row 2 column 'share': '1.5' is not a number in [0, 1]"),
        ("curve.csv", "step,ce,img,combined\n0,1.0,nan,1.5\n",
         "row 2 column 'img': 'nan' is not a finite number"),
        ("curve.csv", "step,ce,img,combined\n-1,1.0,0.5,1.5\n",
         "row 2 column 'step': '-1' is not a count"),
        ("curve.csv", "step,ce,img,combined\n0, 1_0.5 ,0.5,1.5\n",
         "row 2 column 'ce': ' 1_0.5 ' is not a non-negative finite number"),
        ("cat.csv", "category,share\nstarting,0.50\n",
         "row 2 column 'share': '0.50' is not a number in [0, 1]"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,,4,0.0,0.0,1.0\n"
         "dense,10,4,,8,0.0,0.0,1.0\n",
         "row 3 column 'peak_entries': '10', row 2 of policy 'dense' has '9'"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,0.001,4,0.0,0.0,1.0\n"
         "window,8,4,,4,0.0,0.0,1.0\n", "row 3 column 'mean_tok_s': '', row 2 has '0.001'"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,,4,0.0,0.0,1.0\n"
         "dense,9,4,,8,0.0,0.0,1.0\nwindow,8,4,,8,0.0,0.0,1.0\nwindow,8,4,,4,0.0,0.0,1.0\n",
         "row 4 column 'ckpt': policy 'window' lists checkpoints 8,4, the first policy 4,8"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,,4,0.0,0.0,1.0\n"
         "dense,9,4,,8,0.0,0.0,1.0\nwindow,8,4,,4,0.0,0.0,1.0\n",
         "row 4 column 'ckpt': policy 'window' lists checkpoints 4, the first policy 4,8"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,,4,0.0,0.0,1.0\n"
         "dense,9,4,,4,0.0,0.0,1.0\n",
         "row 3 column 'ckpt': 4 after 4, the checkpoints must ascend without repeats"),
        ("bench.csv", ",".join(CSV_HEADER) + "\n", "benchmark report with no rows"),
        ("cat.csv", "category,share\nstarting,0.5\nstarting,0.5\n",
         "row 3 column 'category': 'starting', expected 'punctuation'; the table lists "
         "starting, punctuation, near_boi, near_eoi, other once each, in order"),
        ("cat.csv", "category,share\nother,1.0\n",
         "row 2 column 'category': 'other', expected 'starting'"),
        ("cat.csv", "category,share\nstarting,0.5\npunctuation,0.5\n",
         "row 4 column 'category': no row, expected 'near_boi'"),
        ("cat.csv", "category,share\nstarting,0.5\npunctuation,0.0\nnear_boi,0.0\n"
         "near_eoi,0.0\nother,0.5\nbogus,0.0\n",
         "row 7 column 'category': 'bogus', expected no row"),
        ("cat.csv", "category,share\nstarting,0.5\npunctuation,0.0\nnear_boi,0.0\n"
         "near_eoi,0.0\nother,0.6\n", "column 'share' sums to 1.1, not 1"),
        ("bench.csv", ",".join(CSV_HEADER) + "\ndense,9,4,,4,0.0,0.0,1.0\n"
         "window,8,4,,4,0.0,0.0,1.0\ndense,9,4,,8,0.0,0.0,1.0\nwindow,8,4,,8,0.0,0.0,1.0\n",
         "row 4: policy 'dense' resumes after another"),
        ("occ.csv", "label,count\nW1,2\nBOS,3\n",
         "row 3 column 'count': 3 after 2, the rows go by count descending, then label"),
        ("occ.csv", "label,count\nW1,2\nBOS,2\n", "row 3 column 'label': 'BOS' after 'W1'"),
        ("occ.csv", "label,count\nBOS,3\nBOS,3\nW1,2\n",
         "row 3 column 'label': 'BOS', row 2 lists it already"),
        ("occ.csv", "label,count\nBOS,3\nW1,2\nZZZ,0\n", "row 4 column 'count': 0, below 1"),
    ], ids=["bench", "occurrence", "category", "curve", "generation", "occurrence-cell",
            "curve-cell", "bench-json-policies", "bench-json-entry", "bench-json-entry-type",
            "bench-cell", "bench-timing-cell", "bench-ckpt-cell", "bench-underscore-count",
            "bench-negative-count", "bench-nan-timing", "bench-inf-diff", "bench-negative-kl",
            "bench-validity", "bench-numeric-policy", "occurrence-negative-count",
            "category-share", "curve-nan", "curve-negative-step", "curve-spaced-underscored",
            "share-not-a-repr", "bench-policy-cells", "bench-partly-timed",
            "bench-checkpoint-order", "bench-checkpoint-missing", "bench-checkpoint-repeated",
            "bench-no-rows", "category-repeated", "category-alone", "category-missing",
            "category-extra", "category-sum", "bench-policies-interleaved",
            "occurrence-reversed", "occurrence-label-order", "occurrence-repeated",
            "occurrence-zero-count"])
    def test_rejects_malformed_table(self, tmp_path, capsys, name, text, expected):
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err and expected in err

    def test_rejects_bench_csv_with_descending_checkpoints(self, tmp_path, capsys):
        """Each policy's rows reversed: all list the same checkpoints, in falling order."""
        report = tmp_path / "b.csv"
        assert main(["bench", "--steps", "64", "--report", str(report)]) == 0
        header, *rows = report.read_text().splitlines()
        rows = [row for i in range(0, len(rows), 4) for row in reversed(rows[i:i + 4])]
        assert len(rows) == 16
        report.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["validate", str(report)]) == 1
        first, second = (row.split(",")[4] for row in rows[:2])
        assert capsys.readouterr().err.splitlines() == [
            f"error: {report}: row 3 column 'ckpt': {second} after {first}, "
            "the checkpoints must ascend without repeats"]

    @pytest.mark.parametrize("change, expected", [
        ({"peak_entries": "x", "validity": 7, "divergence": 5},
         "policies[0] peak_entries is not a count"),
        ({"policy": 3}, "policies[0] policy is not a string"),
        ({"params": dict(PARAMS, window="8")}, "policies[0] params window is not an integer"),
        ({"params": []}, "policies[0] params is not an object"),
        ({"bytes": True}, "policies[0] bytes is not a count"),
        ({"mean_tok_s": "fast"}, "policies[0] mean_tok_s is not a finite number or null"),
        ({"validity": False}, "policies[0] validity is not a number in [0, 1] or null"),
        ({"divergence": 5}, "policies[0] divergence is not a list"),
        ({"divergence": [4]}, "policies[0] divergence[0] is not an object"),
        ({"divergence": [{"t": 4, "kl": 0.0}]},
         "policies[0] divergence[0] missing ['max_logit_diff']"),
        ({"divergence": [{"t": 4, "max_logit_diff": 0.0, "kl": None}]},
         "policies[0] divergence[0] kl is not a non-negative finite number"),
        ({"divergence": [{"t": 5, "max_logit_diff": 0.0, "kl": 0.0}]},
         "policies[0] divergence at t=[5], the checkpoints are [4]"),
        ({"peak_entries": -9, "validity": 7, "divergence": [
            {"t": 4, "max_logit_diff": 0.0, "kl": float("nan")}]},
         "policies[0] peak_entries is not a count"),
        ({"bytes": -1}, "policies[0] bytes is not a count"),
        ({"validity": 7}, "policies[0] validity is not a number in [0, 1] or null"),
        ({"validity": -0.5}, "policies[0] validity is not a number in [0, 1] or null"),
        ({"validity": True}, "policies[0] validity is not a number in [0, 1] or null"),
        ({"mean_tok_s": float("inf")}, "policies[0] mean_tok_s is not a finite number or null"),
        ({"divergence": [{"t": 4, "max_logit_diff": 0.0, "kl": float("nan")}]},
         "policies[0] divergence[0] kl is not a non-negative finite number"),
        ({"divergence": [{"t": 4, "max_logit_diff": -1.0, "kl": 0.0}]},
         "policies[0] divergence[0] max_logit_diff is not a non-negative finite number"),
        ({"divergence": [{"t": -4, "max_logit_diff": 0.0, "kl": 0.0}]},
         "policies[0] divergence[0] t is not a count"),
        ({"params": dict(PARAMS, window=0)},
         "policies[0] window policy needs a positive window, got 0"),
        ({"params": dict(PARAMS, k_tail=2)}, "policies[0] window policy takes no k_tail, got 2"),
    ], ids=["issue-entry", "policy", "params-value", "params-list", "bool-bytes", "timing",
            "bool-validity", "divergence", "checkpoint-type", "checkpoint-key", "kl",
            "checkpoint-t", "range-entry", "negative-bytes", "validity-above-one",
            "negative-validity", "true-validity", "infinite-timing", "nan-kl",
            "negative-logit-diff", "negative-t", "params-out-of-range", "params-not-read"])
    def test_rejects_bench_json_values(self, tmp_path, capsys, change, expected):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps(dict(REPORT_TOP, policies=[dict(ENTRY, **change)])))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]
        path.write_text(json.dumps(dict(REPORT_TOP, policies=[ENTRY])))
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("timing", [False, True])
    @pytest.mark.parametrize("validity, cell", [(None, ""), (0, "0"), (0.5, "0.5"), (1.0, "1.0")])
    def test_accepts_bench_validity_under_either_timing(self, tmp_path, timing, validity, cell):
        """validity is null where no free run counted a block, and a number in [0, 1] where
        one did, or in an untimed report written before untimed runs left it null."""
        report = dict(REPORT_TOP, timing=timing, policies=[
            dict(ENTRY, mean_tok_s=0.001 if timing else None, validity=validity)])
        path, table = tmp_path / "bench.json", tmp_path / "bench.csv"
        path.write_text(json.dumps(report))
        write_report_csv(report, table)
        assert table.read_text().splitlines()[1].split(",")[-1] == cell
        assert main(["validate", str(path), str(table)]) == 0

    @pytest.mark.parametrize("change, times, expected", [
        ({"repeats": -1, "timing": "x", "seed": "s", "trajectory": 5, "prompt_len": -4}, None,
         "prompt_len is not a count"),
        ({"prompt_len": 2.0}, None, "prompt_len is not a count"),
        ({"repeats": -1}, None, "repeats is not a count"),
        ({"seed": "s"}, None, "seed is not a count"),
        ({"timing": "x"}, None, "timing is not a boolean"),
        ({"timing": 0}, None, "timing is not a boolean"),
        ({"trajectory": 5}, None, "trajectory is not 'synthetic' or 'generated'"),
        ({"trajectory": "dense"}, None, "trajectory is not 'synthetic' or 'generated'"),
        ({"timing": True}, [0.001, None], "policies[1] mean_tok_s is null, timing is true"),
        ({}, [None, 0.001], "policies[1] mean_tok_s is 0.001, timing is false"),
        ({"policies": lambda ps: [ps[0], ps[0]]}, None,
         "policy kinds ['window'] given more than once"),
        ({"policies": []}, None, "no policies to benchmark"),
        ({"checkpoints": lambda ts: ts[::-1], "policies": lambda ps: [
            dict(e, divergence=e["divergence"][::-1]) for e in ps]}, None,
         "checkpoints [43, 39, 35, 31] are empty, unsorted or repeated"),
        ({"checkpoints": lambda ts: ts[:-1] + [1000000], "policies": lambda ps: [
            dict(e, divergence=e["divergence"][:-1] + [dict(e["divergence"][-1], t=1000000)])
            for e in ps]}, None, "checkpoints [1000000] outside 1..43"),
        ({"policies": lambda ps: [ps[0], dict(ps[1], policy="bogus")]}, None,
         "policies[1] unknown policy kind 'bogus', expected one of "
         "('dense', 'window', 'sink', 'mmsink')"),
        ({"policies": lambda ps: [ps[0], dict(ps[1], params=dict(ps[1]["params"], x=1))]}, None,
         "policies[1] params has unknown keys ['x']"),
        ({"repeats": 0}, None, "repeats must be at least 1"),
        ({"total_steps": 0}, None, "total_steps must be at least 1"),
    ], ids=["issue-report", "float-prompt-len", "negative-repeats", "string-seed",
            "string-timing", "int-timing", "int-trajectory", "unknown-trajectory",
            "timed-without-a-time", "untimed-with-a-time", "repeated-kind", "no-policies",
            "reversed-checkpoints", "checkpoint-past-the-run", "unknown-kind",
            "unknown-param", "zero-repeats", "zero-steps"])
    def test_rejects_bench_json_run_keys(self, tmp_path, capsys, change, times, expected):
        path = tmp_path / "bench.json"
        assert main(["bench", "--policies", "window,sink", "--steps", "16", "--window", "8",
                     "--report", str(tmp_path / "bench.csv"), "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        change = {key: value(report[key]) if callable(value) else value
                  for key, value in change.items()}
        if times:
            change = dict(change, policies=[dict(entry, mean_tok_s=t)
                                            for entry, t in zip(report["policies"], times)])
        path.write_text(json.dumps(dict(report, **change)))
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {expected}"]

    @pytest.mark.parametrize("change, expected", [
        ({"peak_entries": lambda _: 3, "entry_counts": lambda _: [1]},
         "entry_counts has 1 counts for {fed} labels after prompt_len and {steps} steps + "
         "forced_completion_steps"),
        ({"labels": lambda labels: labels[:-1]},
         "entry_counts has {fed} counts for {short} labels after prompt_len and {steps} steps + "
         "forced_completion_steps"),
        ({"prompt_len": lambda n: n + 1},
         "entry_counts has {fed} counts for {short} labels after prompt_len and {steps} steps + "
         "forced_completion_steps"),
        ({"steps": lambda n: n + 1},
         "entry_counts has {fed} counts for {fed} labels after prompt_len and {more} steps + "
         "forced_completion_steps"),
        ({"forced_completion_steps": lambda n: n + 1},
         "entry_counts has {fed} counts for {fed} labels after prompt_len and {more} steps + "
         "forced_completion_steps"),
        ({"peak_entries": lambda n: n - 1}, "entry_counts reach {peak}, above peak_entries"),
    ], ids=["issue-record", "labels", "prompt-len", "steps", "forced-steps", "peak-entries"])
    def test_rejects_generation_record_across_fields(self, tmp_path, capsys, change, expected):
        """Each edit, of the value it is given, breaks one relation of a 64-step record."""
        gen_out = tmp_path / "g.jsonl"
        assert main(["gen", "--policy", "window", "--window", "16", "--steps", "64",
                     "--out", str(gen_out)]) == 0
        record = json.loads(gen_out.read_text())
        fed = len(record["labels"]) - record["prompt_len"]
        assert fed == len(record["entry_counts"]) and max(record["entry_counts"]) == 16
        change = {key: edit(record[key]) for key, edit in change.items()}
        gen_out.write_text(json.dumps(dict(record, **change)) + "\n")
        capsys.readouterr()
        assert main(["validate", str(gen_out)]) == 1
        expected = expected.format(fed=fed, short=fed - 1, more=fed + 1, steps=fed,
                                   peak=record["peak_entries"])
        assert capsys.readouterr().err.splitlines() == [
            f"error: {gen_out}: line 1: generation record {expected}"]

    @pytest.mark.parametrize("change, expected", [
        ({"labels": 5}, "labels is not a list of strings"),
        ({"seed": "x", "valid": "no", "violations": 3, "peak_entries": "many"},
         "seed is not a count"),
        ({"valid": "no"}, "valid is not a boolean"),
        ({"violations": 3}, "violations is not a list of strings"),
        ({"peak_entries": "many"}, "peak_entries is not a count"),
        ({"blocks": [[1]]}, "blocks is not a list of integer pairs"),
        ({"blocks": [[1, 2.0]]}, "blocks is not a list of integer pairs"),
        ({"mode": None}, "mode is not 'constrained' or 'free'"),
        ({"mode": "bogus"}, "mode is not 'constrained' or 'free'"),
        ({"policy": "bogus", "params": {"window": 64, "n_sink": 4, "k_head": 1, "k_tail": 2,
                                        "x": -3}}, "params has unknown keys ['x']"),
        ({"policy": "bogus"},
         "unknown policy kind 'bogus', expected one of ('dense', 'window', 'sink', 'mmsink')"),
        ({"policy": "window"}, "window policy takes no n_sink, got 4"),
        ({"steps": True}, "steps is not a count"),
        ({"params": {"window": "8", "n_sink": 4, "k_head": 1, "k_tail": 2}},
         "params window is not an integer"),
        ({"prompt_len": -3}, "prompt_len is not a count"),
        ({"m": "eight"}, "m is not a count"),
        ({"entry_counts": "x"}, "entry_counts is not a list of counts"),
        ({"entry_counts": [3, -1]}, "entry_counts is not a list of counts"),
        ({"forced_completion_steps": 1.5}, "forced_completion_steps is not a count"),
        ({"seed": -1}, "seed is not a count"),
        ({"m": 2}, "k_head 1 + k_tail 2 exceeds block length 2"),
        ({"m": 9}, "blocks[0] is [17, 26] where the BOI labels give [17, 27]"),
        ({"m": 5}, "label 'IMG05': slot 5 does not fit a block of length m=5"),
        ({"valid": False, "blocks": [[0, 5]]}, "blocks is not empty, valid is false"),
        ({"violations": ["t=3: nested image block"]}, "violations is not empty, valid is true"),
        ({"blocks": lambda blocks: blocks[::-1]},
         "blocks[0] is [75, 84] where the BOI labels give [17, 26]"),
        ({"blocks": lambda blocks: blocks[:1] + blocks},
         "blocks[1] is [17, 26] where the BOI labels give [27, 36]"),
        ({"labels": lambda labels: labels[:17] + ["W1"] + labels[18:]},
         "blocks[0] is [17, 26] where the BOI labels give [27, 36]"),
        ({"labels": lambda labels: labels[:52] + ["IMG01"] + labels[53:]},
         "labels[52] is not 'IMG00', inside blocks[2]"),
        ({"blocks": lambda blocks: blocks[:-1]},
         "blocks[3] is null where the BOI labels give [75, 84]"),
        ({"features": lambda fs: [dict(fs[0], block_start=10**6)] + fs[1:]},
         "features[0] block_start 1000000 is no BOI after 26"),
        ({"features": "garbage"}, "features is not a list"),
        ({"features": lambda fs: [dict(fs[0], values=[["x"]])] + fs[1:]},
         "features[0] values is not a list of lists of finite numbers"),
        ({"features": lambda fs: fs[1:2] + fs[:1] + fs[2:]},
         "features[1] block_start 27 is no BOI after 51"),
        ({"features": lambda fs: fs[:1] + fs[:1] + fs[2:]},
         "features[1] block_start 27 is no BOI after 27"),
        ({"features": lambda fs: [dict(fs[0], block_start=17)] + fs[1:]},
         "features[0] block_start 17 is no BOI after 26"),
        ({"features": lambda fs: fs[:1] + [dict(fs[1], values=fs[1]["values"][1:])] + fs[2:]},
         f"features[1] values has 3 rows of lengths [16]{_ONE_SHAPE}"),
        ({"features": lambda fs: fs[:1] + [dict(fs[1], values=[[0.5], *fs[1]["values"][1:]])]},
         f"features[1] values has 4 rows of lengths [1, 16]{_ONE_SHAPE}"),
        ({"features": lambda fs: [dict(f, values=[]) for f in fs]},
         f"features[0] values has 0 rows of lengths []{_ONE_SHAPE}"),
    ], ids=["labels", "four-fields", "valid", "violations", "peak-entries", "short-block",
            "float-block", "mode", "unknown-mode", "unknown-param", "unknown-policy",
            "policy-params", "bool-steps", "params", "negative-prompt-len", "string-m",
            "string-entry-counts", "negative-entry-count", "float-forced-steps",
            "negative-seed", "m-below-anchors", "m-above-blocks", "slot-beyond-m",
            "invalid-with-blocks", "valid-with-violations", "reversed-blocks",
            "repeated-block", "boi-relabelled", "slot-relabelled", "block-missing",
            "feature-past-the-run", "features-not-a-list", "feature-values-not-numbers",
            "features-reversed", "feature-repeated", "feature-in-the-prompt",
            "feature-row-missing", "feature-row-width", "feature-no-rows"])
    def test_rejects_generation_record_values(self, tmp_path, capsys, change, expected):
        """Each edit, of the value it is given or to the value itself, of a 64-step record
        whose steps 0, 24 and 48 open a block, each with features."""
        gen_out = tmp_path / "g.jsonl"
        assert main(["gen", "--steps", "64", "--boi-every", "24", "--features",
                     "--out", str(gen_out)]) == 0
        record = json.loads(gen_out.read_text())
        change = {key: value(record[key]) if callable(value) else value
                  for key, value in change.items()}
        gen_out.write_text(json.dumps(dict(record, **change)) + "\n")
        capsys.readouterr()
        assert main(["validate", str(gen_out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {gen_out}: line 1: generation record {expected}"]

    def test_reads_a_model_file_once(self, tmp_path, tiny_config, monkeypatch):
        path = tmp_path / "m.json"
        engine.save_model(engine.Model.init(tiny_config), path)
        loads, load = [], json.load

        def counted_load(fh):
            loads.append(fh.name)
            return load(fh)

        monkeypatch.setattr(json, "load", counted_load)
        assert main(["validate", str(path)]) == 0
        assert loads == [str(path)]

    def test_reads_a_bench_json_once(self, tmp_path, monkeypatch):
        path = tmp_path / "bench.json"
        assert main(["bench", "--policies", "window", "--steps", "16", "--window", "8",
                     "--report", str(tmp_path / "bench.csv"), "--json", str(path)]) == 0
        loads, load = [], json.load

        def counted_load(fh):
            loads.append(fh.name)
            return load(fh)

        monkeypatch.setattr(json, "load", counted_load)
        assert main(["validate", str(path)]) == 0
        assert loads == [str(path)]

    def test_non_object_json_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "lst.json"
        path.write_text("[1, 2]\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path}: the top level is not a JSON object"]

    @pytest.mark.parametrize("text, line", [
        ("[1, 2]\n", 1), ('"x"\n', 1), ("\n5\n", 2),
        (json.dumps({"story_id": "s0", "items": [{"text": "a", "image_feature": [1.0]}]})
         + "\n5\n", 2),
    ], ids=["list", "string", "number", "story-file"])
    def test_non_object_jsonl_line_is_one_line_error(self, tmp_path, capsys, text, line):
        path = tmp_path / "l.jsonl"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path}: line {line}: not a JSON object"]


    @pytest.mark.parametrize("second, expected", [
        ("copy", None),
        ("5", "line 2: not a JSON object"),
        ("without-labels", "line 2: generation record missing ['labels']"),
    ])
    def test_every_generation_record_line_is_checked(self, tmp_path, capsys, second, expected):
        gen_out = tmp_path / "g.jsonl"
        assert main(["gen", "--steps", "12", "--out", str(gen_out)]) == 0
        record = json.loads(gen_out.read_text())
        if second == "without-labels":
            del record["labels"]
        if second != "5":
            second = json.dumps(record)
        with open(gen_out, "a") as fh:
            fh.write(second + "\n")
        capsys.readouterr()
        assert main(["validate", str(gen_out)]) == (1 if expected else 0)
        out, err = capsys.readouterr()
        if expected:
            assert err.splitlines() == [f"error: {gen_out}: {expected}"]
        else:
            assert out.splitlines() == [f"ok: {gen_out}: 2 generation records"]

def _transpose_w_out(payload):
    entry = payload["weights"]["w_out"]
    entry["shape"] = entry["shape"][::-1]


# payload edit -> what the one-line error names
_MODEL_DEFECTS = {
    "transposed-shape": (_transpose_w_out, "weight w_out: shape"),
    "unknown-config-key": (lambda p: p["config"].update(width=3),
                           "model file config has unknown keys ['width']"),
    "missing-config-key": (lambda p: p["config"].pop("d_ff"), "model file config missing ['d_ff']"),
    "missing-config": (lambda p: p.pop("config"), "model file missing ['config']"),
    "non-integer-shape": (lambda p: p["weights"]["lnf_g"].update(shape=[8.0]),
                          "model file weights lnf_g shape is not a list of counts"),
    "data-length": (lambda p: p["weights"]["lnf_b"]["data"].pop(),
                    "weight lnf_b: shape [8] with 7 values, the config gives shape [8]"),
    "non-numeric-data": (lambda p: p["weights"]["queries"]["data"].__setitem__(3, "0.5"),
                         "model file weights queries data is not a list of numbers"),
    "huge-int-weight": (lambda p: p["weights"]["lnf_b"]["data"].__setitem__(0, 10**400),
                        "model file weights lnf_b data is not a list of numbers"),
    "unknown-weight": (lambda p: p["weights"].update(bogus={"shape": [1], "data": [1.0]}),
                       "model file weights has unknown keys ['bogus']"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("defect", list(_MODEL_DEFECTS))
    def test_malformed_model_file_is_one_line_error(self, tmp_path, capsys, tiny_config, defect):
        """validate and gen --model both exit 1 with one error line naming the
        file and the key or weight."""
        edit, expected = _MODEL_DEFECTS[defect]
        path = tmp_path / "m.json"
        engine.save_model(engine.Model.init(tiny_config), path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        for args in (["validate", str(path)],
                     ["gen", "--model", str(path), "--steps", "4",
                      "--out", str(tmp_path / "g.jsonl")]):
            capsys.readouterr()
            assert main(args) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and str(path) in err and expected in err, err
        assert not (tmp_path / "g.jsonl").exists()

    @pytest.mark.parametrize("feature, expected", [
        ([0.0, 0.0], "items[1] image_feature has zero norm"),
        ([float("nan"), 1.0], "items[1] image_feature is not a list of finite numbers"),
        ([10**400, 1.0], "items[1] image_feature is not a list of finite numbers"),
        ([True, 1.0], "items[1] image_feature is not a list of finite numbers"),
    ], ids=["zeros", "nan", "too-large", "bool"])
    def test_bad_story_feature_is_one_line_error(self, tmp_path, capsys, feature, expected):
        """validate and train-toy both reject the story file at its line and item."""
        path = tmp_path / "s.jsonl"
        items = [{"text": "a", "image_feature": [1.0, 0.0]},
                 {"text": "b", "image_feature": feature}]
        path.write_text(json.dumps({"story_id": "s0", "items": items[:1]}) + "\n"
                        + json.dumps({"story_id": "s1", "items": items}) + "\n")
        for args in (["validate", str(path)],
                     ["train-toy", "--stories", str(path), "--steps", "1",
                      "--model-out", str(tmp_path / "m.json")]):
            capsys.readouterr()
            assert main(args) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and f"{path}: line 2: {expected}" in err, err
            assert err.count(str(path)) == 1, err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("change, expected", [
        ({"items": [{"text": 5, "image_feature": [1.0, 0.0]}]},
         "line 2: items[0] text is not a string"),
        ({"items": [{"text": "b", "image_feature": [1.0]}]},
         "line 2: story 's1' has 1-dimensional image features, the first story has 2"),
        ({"story_id": None}, "line 2: story_id is not a string"),
        ({"story_id": 5}, "line 2: story_id is not a string"),
    ], ids=["text-not-a-string", "feature-dimension", "null-story-id", "numeric-story-id"])
    def test_unusable_story_is_one_line_error(self, tmp_path, capsys, change, expected):
        """validate and train-toy both reject a story train-toy could not use: the
        second line is the first with ``change`` applied."""
        path = tmp_path / "s.jsonl"
        first = {"story_id": "s0", "items": [{"text": "a", "image_feature": [1.0, 0.0]}]}
        path.write_text(json.dumps(first) + "\n"
                        + json.dumps({**first, "story_id": "s1", **change}) + "\n")
        for args in (["validate", str(path)],
                     ["train-toy", "--stories", str(path), "--steps", "1",
                      "--model-out", str(tmp_path / "m.json")]):
            capsys.readouterr()
            assert main(args) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and f"{path}: {expected}" in err, err
            assert err.count(str(path)) == 1, err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("kind, edit, key_path", [
        ("dump", lambda row: row, "dump row t=1 layer=0 head=0:"),
        ("model", lambda payload: payload, "model file"),
        ("model", lambda payload: payload["config"], "model file config"),
        ("model", lambda payload: payload["weights"]["lnf_b"], "model file weights lnf_b"),
        ("gen", lambda record: record, "line 1: generation record"),
        ("gen", lambda record: record["params"], "line 1: generation record params"),
        ("gen", lambda record: record["features"][0], "line 1: generation record features[0]"),
        ("bench", lambda report: report, ""),
        ("bench", lambda report: report["policies"][0], "policies[0]"),
        ("bench", lambda report: report["policies"][0]["params"], "policies[0] params"),
        ("bench", lambda report: report["policies"][0]["divergence"][0],
         "policies[0] divergence[0]"),
        ("story", lambda story: story, "line 1:"),
        ("story", lambda story: story["items"][0], "line 1: items[0]"),
    ], ids=["dump-row", "model", "model-config", "model-weight", "generation-record",
            "generation-params", "generation-feature", "bench-report", "bench-entry",
            "bench-params", "bench-divergence", "story", "story-item"])
    def test_stray_key_is_named(self, tmp_path, capsys, tiny_config, kind, edit, key_path):
        """A key no writer writes, added to one object of a file the CLI wrote: validate,
        and the command that reads such a file, exit 1 with one line naming the file, the
        key path and the key."""
        path = tmp_path / {"model": "m.json", "bench": "b.json"}.get(kind, f"{kind}.jsonl")
        readers = {"dump": [["stats", "--dumps", str(path), "--occ-out", str(tmp_path / "o.csv")]],
                   "model": [["gen", "--model", str(path), "--steps", "4",
                              "--out", str(tmp_path / "out.jsonl")]],
                   "story": [["train-toy", "--stories", str(path), "--steps", "1",
                              "--model-out", str(tmp_path / "out.json")]]}.get(kind, [])
        if kind == "model":
            engine.save_model(engine.Model.init(tiny_config), path)
        elif kind == "story":
            sq.write_stories(sq.synth_stories(2, 2, rng_seed=0), path)
        else:
            assert main({"dump": ["gen", "--steps", "4", "--attn-dump", str(path),
                                  "--out", str(tmp_path / "g.jsonl")],
                         "gen": ["gen", "--steps", "24", "--boi-every", "10", "--features",
                                 "--out", str(path)],
                         "bench": ["bench", "--policies", "window", "--steps", "16", "--window",
                                   "8", "--report", str(tmp_path / "b.csv"), "--json",
                                   str(path)]}[kind]) == 0
        first, *rest = [path.read_text()] if kind in ("model", "bench") else (
            path.read_text().splitlines())
        payload = json.loads(first)
        edit(payload)["bogus"] = 1
        path.write_text("\n".join([json.dumps(payload), *rest]) + "\n")
        for args in [["validate", str(path)], *readers]:
            capsys.readouterr()
            assert main(args) == 1
            err = capsys.readouterr().err
            named = f"{path}: {key_path} has unknown keys ['bogus']".replace(":  ", ": ")
            assert len(err.splitlines()) == 1 and named in err, err
        assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "out.json").exists()

    def test_bad_dump_in_a_directory_is_named(self, tmp_path, capsys):
        """stats --dumps DIR names the file that holds a bad row."""
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        row = {"t": 1, "layer": 0, "head": 0, "labels": ["BOS"], "positions": [0]}
        (dumps / "a.jsonl").write_text(json.dumps(dict(row, row=[1.0])) + "\n")
        bad = dumps / "b.jsonl"
        bad.write_text(json.dumps(dict(row, row=[0.5])) + "\n")
        assert main(["stats", "--dumps", str(dumps), "--occ-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: {bad}: dump row t=1 layer=0 head=0: row sums to 0.5, expected 1"]


# the config keys each subcommand's flags set, as their dests
_COMMON_KEYS = {"cli.profile", "cli.seed"}
_FLAG_KEYS = {
    "synth": _COMMON_KEYS | {"seqmodel.items_per_story", "seqmodel.d_feat"},
    "train-toy": _COMMON_KEYS | {"losses.steps", "losses.lr", "losses.lam"},
    "gen": _COMMON_KEYS
    | {f"cachepolicy.{k}" for k in ("policy", "window", "n_sink", "k_head", "k_tail")},
    "stats": _COMMON_KEYS | {"cachepolicy.k_head", "cachepolicy.k_tail"},
    "bench": _COMMON_KEYS | {f"cachepolicy.{k}" for k in ("window", "n_sink", "k_head", "k_tail")}
    | {f"bench.{k}" for k in ("steps", "checkpoints", "repeats", "timing")},
    "validate": set(),
}

# the other arguments of a tiny run of each subcommand
_TINY_RUN = {
    "synth": ["--stories", "1", "--out", "s.jsonl"],
    "train-toy": ["--synth-stories", "1", "--synth-len", "1", "--model-out", "m.json"],
    "gen": ["--steps", "2", "--out", "g.jsonl"],
    "stats": ["--dumps", "d.jsonl", "--occ-out", "o.csv"],
    "bench": ["--policies", "window", "--report", "r.csv"],
}


def _tiny_files(tmp_path, monkeypatch) -> None:
    """The config file and attention dump the tiny runs read, in the working directory."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.ini").write_text(
        "[losses]\nsteps = 1\n[bench]\nsteps = 16\ncheckpoints = 8\nrepeats = 1\n")
    (tmp_path / "d.jsonl").write_text(json.dumps(
        {"t": 1, "layer": 0, "head": 0, "labels": ["BOS"], "positions": [0], "row": [1.0]}) + "\n")


class TestConfigFlags:
    def test_each_flag_dest_is_its_config_key(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sub.choices.keys() == _FLAG_KEYS.keys()
        for command, parser in sub.choices.items():
            keyed = [a for a in parser._actions if "." in a.dest]
            assert {a.dest for a in keyed} == _FLAG_KEYS[command], command
            for action in keyed:
                section, key = action.dest.split(".")
                assert action.type is KNOWN_KEYS[section][key], action.dest

    @pytest.mark.parametrize("command, flag, value, key", [
        ("synth", "--len", "3", "seqmodel.items_per_story"),
        ("synth", "--d-feat", "5", "seqmodel.d_feat"),
        ("train-toy", "--steps", "2", "losses.steps"),
        ("train-toy", "--lr", "0.25", "losses.lr"),
        ("train-toy", "--lam", "0.5", "losses.lam"),
        ("gen", "--policy", "window", "cachepolicy.policy"),
        ("gen", "--window", "16", "cachepolicy.window"),
        ("gen", "--n-sink", "2", "cachepolicy.n_sink"),
        ("gen", "--k-head", "2", "cachepolicy.k_head"),
        ("gen", "--k-tail", "1", "cachepolicy.k_tail"),
        ("stats", "--k-head", "3", "cachepolicy.k_head"),
        ("stats", "--k-tail", "1", "cachepolicy.k_tail"),
        ("bench", "--window", "16", "cachepolicy.window"),
        ("bench", "--n-sink", "2", "cachepolicy.n_sink"),
        ("bench", "--k-head", "2", "cachepolicy.k_head"),
        ("bench", "--k-tail", "1", "cachepolicy.k_tail"),
        ("bench", "--steps", "12", "bench.steps"),
        ("bench", "--checkpoints", "4,8", "bench.checkpoints"),
        ("bench", "--repeats", "2", "bench.repeats"),
        ("bench", "--timing", "wall", "bench.timing"),
    ])
    def test_flag_sets_its_config_line(self, tmp_path, capsys, monkeypatch,
                                       command, flag, value, key):
        """Each value differs from the config file's and the desk profile's."""
        _tiny_files(tmp_path, monkeypatch)
        assert main([command, *_TINY_RUN[command], "--config", "tiny.ini", flag, value]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  {key} = {value}" in lines

    @pytest.mark.parametrize("command", sorted(_TINY_RUN))
    def test_every_argument_is_printed_once(self, tmp_path, capsys, monkeypatch, command):
        """A config key as its own line, any other argument as command.dest,
        except the config file, profile and seed, which the cli lines hold."""
        _tiny_files(tmp_path, monkeypatch)
        assert main([command, *_TINY_RUN[command], "--config", "tiny.ini"]) == 0
        lines = capsys.readouterr().out.splitlines()
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices[command]._actions
                 if a.dest not in ("help", "config", "profile", "seed")]
        assert dests
        for dest in dests:
            name = dest if "." in dest else f"{command}.{dest}"
            assert sum(line.startswith(f"  {name} = ") for line in lines) == 1, name
        if command == "bench":  # it runs each of --policies
            assert not any(line.startswith("  cachepolicy.policy = ") for line in lines)


class TestConfigHandling:
    def test_config_file_overrides_profile_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[cachepolicy]\nwindow = 48\n")
        out = tmp_path / "g.jsonl"
        main(["gen", "--config", str(cfg), "--steps", "4", "--out", str(out)])
        assert "cachepolicy.window = 48" in capsys.readouterr().out
        main(["gen", "--config", str(cfg), "--window", "20", "--steps", "4",
              "--out", str(out)])
        assert "cachepolicy.window = 20" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[cachepolicy]\nwidnow = 48\n")
        out = tmp_path / "g.jsonl"
        assert main(["gen", "--config", str(cfg), "--steps", "4",
                     "--out", str(out)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, choices", [
        ("cli", "profile", ["desk", "paper-faithful"]),
        ("cachepolicy", "policy", ["dense", "window", "sink", "mmsink"]),
        ("bench", "timing", ["off", "wall"]),
    ])
    def test_config_value_outside_its_flag_choices_rejected(self, tmp_path, capsys,
                                                            section, key, choices):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = bogus\n")
        out = tmp_path / "s.jsonl"
        assert main(["synth", "--config", str(cfg), "--stories", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            f"error: ConfigError: {cfg}: [{section}] {key}: unknown value 'bogus', "
            f"expected one of {choices}"]

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[caching]\nwindow = 48\n")
        assert main(["gen", "--config", str(cfg), "--steps", "4",
                     "--out", "x.jsonl"]) == 1

    def test_paper_faithful_profile(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        main(["synth", "--profile", "paper-faithful", "--stories", "1",
              "--len", "1", "--out", str(out)])
        text = capsys.readouterr().out
        assert "seqmodel.m = 64" in text
        assert "engine.q_queries = 64" in text
        assert "cachepolicy.k_head = 5" in text
        assert "cachepolicy.k_tail = 8" in text

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_policy_from_cfg_matches_the_factories(self, profile):
        cfg = PROFILES[profile]
        w, n, k_head, k_tail = (cfg[("cachepolicy", name)]
                                for name in ("window", "n_sink", "k_head", "k_tail"))
        assert [_policy_from_cfg(cfg, kind) for kind in POLICY_KINDS] == [
            CachePolicy.dense(), CachePolicy.windowed(w), CachePolicy.sink(n, w),
            CachePolicy.mmsink(n, k_head, k_tail, w)]
        assert _policy_from_cfg(cfg) == CachePolicy.mmsink(n, k_head, k_tail, w)

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MMSINK_SEED", "99")
        out = tmp_path / "s.jsonl"
        main(["synth", "--stories", "1", "--len", "1", "--out", str(out)])
        assert "cli.seed = 99" in capsys.readouterr().out

    def test_flag_beats_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MMSINK_SEED", "99")
        out = tmp_path / "s.jsonl"
        main(["synth", "--stories", "1", "--len", "1", "--seed", "3",
              "--out", str(out)])
        assert "cli.seed = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("ini, flags, env, seed, profile", [
        ("seed = 7\n", ["--seed", "3"], "99", 3, "desk"),
        ("seed = 7\n", [], "99", 7, "desk"),
        ("", [], "99", 99, "desk"),
        ("", [], None, 0, "desk"),
        ("profile = paper-faithful\n", ["--profile", "desk"], None, 0, "desk"),
        ("profile = paper-faithful\n", [], None, 0, "paper-faithful"),
    ], ids=["seed-flag-over-file", "seed-file-over-env", "seed-env-over-default",
            "seed-default", "profile-flag-over-file", "profile-file-over-desk"])
    def test_cli_key_precedence(self, tmp_path, capsys, monkeypatch, ini, flags, env, seed,
                                profile):
        """[cli] seed: flag, file, MMSINK_SEED, 0; [cli] profile: flag, file, desk."""
        if env is None:
            monkeypatch.delenv("MMSINK_SEED", raising=False)
        else:
            monkeypatch.setenv("MMSINK_SEED", env)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[cli]\n" + ini)
        assert main(["synth", "--config", str(cfg), *flags, "--stories", "1", "--len", "1",
                     "--out", str(tmp_path / "s.jsonl")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"  cli.seed = {seed}" in lines and f"  cli.profile = {profile}" in lines


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--stories", "1", "--frobnicate", "--out", "x"])
        assert exc.value.code == 2

    def test_bench_takes_policies_not_policy(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--policy", "dense", "--report", "r.csv"])
        assert exc.value.code == 2

    def test_unknown_bench_policy_is_exit_one(self, tmp_path, capsys):
        report = tmp_path / "r.csv"
        assert main(["bench", "--policies", "dense,lru", "--report", str(report)]) == 1
        assert "unknown policy kind 'lru', expected one of" in capsys.readouterr().err
        assert not report.exists()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ["bench", "--steps", "100", "--report", "r.csv"],
        ["gen", "--policy", "dense", "--steps", "100", "--out", "g.jsonl"],
    ])
    def test_position_table_overflow_is_exit_one(self, tmp_path, capsys, monkeypatch, command):
        cfg = tmp_path / "small.ini"
        cfg.write_text("[engine]\nmax_positions = 64\n")
        monkeypatch.chdir(tmp_path)
        # any forward pass would fail: decode steps and the replay both run block
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        assert main(command + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "+ 100 steps" in err and "(64)" in err
        assert not (tmp_path / command[-1]).exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_checkpoint_is_config_error(self, tmp_path, capsys, monkeypatch, source):
        # any forward pass would fail: decode steps and the replay both run block
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        args = ["bench", "--steps", "8", "--report", str(tmp_path / "r.csv")]
        if source == "flag":
            args += ["--checkpoints", "3,x"]
        else:
            cfg = tmp_path / "bad.ini"
            cfg.write_text("[bench]\ncheckpoints = 3,x\n")
            args += ["--config", str(cfg)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "bench.checkpoints" in err and "'x'" in err

    def test_repeated_bench_policy_kind_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        report = tmp_path / "r.csv"
        assert main(["bench", "--policies", "window,dense,window", "--steps", "32",
                     "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert "error: ConfigError: policy kinds ['window'] given more than once" in err
        assert not report.exists()

    def test_empty_checkpoint_list_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        report = tmp_path / "r.csv"
        assert main(["bench", "--checkpoints", ",", "--steps", "32",
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: ConfigError: checkpoints [] are empty, unsorted or repeated"]
        assert not report.exists()

    @pytest.mark.parametrize("checkpoints", ["60,40,40", "40,60,60", "60,40"])
    def test_unsorted_or_repeated_checkpoints_are_config_error(self, tmp_path, capsys,
                                                                monkeypatch, checkpoints):
        """A run keeps the checkpoints it is given, so it is held to a report's rule."""
        monkeypatch.setattr(engine, "forward_step", None)
        monkeypatch.setattr(engine, "block", None)
        report, js = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(["bench", "--steps", "64", "--checkpoints", checkpoints,
                     "--report", str(report), "--json", str(js)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: checkpoints [{checkpoints.replace(',', ', ')}] are empty, "
            "unsorted or repeated"]
        assert not report.exists() and not js.exists()

    @pytest.mark.parametrize("boi_every", ["-3", "0"])
    def test_nonpositive_boi_every_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                   boi_every):
        monkeypatch.setattr(engine, "forward_step", None)
        out = tmp_path / "g.jsonl"
        assert main(["gen", "--policy", "window", "--steps", "8",
                     "--boi-every", boi_every, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"boi_every = {boi_every}" in captured.out
        assert "ConfigError" in captured.err and "boi_every" in captured.err
        assert not out.exists()

    def test_zero_temperature_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        out = tmp_path / "g.jsonl"
        assert main(["gen", "--policy", "mmsink", "--temperature", "0", "--steps", "8",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "temperature must be a positive finite number" in err
        assert not out.exists()

    def test_boi_every_in_free_mode_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "forward_step", None)
        out = tmp_path / "g.jsonl"
        assert main(["gen", "--policy", "mmsink", "--mode", "free", "--temperature", "1.0",
                     "--steps", "8", "--boi-every", "5", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "boi_every" in err and "'free'" in err
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["config", "mid-run"])
    @pytest.mark.parametrize("existing", [None, b"an earlier dump\n"])
    def test_failed_gen_leaves_dump_path_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                   failure, existing):
        dump = tmp_path / "d.jsonl"
        if existing is not None:
            dump.write_bytes(existing)
        args = ["gen", "--policy", "window", "--steps", "8", "--attn-dump", str(dump),
                "--out", str(tmp_path / "g.jsonl")]
        if failure == "config":
            args += ["--boi-every", "0"]
        else:  # the fourth step fails after three steps' rows were written
            calls, step = [], engine.forward_step

            def failing_step(*a, **kw):
                calls.append(1)
                if len(calls) > 3:
                    raise StateError("step failed")
                return step(*a, **kw)

            monkeypatch.setattr(engine, "forward_step", failing_step)
        assert main(args) == 1
        assert ("ConfigError" if failure == "config" else "step failed") in capsys.readouterr().err
        assert (dump.read_bytes() if dump.exists() else None) == existing
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["d.jsonl"])

    def test_dump_path_that_cannot_be_replaced_leaves_no_temporary(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        assert main(["gen", "--policy", "window", "--steps", "4", "--attn-dump",
                     str(tmp_path / "d"), "--out", str(tmp_path / "g.jsonl")]) == 1
        assert "error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "g.jsonl"]
        assert not any((tmp_path / "d").iterdir())

    def test_stats_k_below_one_fails_before_reading_dumps(self, tmp_path, capsys, monkeypatch):
        dump, occ = tmp_path / "d.jsonl", tmp_path / "o.csv"
        dump.write_text(json.dumps({"t": 1, "layer": 0, "head": 0, "labels": ["BOS"],
                                    "positions": [0], "row": [1.0]}) + "\n")
        monkeypatch.setattr(attnstats, "records_from_dumps", None)
        assert main(["stats", "--k", "0", "--dumps", str(dump), "--occ-out", str(occ)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "stats.k" in err
        assert not occ.exists()

    @pytest.mark.parametrize("dest, command", [
        ("synth.stories", ["synth", "--stories", "0", "--out", "s.jsonl"]),
        ("gen.prompt_items", ["gen", "--steps", "4", "--prompt-items", "0", "--out", "g.jsonl"]),
        ("bench.prompt_items", ["bench", "--steps", "8", "--prompt-items", "0",
                                "--report", "r.csv"]),
        ("train-toy.synth_stories", ["train-toy", "--synth-stories", "0",
                                     "--model-out", "m.json"]),
        ("train-toy.synth_len", ["train-toy", "--synth-len", "0", "--model-out", "m.json"]),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_count_below_one_fails_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   dest, command):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(engine.Model, "init", None)
        monkeypatch.setattr(sq, "synth_stories", None)
        assert main(command) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ConfigError: {dest} must be at least 1, got 0"]
        assert not list(tmp_path.iterdir())

    def test_story_file_without_a_story_is_named(self, tmp_path, capsys):
        stories = tmp_path / "empty.jsonl"
        stories.write_text("\n")
        assert main(["train-toy", "--stories", str(stories),
                     "--model-out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: StoryFormatError: {stories}: no stories"]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("bad", ["5", '"tlayerheadlabelspositionsrow"', "[1, 2]"],
                             ids=["number", "string", "list"])
    def test_stats_names_a_dump_line_that_is_not_an_object(self, tmp_path, capsys, bad):
        dump, occ = tmp_path / "d.jsonl", tmp_path / "o.csv"
        dump.write_text(json.dumps({"t": 1, "layer": 0, "head": 0, "labels": ["BOS"],
                                    "positions": [0], "row": [1.0]}) + f"\n{bad}\n")
        assert main(["stats", "--dumps", str(dump), "--occ-out", str(occ)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: {dump}: line 2: not a JSON object"]
        assert not occ.exists()

    def test_train_toy_past_the_position_table_fails_before_any_layer(self, tmp_path, capsys,
                                                                      monkeypatch):
        cfg, model_out = tmp_path / "small.ini", tmp_path / "m.json"
        cfg.write_text("[engine]\nmax_positions = 16\n")
        monkeypatch.setattr(engine, "block", None)  # any layer would fail
        assert main(["train-toy", "--synth-stories", "2", "--synth-len", "2", "--steps", "2",
                     "--config", str(cfg), "--model-out", str(model_out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: StateError: cache position 16 exceeds the position table (16)"]
        assert not model_out.exists()

    def test_stats_rejects_a_slot_the_block_cannot_hold(self, tmp_path, capsys):
        """A dump of m = 64 blocks read under the desk profile's m = 8."""
        dump, occ = tmp_path / "d.jsonl", tmp_path / "o.csv"
        dump.write_text(json.dumps({"t": 1, "layer": 0, "head": 0, "labels": ["IMG20"],
                                    "positions": [0], "row": [1.0]}) + "\n")
        assert main(["stats", "--dumps", str(dump), "--occ-out", str(occ)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: ValueError: label 'IMG20': slot 20 does not fit a block of length m=8"]
        assert not occ.exists()

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        assert main(["train-toy", "--stories", str(tmp_path / "missing.jsonl"),
                     "--model-out", str(tmp_path / "m.json")]) == 1
        assert "error" in capsys.readouterr().err
