"""End-to-end command-line behavior: subcommands, config, exit codes."""

import json

import pytest

from mmsink import engine
from mmsink.bench import CSV_HEADER
from mmsink import seqmodel as sq
from mmsink.cli import main


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

    def test_record_is_valid_and_constrained(self, tmp_path):
        out = tmp_path / "g.jsonl"
        main(["gen", "--policy", "window", "--window", "16", "--steps", "24",
              "--seed", "2", "--out", str(out)])
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


class TestBench:
    def test_csv_has_four_policy_rows_per_checkpoint(self, tmp_path):
        report = tmp_path / "bench.csv"
        assert main(["bench", "--policies", "dense,window,sink,mmsink",
                     "--steps", "96", "--window", "32", "--seed", "0",
                     "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        policies = {line.split(",")[0] for line in lines[1:]}
        assert policies == {"dense", "window", "sink", "mmsink"}

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
        paths = [stories, model, curve, gen_out, dumps, occ, cat, rep, repj]
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
            "peak_entries": 1}) + "\n", "missing ['valid']"),
        ("occ.csv", "label,count\nBOS,x\n", "row 2 column 'count': 'x' is not an integer"),
        ("curve.csv", "step,ce,img,combined\n0,1.0,0.5,1.5\n1,a,b,c\n",
         "row 3 column 'ce': 'a' is not a number"),
    ], ids=["bench", "occurrence", "category", "curve", "generation", "occurrence-cell",
            "curve-cell"])
    def test_rejects_malformed_table(self, tmp_path, capsys, name, text, expected):
        path = tmp_path / name
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and expected in err


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


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--stories", "1", "--frobnicate", "--out", "x"])
        assert exc.value.code == 2

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

    def test_runtime_failure_is_exit_one(self, tmp_path, capsys):
        assert main(["train-toy", "--stories", str(tmp_path / "missing.jsonl"),
                     "--model-out", str(tmp_path / "m.json")]) == 1
        assert "error" in capsys.readouterr().err
