"""tools/bench_pairs.py on a two-commit scratch repository with a stub benchmark."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"

# Reports wall_s = the source tree's WALL + seed / 100, plus 10 for workload
# "v", and logs which WALL ran (and, with BENCH_TREES set, which tree).
STUB_RUN = '''
import argparse, json, os, sys
from pathlib import Path
root = Path(__file__).resolve().parents[1]
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
wall = float((root / "src" / "mmsink" / "WALL").read_text()) + int(a.seed) / 100
wall += 10 if a.workload == "v" else 0
with open(os.environ["BENCH_LOG"], "a") as fh:
    fh.write(f"{wall}\\n")
if "BENCH_TREES" in os.environ:
    with open(os.environ["BENCH_TREES"], "a") as fh:
        fh.write(f"{root}\\n")
metrics = {"setup_s": 0.5, "wall_s": wall, "peak_rss_mb": 60.0}
print(json.dumps({"provenance": {"seed": int(a.seed), "src": str(wall)[:1]},
                  "iterations": 3 + int(a.seed) % 2}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}))
'''

SPEC = {"run_seconds": 20, "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]}


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)


def _two_commit_repository(tmp_path: Path) -> Path:
    """Base commit WALL=2.0, change commit WALL=1.0, uncommitted WALL=1.5."""
    repo = tmp_path / "repo"
    (repo / "src" / "mmsink").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    (repo / "tools").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copy2(TOOL, repo / "tools" / "bench_pairs.py")
    wall = repo / "src" / "mmsink" / "WALL"
    wall.write_text("2.0")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    wall.write_text("1.0")
    _git(repo, "commit", "-q", "-am", "change")
    wall.write_text("1.5")
    return repo


needs_git = pytest.mark.skipif(shutil.which("git") is None or shutil.which("tar") is None,
                               reason="needs git and tar")


@needs_git
def test_two_commit_repository(tmp_path, monkeypatch):
    repo = _two_commit_repository(tmp_path)
    # the change side is the working tree, uncommitted edits included
    log = tmp_path / "runs.log"
    monkeypatch.setenv("BENCH_LOG", str(log))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(repo / "tools" / "bench_pairs.py"), "--base", "HEAD~1",
                    "--workload", "w", "--pairs", "3", "--first-seed", "4", "--out", str(out)],
                   check=True, capture_output=True)

    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert json.loads(json.dumps(report)) == report
    assert (report["workload"], report["seconds"], report["seeds"]) == ("w", 20, [4, 6])
    # alternating order, one seed per pair: base first on even pairs
    assert log.read_text().split() == ["2.04", "1.54", "1.55", "2.05", "2.06", "1.56"]
    assert [(p["seed"], p["first"]) for p in report["pairs"]] == [
        (4, "base"), (5, "change"), (6, "base")]
    assert [p["base"]["wall_s"] for p in report["pairs"]] == [2.04, 2.05, 2.06]
    assert all(p["base_failed"] == p["change_failed"] == 0 for p in report["pairs"])
    assert [(p["base_iterations"], p["change_iterations"]) for p in report["pairs"]] == [
        (3, 3), (4, 4), (3, 3)]
    wall_s = report["summary"]["wall_s"]
    assert wall_s["base"] == pytest.approx({"median": 2.05, "q1": 2.045, "q3": 2.055,
                                            "iqr": 0.01})
    assert wall_s["change"]["median"] == pytest.approx(1.55)
    assert (wall_s["change_wins"], wall_s["ties"], wall_s["pairs"]) == (3, 0, 3)
    assert wall_s["median_ratio"] == pytest.approx(1.55 / 2.05 - 1)
    assert report["summary"]["setup_s"]["ties"] == 3
    assert report["base"]["provenance"] == {"src": "2"}
    assert report["change"]["provenance"] == {"src": "1"}
    assert report["change"]["src_uncommitted_changes"] is True
    assert len(report["base"]["rev"]) == 40 and report["base"]["rev"] != report["change"]["rev"]
    assert not list(tmp_path.glob("bench-pairs-*"))  # the base tree is removed


@needs_git
def test_change_revision_is_archived_like_the_base(tmp_path, monkeypatch):
    repo = _two_commit_repository(tmp_path)
    log = tmp_path / "runs.log"
    monkeypatch.setenv("BENCH_LOG", str(log))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(repo / "tools" / "bench_pairs.py"), "--base", "HEAD~1",
                    "--change", "HEAD", "--workload", "w", "--pairs", "2", "--out", str(out)],
                   check=True, capture_output=True)

    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    # the committed WALL=1.0, not the working tree's 1.5
    assert log.read_text().split() == ["2.0", "1.0", "1.01", "2.01"]
    assert [p["change"]["wall_s"] for p in report["pairs"]] == [1.0, 1.01]
    assert report["change"]["provenance"] == {"src": "1"}
    assert report["change"]["src_uncommitted_changes"] is False
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()
    assert report["change"]["rev"] == head != report["base"]["rev"]
    assert not list(tmp_path.glob("bench-pairs-*"))


@needs_git
def test_several_workloads_run_over_one_pair_of_trees(tmp_path, monkeypatch):
    repo = _two_commit_repository(tmp_path)
    log, trees = tmp_path / "runs.log", tmp_path / "trees.log"
    monkeypatch.setenv("BENCH_LOG", str(log))
    monkeypatch.setenv("BENCH_TREES", str(trees))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    out = tmp_path / "BENCH.json"
    subprocess.run([sys.executable, str(repo / "tools" / "bench_pairs.py"), "--base", "HEAD~1",
                    "--workload", "w,v", "--pairs", "2", "--first-seed", "4", "--out", str(out)],
                   check=True, capture_output=True)

    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    # every pair of the first workload, then of the second, in the same order
    assert log.read_text().split() == ["2.04", "1.54", "1.55", "2.05",
                                       "12.04", "11.54", "11.55", "12.05"]
    # the base tree is archived once: both workloads ran in the same directory
    base, change = trees.read_text().split()[:2]
    assert trees.read_text().split() == [base, change, change, base] * 2
    assert change == str(repo) != base
    assert report["workload"] == "w" and [p["base"]["wall_s"] for p in report["pairs"]] == \
        [2.04, 2.05]
    assert list(report["other_workloads"]) == ["v"]
    other = report["other_workloads"]["v"]
    assert list(other) == ["seconds", "seeds", "base", "change", "summary", "pairs"]
    assert (other["seconds"], other["seeds"]) == (20, [4, 5])
    assert [p["change"]["wall_s"] for p in other["pairs"]] == [11.54, 11.55]
    assert other["summary"]["wall_s"]["base"]["median"] == pytest.approx(12.045)
    assert [other[side]["rev"] for side in ("base", "change")] == \
        [report[side]["rev"] for side in ("base", "change")]
    assert not list(tmp_path.glob("bench-pairs-*"))
