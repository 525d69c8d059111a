"""Write the CLI output matrix, or compare two written matrices.

    python tools/cli_outputs.py OUT [--src DIR]
    python tools/cli_outputs.py --compare A B

The first form runs the fixed set of CLI commands below, writing their 41
output files into OUT (the four attention dumps that ``stats`` reads under
OUT/dumps/), and prints one SHA-256 per file. ``--src`` picks the source
tree to run (default: this checkout's ``src``), so the same script can write
the matrix of another revision.

The second form reports, per file, either "identical" or the largest
absolute difference over its float fields. It exits non-zero when a file is
missing, when any non-float field differs (labels, blocks, counts,
validity, structure) or when a float differs by more than ``FLOAT_ATOL``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

FLOAT_ATOL = 1e-12
POLICIES = ("dense", "window", "sink", "mmsink")
FREE_SEEDS = (0, 1, 2, 5)
TRAJECTORIES = ("synthetic", "generated")


def commands(out: Path) -> list[tuple[list[str], list[str]]]:
    """(CLI arguments, output file names) for every run of the matrix."""
    runs = []
    for policy in POLICIES:
        gen, dump = f"gen-{policy}.jsonl", f"dumps/gen-{policy}.dump.jsonl"
        runs.append((["gen", "--policy", policy, "--steps", "512", "--boi-every", "24",
                      "--features", "--attn-dump", out / dump, "--out", out / gen],
                     [gen, dump]))
    # a dump without features: with the runs above and below, every
    # combination of the two observers gen can run
    runs.append((["gen", "--policy", "window", "--steps", "256", "--boi-every", "24",
                  "--attn-dump", out / "gen-window-dump-only.dump.jsonl",
                  "--out", out / "gen-window-dump-only.jsonl"],
                 ["gen-window-dump-only.jsonl", "gen-window-dump-only.dump.jsonl"]))
    # a sink policy with its own flags over a two-item prompt of another story seed
    runs.append((["gen", "--policy", "sink", "--window", "32", "--n-sink", "2", "--prompt-items",
                  "2", "--prompt-seed", "7", "--steps", "128", "--boi-every", "24",
                  "--out", out / "gen-sink-flags.jsonl"], ["gen-sink-flags.jsonl"]))
    runs.append((["gen", "--policy", "mmsink", "--temperature", "1.0", "--steps", "512",
                  "--boi-every", "24", "--features", "--out", out / "gen-mmsink-sampled.jsonl"],
                 ["gen-mmsink-sampled.jsonl"]))
    # the paper-faithful profile's mmsink(4, 5, 8, 256) over 64-slot blocks
    runs.append((["gen", "--profile", "paper-faithful", "--steps", "400", "--boi-every", "90",
                  "--features", "--out", out / "gen-paper-faithful.jsonl"],
                 ["gen-paper-faithful.jsonl"]))
    for seed in FREE_SEEDS:
        name = f"free-seed{seed}.jsonl"
        runs.append((["gen", "--policy", "mmsink", "--mode", "free", "--temperature", "1.0",
                      "--steps", "512", "--seed", str(seed), "--out", out / name], [name]))
    runs.append((["gen", "--policy", "dense", "--mode", "free", "--temperature", "1.0",
                  "--steps", "512", "--seed", "3", "--out", out / "free-dense.jsonl"],
                 ["free-dense.jsonl"]))
    for trajectory in TRAJECTORIES:
        report, js = f"bench-{trajectory}.csv", f"bench-{trajectory}.json"
        runs.append((["bench", "--steps", "512", "--trajectory", trajectory,
                      "--report", out / report, "--json", out / js], [report, js]))
    runs.append((["bench", "--policies", "window,sink,mmsink", "--window", "16", "--n-sink", "2",
                  "--k-head", "2", "--k-tail", "1", "--steps", "128", "--checkpoints", "40,80",
                  "--repeats", "2", "--report", out / "bench-flags.csv",
                  "--json", out / "bench-flags.json"],
                 ["bench-flags.csv", "bench-flags.json"]))
    runs.append((["train-toy", "--steps", "50", "--model-out", out / "train-model.json",
                  "--curve-out", out / "train-curve.csv"],
                 ["train-model.json", "train-curve.csv"]))
    runs.append((["train-toy", "--steps", "5", "--lr", "0.1", "--lam", "0.5",
                  "--model-out", out / "train-flags-model.json",
                  "--curve-out", out / "train-flags-curve.csv"],
                 ["train-flags-model.json", "train-flags-curve.csv"]))
    runs.append((["bench", "--model", out / "train-model.json", "--prompt-items", "2",
                  "--steps", "128", "--report", out / "bench-trained.csv",
                  "--json", out / "bench-trained.json"],
                 ["bench-trained.csv", "bench-trained.json"]))
    runs.append((["synth", "--stories", "3", "--len", "5", "--d-feat", "4",
                  "--out", out / "synth-stories.jsonl"], ["synth-stories.jsonl"]))
    # a story file at the desk d_feat through train-toy, and a trained model through gen:
    # the runs that read a story file and a model file
    runs.append((["synth", "--stories", "4", "--len", "3",
                  "--out", out / "synth-desk-stories.jsonl"], ["synth-desk-stories.jsonl"]))
    runs.append((["train-toy", "--stories", out / "synth-desk-stories.jsonl", "--steps", "5",
                  "--model-out", out / "train-stories-model.json",
                  "--curve-out", out / "train-stories-curve.csv"],
                 ["train-stories-model.json", "train-stories-curve.csv"]))
    runs.append((["gen", "--model", out / "train-model.json", "--steps", "256",
                  "--boi-every", "24", "--features", "--out", out / "gen-trained.jsonl"],
                 ["gen-trained.jsonl"]))
    runs.append((["stats", "--dumps", out / "dumps/gen-mmsink.dump.jsonl",
                  "--occ-out", out / "stats-occurrence.csv",
                  "--cat-out", out / "stats-category.csv"],
                 ["stats-occurrence.csv", "stats-category.csv"]))
    runs.append((["stats", "--dumps", out / "dumps/gen-mmsink.dump.jsonl", "--k", "5",
                  "--k-head", "2", "--k-tail", "1", "--occ-out", out / "stats-flags-occurrence.csv",
                  "--cat-out", out / "stats-flags-category.csv"],
                 ["stats-flags-occurrence.csv", "stats-flags-category.csv"]))
    runs.append((["stats", "--dumps", out / "dumps",
                  "--occ-out", out / "stats-dumps-occurrence.csv",
                  "--cat-out", out / "stats-dumps-category.csv"],
                 ["stats-dumps-occurrence.csv", "stats-dumps-category.csv"]))
    return [([str(a) for a in argv], names) for argv, names in runs]


def file_names() -> list[str]:
    return [name for _, names in commands(Path(".")) for name in names]


def write_matrix(out: Path, src: Path) -> int:
    (out / "dumps").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for argv, names in commands(out):
        done = subprocess.run([sys.executable, "-m", "mmsink.cli", *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode:
            print(f"mmsink {' '.join(argv)} exited {done.returncode}:\n{done.stderr}",
                  file=sys.stderr)
            return 1
        for name in names:
            print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    return 0


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load(path: Path):
    """The file's values: JSON types, with CSV cells read as int, float or str."""
    with open(path, "r", encoding="utf-8") as fh:
        if path.suffix == ".csv":
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
        if path.suffix == ".jsonl":
            return [json.loads(line) for line in fh if line.strip()]
        return json.load(fh)


def max_float_delta(a, b, where: str = "") -> float:
    """Largest |a - b| over paired float leaves, where NaN on both sides is
    equal and NaN on one side only is infinitely far; raises ValueError
    naming the first place where the non-float content differs."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or a != a and b != b:
            return 0.0
        delta = abs(a - b)
        return delta if delta == delta else math.inf
    if type(a) is not type(b):
        raise ValueError(f"{where or '/'}: {a!r} != {b!r}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{where or '/'}: keys {sorted(a)} != {sorted(b)}")
        return max((max_float_delta(a[k], b[k], f"{where}/{k}") for k in a), default=0.0)
    if isinstance(a, list):
        if len(a) != len(b):
            raise ValueError(f"{where or '/'}: length {len(a)} != {len(b)}")
        return max((max_float_delta(x, y, f"{where}/{i}") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if a != b:
        raise ValueError(f"{where or '/'}: {a!r} != {b!r}")
    return 0.0


def compare(a_dir: Path, b_dir: Path) -> int:
    failures = 0
    for name in file_names():
        a, b = a_dir / name, b_dir / name
        if not (a.exists() and b.exists()):
            print(f"{name}: missing")
            failures += 1
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
        else:
            try:
                delta = max_float_delta(load(a), load(b))
            except ValueError as exc:
                print(f"{name}: non-float field differs at {exc}")
                failures += 1
                continue
            over = delta > FLOAT_ATOL
            failures += over
            print(f"{name}: floats differ, max |delta| {delta:.3g}"
                  + (f" > {FLOAT_ATOL:g}" if over else ""))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", type=Path, help="directory to write the matrix into")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="source tree to run (default: this checkout's src)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT or --compare A B")
    return write_matrix(args.out, args.src)


if __name__ == "__main__":
    sys.exit(main())
