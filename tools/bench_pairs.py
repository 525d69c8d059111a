"""Alternating before/after runs of the benchmark, written as one JSON file.

    python tools/bench_pairs.py --base REV --workload W[,W2,...] --pairs N
        --out BENCH_<pr>.json [--change REV] [--first-seed K]

The base side is a ``git archive`` of REV's ``src/`` in a temporary
directory (``$TMPDIR``), next to a copy of this checkout's ``perfbench/``
and ``BENCHMARK.json``; the change side is this checkout, or with
``--change`` a second revision's ``src/`` archived the same way. Both run the
same, current ``perfbench/run.py --trace 0``, for the ``run_seconds`` that
``BENCHMARK.json`` fixes. Pair i uses seed K + i and runs the base first
when i is even, the change first when it is odd.

The output holds every pair's end-to-end metrics (the ones
``BENCHMARK.json`` declares), failed operations and iteration counts (a
workload's peak RSS grows with the iterations it keeps), each side's median,
quartiles and IQR per metric, the change's win count (ties count for
neither side), and each side's perfbench provenance. Several
comma-separated workloads run one after another over the same archived
trees, N pairs each: the first one's record is the top level, and each
other's, without its ``workload`` field, is under ``other_workloads``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, **kwargs)


def archived_tree(rev: str, dest: Path) -> None:
    """REV's ``src/`` beside this checkout's benchmark, under ``dest``."""
    archive = git("archive", "--format=tar", rev, "src").stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` process; returns its (detail, result) records."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles (linear interpolation between order statistics) and IQR."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [pair["base"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        sides = {"base": spread(base), "change": spread(change)}
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "change_wins": wins,
            "ties": sum(b == c for b, c in zip(base, change)),
            "pairs": len(pairs),
            "median_ratio": sides["change"]["median"] / sides["base"]["median"] - 1.0,
        }
    return out


def commit(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()


def workload_pairs(trees: dict[str, Path], workload: str, pairs: int,
                   first_seed: int) -> tuple[list[dict], dict[str, dict]]:
    """The alternating pairs of one workload, and each side's provenance."""
    provenance: dict[str, dict] = {}
    records = []
    for i in range(pairs):
        seed = first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            detail, result = run_once(trees[side], workload, seed)
            pair[side] = {name: entry["value"] for name, entry in result["metrics"].items()}
            pair[f"{side}_failed"] = result["failed"]
            pair[f"{side}_attempted"] = result["attempted"]
            pair[f"{side}_iterations"] = detail["iterations"]
            provenance.setdefault(side, {k: v for k, v in detail["provenance"].items()
                                         if k != "seed"})
            print(f"{workload} pair {i} seed {seed} {side}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in pair[side].items())
                  + f" iterations={detail['iterations']}", file=sys.stderr)
        records.append(pair)
    return records, provenance


def bench_pairs(base_rev: str, workloads: list[str], pairs: int, first_seed: int,
                change_rev: str | None = None) -> dict:
    revs = {"base": commit(base_rev)}
    if change_rev is not None:
        revs["change"] = commit(change_rev)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    dirty = change_rev is None and bool(
        git("status", "--porcelain", "--", "src", text=True).stdout.strip())
    reports = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"change": ROOT}
        for side, rev in revs.items():
            trees[side] = Path(tmp) / side
            archived_tree(rev, trees[side])
        for workload in workloads:
            records, provenance = workload_pairs(trees, workload, pairs, first_seed)
            reports.append({
                "workload": workload,
                "seconds": spec["run_seconds"],
                "seeds": [first_seed, first_seed + pairs - 1],
                "base": {"rev": revs["base"], "provenance": provenance.get("base")},
                "change": {"rev": revs.get("change") or commit("HEAD"),
                           "src_uncommitted_changes": dirty,
                           "provenance": provenance.get("change")},
                "summary": summarize(records, spec["end_to_end"]),
                "pairs": records,
            })
    report, *others = reports
    if others:
        report["other_workloads"] = {other.pop("workload"): other for other in others}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", help="git revision of the change side (default: this checkout)")
    parser.add_argument("--workload", required=True,
                        help="a workload, or several separated by commas")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w for w in args.workload.split(",") if w]
    report = bench_pairs(args.base, workloads, args.pairs, args.first_seed, args.change)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    records = {report["workload"]: report, **report.get("other_workloads", {})}
    for workload, record in records.items():
        for name, entry in record["summary"].items():
            print(f"{workload} {name}: base {entry['base']['median']:.4g} "
                  f"(IQR {entry['base']['iqr']:.3g}), change {entry['change']['median']:.4g} "
                  f"(IQR {entry['change']['iqr']:.3g}), {entry['median_ratio']:+.1%}, "
                  f"change better in {entry['change_wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
