"""Paired benchmark runner: alternate perfbench runs of two revisions and write BENCH_<label>.json.

Run from anywhere inside the repository:

    python3 bench/pairs.py --base HEAD~1 --label pr --pairs 10 --first-seed 300 --seconds 20

Each revision is extracted into its own temporary tree (`git archive` for a
revision; the tracked and untracked, not ignored files for the working tree,
which is the default `--change`). perfbench/run.py of each tree runs there
unchanged, one process per run, under PYTHONDONTWRITEBYTECODE=1 and with
PYTHONPATH unset, so each side imports its own sources with no cached
bytecode. Stdlib only.

For each workload, pair i runs both sides at seed `--first-seed` + i; the
base goes first in even pairs and the change in odd ones. The digest gate
compares the output digests that the two sides print on perfbench's info
line at the same seed; a digest that differs fails the run unless it is
named with `--expect-moved NAME`. perfbench/digests.json is not read.

Every BENCHMARK.json workload runs at perfbench's default size.
BENCH_<label>.json, written to the repository root, holds the
host (perfbench's environment line, less the commit), both revisions,
the arguments and, per workload: every pair with its seed, order,
end-to-end metrics and moved digests (base and change value); and per
metric the median and quartiles of each side, the pairs where the change
is better, the relative change of the medians, and three verdicts:
  within_bound  the change's median is not worse than the base's by more
                than the metric's BENCHMARK.json bound;
  unresolved    the quartile spread of either side, over its median, is
                wider than that bound, so the pairs cannot tell a move of
                the bound's size from noise;
  claim         the change is better in at least 9 of 10 pairs (the same
                share of any pair count) and the medians differ by more
                than the base's quartile spread.
The exit status is 0 when every run is correct and the digest gate holds,
1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKING_TREE = "working tree"


def git(*args: str, cwd: Path) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, check=True).stdout


def extract(repo: Path, rev: str, into: Path) -> str:
    """Write the files of `rev` (or of the working tree) under `into`; return its commit, '+dirty' for the tree."""
    into.mkdir(parents=True)
    head = git("rev-parse", "HEAD" if rev == WORKING_TREE else f"{rev}^{{commit}}", cwd=repo).decode().strip()
    if rev != WORKING_TREE:
        tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", head, cwd=repo))).extractall(into, filter="data")
        return head
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=repo).decode().split("\0"):
        source = repo / name
        if name and source.is_file():  # a tracked file deleted in the tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)
    dirty = git("status", "--porcelain", "--untracked-files=normal", cwd=repo).strip()
    return head + ("+dirty" if dirty else "")


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench process: its info line's `perfbench` object with the result line's fields beside it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"pairs: perfbench failed in {tree} ({workload}, seed {seed}):\n{done.stderr[-2000:]}")
    info, result = json.loads(lines[-2])["perfbench"], json.loads(lines[-1])
    return {**info, "correct": result["correct"], "metrics": result["metrics"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(spec: dict, base: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pairs won and the three verdicts of one metric (see the module docstring)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    better = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    relative = (cmed - bmed) / bmed if bmed else 0.0
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    return {
        "unit": spec["unit"],
        "bound": spec["bound"],
        "base": {"median": bmed, "q1": bq1, "q3": bq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "relative_change": relative,
        "change_better": better,
        "pairs": len(base),
        "within_bound": sign * relative <= spec["bound"],
        "unresolved": spread > spec["bound"],
        "claim": better >= 0.9 * len(base) and sign * (bmed - cmed) > bq3 - bq1,
    }


def bench_workload(trees: dict, workload: str, args, specs: dict) -> dict:
    """The pairs of one workload, alternating which side runs first, with the summary of each metric."""
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {side: run_perfbench(trees[side], workload, seed, args.seconds) for side in order}
        base_digests, change_digests = runs["base"]["digests"], runs["change"]["digests"]
        values = {k: [base_digests.get(k), change_digests.get(k)] for k in sorted(base_digests.keys() | change_digests.keys())}
        moved = {k: v for k, v in values.items() if v[0] != v[1]}
        pairs.append(
            {
                "seed": seed,
                "first": order[0],
                **{side: {k: v["value"] for k, v in runs[side]["metrics"].items()} for side in ("base", "change")},
                "correct": {side: runs[side]["correct"] for side in ("base", "change")},
                "env": runs["change"]["env"],
                "digests_moved": moved,
            }
        )
        walls = ", ".join(f"{side} {pairs[-1][side]['wall_s']:.4f}" for side in ("base", "change"))
        print(f"pairs: {workload} seed {seed}: wall_s {walls}; moved {list(moved) or 'none'}", file=sys.stderr, flush=True)
    moved = sorted({k for p in pairs for k in p["digests_moved"]})
    unexpected = [k for k in moved if k not in args.expect_moved]
    return {
        "pairs": pairs,
        "metrics": {
            name: summarize(spec, [p["base"][name] for p in pairs], [p["change"][name] for p in pairs])
            for name, spec in specs.items()
        },
        "digests_moved": moved,
        "unexpected_moves": unexpected,
        "correct": all(all(p["correct"].values()) for p in pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", default=WORKING_TREE, help="git revision of the change side (default: working tree)")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0, help="pair i runs both sides at this seed + i")
    parser.add_argument("--seconds", type=float, default=20.0, help="perfbench's --seconds")
    parser.add_argument("--expect-moved", action="append", default=[], metavar="NAME", help="a digest allowed to move")
    args = parser.parse_args(argv)
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()).decode().strip())
    benchmark = json.loads((repo / "BENCHMARK.json").read_text())
    specs = {spec["name"]: spec for spec in benchmark["end_to_end"]}
    out = repo / f"BENCH_{args.label}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        sides = (("base", args.base), ("change", args.change))
        revisions = {side: {"rev": rev, "commit": extract(repo, rev, trees[side])} for side, rev in sides}
        results = {w["name"]: bench_workload(trees, w["name"], args, specs) for w in benchmark["workloads"]}
    env = next(iter(results.values()))["pairs"][0]["env"]
    report = {
        "label": args.label,
        "host": {k: env[k] for k in ("nproc", "python", "numpy", "machine")},
        **revisions,
        "args": vars(args),
        "workloads": results,
        "ok": all(r["correct"] and not r["unexpected_moves"] for r in results.values()),
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            verdicts = [v for v in ("claim", "unresolved") if m[v]] + ([] if m["within_bound"] else ["WORSE"])
            print(
                f"{workload:12} {name:16} {m['base']['median']:.4g} -> {m['change']['median']:.4g} "
                f"({m['relative_change']:+.1%}), better {m['change_better']}/{m['pairs']} {' '.join(verdicts)}"
            )
        if result["unexpected_moves"] or not result["correct"]:
            print(f"{workload:12} FAILED: digests moved {result['unexpected_moves']}; correct {result['correct']}")
    print(f"pairs: wrote {out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
