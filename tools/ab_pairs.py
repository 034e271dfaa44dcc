"""Alternating before/after runs of the benchmark in two source trees.

    python3 tools/ab_pairs.py OLD NEW --workload sweep --seed 9090 --seconds 20 --pairs 10

OLD and NEW are checkouts of this repository.  Each pair runs
``perfbench/run.py`` once in each, OLD first in the first pair, NEW first
in the second, and so on, so a drift of the machine's speed does not
favour one side.  Each run starts from the root of its checkout (so it
imports its own tree), after deleting every ``__pycache__`` directory
in it, so no run starts from bytecode an earlier run left.  The last
stdout line of each run is its JSON report.

The tool prints, per metric: the median and quartiles of OLD and of NEW,
the change of the medians, in how many pairs NEW was better (the
direction comes from ``BENCHMARK.json`` next to this tool; unknown
metrics count lower as better), and whether the medians lie further
apart than OLD's interquartile range.  For an end-to-end metric it also
prints whether NEW's median is worse than OLD's by more than the metric's
``bound`` in ``BENCHMARK.json`` (a relative change), and the last line
lists every metric that is.  It exits 1 if a run failed or reported
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def clear_bytecode(tree: Path) -> None:
    """Delete every ``__pycache__`` directory under the tree."""
    for cache in sorted(tree.rglob("__pycache__"), reverse=True):
        if cache.is_dir():
            shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in the tree: its JSON report."""
    clear_bytecode(tree)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_pairs: run in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _declaration(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def directions(path: Path = ROOT / "BENCHMARK.json") -> dict[str, str]:
    """metric name -> "lower" or "higher", from a benchmark declaration."""
    bench = _declaration(path)
    return {m["name"]: m["better"]
            for group in ("end_to_end", "per_layer") for m in bench.get(group, ())}


def bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, float]:
    """end-to-end metric name -> the relative worsening it may show at most."""
    return {m["name"]: m["bound"] for m in _declaration(path).get("end_to_end", ())
            if "bound" in m}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(old: list[dict], new: list[dict], better: dict[str, str],
              bound: dict[str, float] | None = None) -> list[dict]:
    """Per metric present in every run: quartiles of both sides, the change
    of the medians, NEW's wins over its pairs, whether the medians lie
    further apart than OLD's interquartile range, and, for a metric with a
    bound, whether NEW's median is worse than OLD's by more than it."""
    bound = bound or {}
    names = [name for name in old[0]["metrics"]
             if all(name in run["metrics"] for run in old + new)]
    rows = []
    for name in names:
        a = [run["metrics"][name]["value"] for run in old]
        b = [run["metrics"][name]["value"] for run in new]
        higher = better.get(name, "lower") == "higher"
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else None
        rows.append({"metric": name, "unit": old[0]["metrics"][name]["unit"],
                     "old": qa, "new": qb, "change": change,
                     "wins": wins, "pairs": len(a),
                     "apart": abs(qb[1] - qa[1]) > qa[2] - qa[0],
                     "bound": bound.get(name),
                     "over": (name in bound and change is not None
                              and (-change if higher else change) > bound[name])})
    return rows


def _format(row: dict) -> str:
    change = "n/a" if row["change"] is None else f"{row['change']:+.1%}"
    old, new = ("{1:.4g} [{0:.4g}, {2:.4g}]".format(*row[side]) for side in ("old", "new"))
    line = (f"{row['metric']} ({row['unit']}): old {old}  new {new}"
            f"  change {change}  wins {row['wins']}/{row['pairs']}"
            f"  medians apart by more than old IQR: {'yes' if row['apart'] else 'no'}")
    if row["bound"] is not None:
        line += f"  worse than bound {row['bound']:.0%}: {'yes' if row['over'] else 'no'}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    old, new = [], []
    sides = [(args.old, old), (args.new, new)]
    for i in range(args.pairs):
        for tree, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(tree.resolve(), args.workload, args.seed, args.seconds,
                                 args.trace))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{args.seconds:g} s, trace {args.trace}")
    rows = summarise(old, new, directions(), bounds())
    for row in rows:
        print("  " + _format(row))
    incorrect = [f"{label} pair {i + 1}" for label, runs in (("old", old), ("new", new))
                 for i, run in enumerate(runs) if not run.get("correct", False)]
    if incorrect:
        print("  incorrect runs: " + ", ".join(incorrect))
    over = [row["metric"] for row in rows if row["over"]]
    print("worse than their bound: " + (", ".join(over) if over else "none"))
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
