"""Compare what two source trees print for the same benchmark requests.

    python3 tools/outputs_diff.py OLD NEW --workload sweep --seed 601 -n 24
    python3 tools/outputs_diff.py OLD NEW --argvs tools/corner_argvs.json --all

OLD and NEW are checkouts of this repository (a directory holding
``src/blowup``).  The first N argvs of a ``perfbench`` workload stream at
the seed, or every argv of a JSON list of argvs given with ``--argvs``,
are sent to ``blowup.cli.main``, in one child interpreter per tree that
imports that tree's package, the way the benchmark's worker sends them.
``corner_argvs.json`` next to this tool holds requests the streams never
draw: p near 1 and large p, a tiny boundary offset, an even grid, verify
outside its working range and at p = 2.2, 3.7 and 7, the norm oracles,
inputs whose result overflows a double, a one-point scan grid, and a
coefficient that divides by zero.  For each request the
child records stdout, stderr, the exit code, and the exception if one
escaped ``main``.  The tool prints the first request where any of the
four differs, with the first differing line, and exits 1; it exits 0
when all agree.  With ``--all`` it lists every differing request instead:
which fields differ, the exit codes, and the largest relative move over
the numbers in stdout, token by token.  The streams come from the
``perfbench/workloads.py`` next to this tool, so both trees get the same
argvs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("exit", "exception", "stdout", "stderr")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def run_requests(argvs: list[list[str]]) -> list[dict]:
    """Each argv through ``blowup.cli.main`` in this interpreter, output captured."""
    from blowup import cli

    outcomes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        code, exception = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded and compared, not handled
                exception = f"{type(exc).__name__}: {exc}"
        outcomes.append({"exit": code, "exception": exception,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return outcomes


def tree_outcomes(tree: Path, argvs: list[list[str]]) -> list[dict]:
    """run_requests in a fresh interpreter that imports the tree's package."""
    src = tree.resolve() / "src"
    if not (src / "blowup").is_dir():
        raise SystemExit(f"outputs_diff: no src/blowup under {tree}")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          env=env, cwd=tree)
    if proc.returncode != 0:
        raise SystemExit(f"outputs_diff: child for {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def first_difference(old: list[dict], new: list[dict]) -> tuple[int, str] | None:
    """(request index, description) of the first disagreement, or None."""
    for i, (a, b) in enumerate(zip(old, new)):
        for field in FIELDS:
            if a[field] == b[field]:
                continue
            if field in ("stdout", "stderr"):
                la, lb = a[field].splitlines(), b[field].splitlines()
                k = next((j for j, (x, y) in enumerate(zip(la, lb)) if x != y),
                         min(len(la), len(lb)))
                shown = [la[k] if k < len(la) else "<end>", lb[k] if k < len(lb) else "<end>"]
                return i, f"{field} line {k + 1}: {shown[0]!r} != {shown[1]!r}"
            return i, f"{field}: {a[field]!r} != {b[field]!r}"
    if len(old) != len(new):
        return min(len(old), len(new)), f"request count {len(old)} != {len(new)}"
    return None


def largest_move(old: str, new: str) -> float | None:
    """Largest relative change between the numbers of two texts, token by
    token; None when they hold different numbers of numeric tokens."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return worst


def all_differences(old: list[dict], new: list[dict]) -> list[tuple[int, str]]:
    """(request index, summary) for every request whose outcomes differ."""
    found = []
    for i, (a, b) in enumerate(zip(old, new)):
        fields = [f for f in FIELDS if a[f] != b[f]]
        if not fields:
            continue
        move = largest_move(a["stdout"], b["stdout"])
        found.append((i, f"{', '.join(fields)} differ; exit {a['exit']} -> {b['exit']}; "
                         + ("stdout numbers not comparable" if move is None
                            else f"largest relative move {move:.3e}")))
    return found


def stream_argvs(workload: str, seed: int, n: int) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    stream = workloads.stream(workload, seed)
    return [next(stream) for _ in range(n)]


def file_argvs(path: Path) -> list[list[str]]:
    """The argvs of a JSON file holding a list of lists of strings."""
    try:
        argvs = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"outputs_diff: cannot read argvs from {path}: {exc}")
    if not (isinstance(argvs, list)
            and all(isinstance(a, list) and all(isinstance(w, str) for w in a) for a in argvs)):
        raise SystemExit(f"outputs_diff: {path} must hold a JSON list of lists of strings")
    return argvs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, nargs="?")
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--workload", default="sweep")
    parser.add_argument("--seed", type=int, default=601)
    parser.add_argument("-n", type=int, default=24, help="requests from the start of the stream")
    parser.add_argument("--argvs", type=Path, default=None, metavar="FILE",
                        help="JSON list of argvs to send instead of a workload stream")
    parser.add_argument("--all", action="store_true",
                        help="list every differing request, not just the first")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        json.dump(run_requests(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.old is None or args.new is None:
        parser.error("OLD and NEW source trees are required")
    if args.argvs is not None:
        argvs, label = file_argvs(args.argvs), str(args.argvs)
    else:
        argvs = stream_argvs(args.workload, args.seed, args.n)
        label = f"{args.workload} seed {args.seed}"
    old, new = tree_outcomes(args.old, argvs), tree_outcomes(args.new, argvs)
    if args.all:
        differ = all_differences(old, new)
        for index, what in differ:
            print(f"request {index}: {what}\n  argv: {' '.join(argvs[index])}")
        print(f"{label}: {len(differ)} of {len(argvs)} requests differ")
        return 1 if differ else 0
    found = first_difference(old, new)
    if found is None:
        codes = sorted({str(o["exit"]) for o in new})
        print(f"{label}: {len(argvs)} requests identical (exit codes {', '.join(codes)})")
        return 0
    index, what = found
    print(f"{label}: request {index} differs: {what}\n  argv: {' '.join(argvs[index])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
