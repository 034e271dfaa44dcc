"""Untimed probes: the byte-identity golden corpus and the known-defect list.

The golden corpus is a few fixed configs covering every subcommand in CSV
and JSON.  Their outputs were recorded from the package and are compared
byte for byte on every benchmark run.  A difference is reported as
``check.golden_diff``, apart from the per-request checker, because a change
may move thresholds within the bisection tolerance on purpose; such a
change records the corpus again with ``python3 perfbench/probes.py --record``
(run from the repository root) and says so.

The defect probe runs inputs that failed when the benchmark was written,
outside the exponent range the timed streams draw from, so that range
hides nothing.  ``check.defects_open`` counts the ones that still fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_P3 = ["--p", "3", "--q1", "0.5", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"]

GOLDEN = {
    "norms_csv": ["norms"] + _P3,
    "norms_oracle_json": ["norms"] + _P3 + ["--oracle", "--format", "json"],
    "roots_custom_csv": ["roots"] + _P3 + ["--A", "s^(p-1)*(1+t)", "--B", "s+t", "--lambda", "2000"],
    "roots_cor2_json": ["roots", "--scenario", "cor2"] + _P3 + ["--lambda", "60", "--format", "json"],
    "sweep_cor2_csv": ["sweep", "--scenario", "cor2"] + _P3
                      + ["--lambda-min", "20", "--lambda-max", "200", "--lambda-n", "9"],
    "sweep_cor4_json": ["sweep", "--scenario", "cor4"] + _P3
                       + ["--lambda-min", "300", "--lambda-max", "3000", "--lambda-n", "9",
                          "--format", "json"],
    "eval_cor4_csv": ["eval", "--scenario", "cor4"] + _P3
                     + ["--lambda", "2000", "--root-index", "1", "--grid-n", "21"],
    "eval_cor2_json": ["eval", "--scenario", "cor2"] + _P3
                      + ["--lambda", "60", "--root-index", "0", "--grid-n", "21", "--format", "json"],
    "exp_csv": ["exp", "--r1", "0.4", "--r2", "0.6", "--A", "1+t", "--B", "2+t", "--lambda", "2",
                "--grid-n", "21"],
    "exp_json": ["exp", "--r1", "0.4", "--r2", "0.6", "--A", "1+t", "--B", "2+t", "--lambda", "2",
                 "--grid-n", "21", "--format", "json"],
    "verify_p3": ["verify", "--ps", "3"],
}


def run_cli(main, argv: list[str]) -> tuple[int | None, str, str, BaseException | None]:
    """Run ``main(argv)`` in process; returns (exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as raised:  # a traceback is an outcome the probe reports
            exc = raised
    return code, out.getvalue(), err.getvalue(), exc


def golden_diff(main) -> list[str]:
    """Names of golden configs whose exit code or output bytes differ."""
    differ = []
    for name, argv in GOLDEN.items():
        code, out, _, exc = run_cli(main, argv)
        expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
        if exc is not None or code != 0 or out.encode("utf-8") != expected:
            differ.append(name)
    return differ


def record_golden(main) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in GOLDEN.items():
        code, out, err, exc = run_cli(main, argv)
        if exc is not None or code != 0:
            raise RuntimeError(f"golden config {name} failed: exit {code}, {exc!r}, {err}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(out.encode("utf-8"))


def _cor1_at_threshold() -> list[str]:
    from blowup.norms import make_norm_table
    from blowup.scenarios import analytic_thresholds, default_exponents, get_scenario

    ex = default_exponents(1.2)
    th = analytic_thresholds(get_scenario("cor1"), make_norm_table(1.2, *ex))[0]
    return (["roots", "--scenario", "cor1", "--p", "1.2"]
            + [a for k, v in zip(("q1", "q2", "r1", "r2"), ex) for a in (f"--{k}", repr(v))]
            + ["--lambda", repr(th), "--format", "json"])


def _describe(code, out, err, exc) -> str:
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if out.startswith("{"):
        doc = json.loads(out)
        return f"exit {code}: {doc['results']['count']} roots, overflow {doc['flags']['overflow']}"
    lines = [line for line in out.splitlines() if line.startswith("FAIL")] or err.splitlines()
    return f"exit {code}" + (f": {lines[0]}" if lines else "")


def _spurious_roots(code, out, exc) -> bool:
    if exc is not None or code != 0:
        return True
    doc = json.loads(out)
    return doc["flags"]["overflow"] or doc["results"]["count"] > 1


# (input, is the defect still there?)  A fixed input answers cleanly:
# exit 0 with honest flags, or exit 2 with a diagnostic; never a traceback.
DEFECTS = (
    (lambda: ["norms", "--p", "1.01", "--q1", "0.0025", "--q2", "0.0035",
              "--r1", "0.002", "--r2", "0.003"],
     lambda code, out, exc: exc is not None or code not in (0, 2)),
    (lambda: ["verify", "--ps", "1.05", "40"],
     lambda code, out, exc: exc is not None),
    (lambda: ["verify", "--ps", "2.2"], lambda code, out, exc: exc is not None or code == 1),
    (lambda: ["verify", "--ps", "3.7"], lambda code, out, exc: exc is not None or code == 1),
    (lambda: ["verify", "--ps", "7"], lambda code, out, exc: exc is not None or code == 1),
    (_cor1_at_threshold, _spurious_roots),
    (lambda: ["eval", "--scenario", "cor4"] + _P3
     + ["--lambda", "1000", "--root-index", "1", "--grid-n", "201"],
     lambda code, out, exc: exc is not None or code != 0),
)


def defect_probe(main) -> list[dict]:
    """Each probe input with its observed outcome and whether the defect is open."""
    report = []
    for make_argv, still_open in DEFECTS:
        argv = make_argv()
        code, out, err, exc = run_cli(main, argv)
        report.append({"argv": " ".join(argv), "outcome": _describe(code, out, err, exc),
                       "open": bool(still_open(code, out, exc))})
    return report


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/probes.py --record   (from the repository root)")
    sys.path.insert(0, "src")
    from blowup.cli import main as cli_main

    record_golden(cli_main)
    print(f"recorded {len(GOLDEN)} golden outputs in {GOLDEN_DIR}")
