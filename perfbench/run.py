"""The blowup benchmark: seeded CLI request streams against ``blowup.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Workloads (see ``workloads.py`` for the streams):

  roots    single-lambda roots on custom DSL coefficients: parse, positivity
           scan and one scan per request; nothing a cross-lambda cache reuses
  sweep    41-point lambda sweeps over cor1-cor4: the scan repeated per lambda
           plus threshold bisection; cor3 fills count_cap and loads Brent
  profile  eval / exp with 2001 grid points: time-map inversion and emission
  verify   the oracle suite for one p: the only workload that runs oracles

With ``--trace 0`` the run measures end-to-end metrics: ``setup_s`` is the
median cold ``import blowup.cli`` over four fresh interpreters, and one of
them then sends requests in a closed loop (one client, no extra threads)
for T seconds of request time.  Cold CLI time is setup_s + req_p50_ms.

Times are wall times scaled to a reference machine speed.  The machine
this was written on (2 shared x86-64 cores) swings between a fast and a
slow state every few seconds, by up to 1.5x, which spread raw per-run
medians by 30 %.  The worker therefore times a fixed calibration kernel
before and after every request and every timed import, and scales each
time by REFERENCE_KERNEL_S / (the mean of those two kernel times): it
reads as the time on a machine where the kernel takes REFERENCE_KERNEL_S.
The raw values are printed alongside.
With ``--trace 1`` the same stream runs with spans patched around every
layer, its first half runs again untraced to measure the tracing
overhead, and the run reports per-layer metrics (per request).
Every answer is checked against an independent reference; the golden
corpus is diffed byte for byte on every run.  The last line of stdout is
a JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # import-only interpreters, plus the one that runs the requests
IMPORTTIME_SAMPLES = 3
# every child must end before the whole run has taken this long
DEADLINE = time.monotonic() + 170.0
# about the time of either calibration kernel on that machine
REFERENCE_KERNEL_S = 0.3e-3

# setup.* metric -> top-level package whose modules' self import times it sums
IMPORT_GROUPS = {
    "setup.import_scipy_s": "scipy",
    "setup.import_numpy_s": "numpy",
    "setup.import_mpmath_s": "mpmath",
    "setup.import_blowup_self_s": "blowup",
}


class BenchError(RuntimeError):
    pass


def _child(args: list[str], importtime: bool = False) -> tuple[dict, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BLOWUP_THREADS", None)
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _import_self_times(stderr: str) -> dict[str, float]:
    """Sum the self times of `python -X importtime` per package group."""
    metric_of = {group: metric for metric, group in IMPORT_GROUPS.items()}
    sums = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, module = (field.strip() for field in line[len("import time:"):].split("|"))
        metric = metric_of.get(module.split(".")[0])
        if metric is not None:
            sums[metric] += float(self_us) * 1e-6
    return sums


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled_setup(child: dict) -> float:
    return child["setup_s"] * 2.0 * REFERENCE_KERNEL_S / sum(child["setup_kernels"])


def _scaled_times(run: dict) -> list[float]:
    """Request times at the reference speed, from the kernels around each."""
    k = run["kernels"]
    return [t * 2.0 * REFERENCE_KERNEL_S / (k[i] + k[i + 1]) for i, t in enumerate(run["times"])]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    children = [_child(["import"])[0] for _ in range(SETUP_SAMPLES)]
    run, _ = _child(["run", workload, str(seed), str(seconds)])
    children.append(run)
    setups = [_scaled_setup(child) for child in children]
    times, n, ok = run["times"], len(run["times"]), len(run["times"]) - run["failed"]
    scaled = _scaled_times(run)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "req_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
        "req_p90_ms": _metric(1e3 * _percentile(scaled, 90), "ms"),
        "req_per_s": _metric(ok / sum(scaled), "1/s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    raw_setups = ", ".join(f"{child['setup_s']:.4f}" for child in children)
    notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} (raw {raw_setups})",
             f"{n} requests in {run['busy_s']:.2f} s of request time; "
             f"peak RSS read after {run['rss_after']} requests",
             f"calibration kernel median {1e3 * statistics.median(run['kernels']):.4f} ms; "
             f"raw p50 {1e3 * statistics.median(times):.4f} ms, "
             f"p90 {1e3 * _percentile(times, 90):.4f} ms, {ok / run['busy_s']:.4f} requests/s"]
    return metrics, notes, run


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], dict]:
    imports = [_import_self_times(_child(["import"], importtime=True)[1])
               for _ in range(IMPORTTIME_SAMPLES)]
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.jsonl"
    traced, _ = _child(["run", workload, str(seed), str(seconds), "--trace", str(trace_path)])
    n = len(traced["times"])
    # the overhead compares the first half of the traced run with an
    # untraced replay of the same requests in a fresh interpreter, both at
    # the reference speed
    half = (n + 1) // 2
    plain, _ = _child(["run", workload, str(seed), str(half), "--count"])
    overhead = sum(_scaled_times(traced)[:half]) / sum(_scaled_times(plain)) - 1.0
    tr = traced["trace"]
    totals, counters = tr["totals"], tr["counters"]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / n

    def incl(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / n

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2] / n

    def counter(name):
        return counters.get(name, 0.0) / n

    looked_up = tr["cache_hits"] + tr["cache_misses"]
    values = {name: (statistics.median(d[name] for d in imports), "s") for name in IMPORT_GROUPS}
    values.update({
        "cli.emit_s": (self_s("cli.emit"), "s/req"),
        "cli.out_bytes": (traced["out_bytes"] / n, "B/req"),
        "norms.table_calls": (calls("norms.table"), "1/req"),
        "norms.table_s": (incl("norms.table"), "s/req"),
        "exprdsl.parse_calls": (calls("exprdsl.parse"), "1/req"),
        "exprdsl.parse_s": (incl("exprdsl.parse"), "s/req"),
        "exprdsl.eval_scalar_calls": (calls("exprdsl.eval_scalar"), "1/req"),
        "exprdsl.eval_scalar_s": (incl("exprdsl.eval_scalar"), "s/req"),
        "exprdsl.eval_array_calls": (calls("exprdsl.eval_array"), "1/req"),
        "exprdsl.eval_array_points": (counter("exprdsl.eval_array_points"), "1/req"),
        "exprdsl.eval_array_s": (incl("exprdsl.eval_array"), "s/req"),
        "bifurcation.solve_calls": (calls("bifurcation.solve"), "1/req"),
        "bifurcation.scan_self_s": (self_s("bifurcation.solve"), "s/req"),
        "bifurcation.g_array_s": (incl("bifurcation.g_array"), "s/req"),
        "bifurcation.g_scalar_calls": (calls("bifurcation.g_scalar"), "1/req"),
        "bifurcation.positivity_s": (incl("bifurcation.positivity"), "s/req"),
        "bifurcation.brent_calls": (calls("bifurcation.brent"), "1/req"),
        "bifurcation.brent_s": (incl("bifurcation.brent"), "s/req"),
        "bifurcation.golden_calls": (calls("bifurcation.golden"), "1/req"),
        "bifurcation.golden_s": (incl("bifurcation.golden"), "s/req"),
        "bifurcation.threshold_calls": (calls("bifurcation.threshold"), "1/req"),
        "bifurcation.threshold_solves": (counter("bifurcation.threshold_solves"), "1/req"),
        "bifurcation.threshold_s": (incl("bifurcation.threshold"), "s/req"),
        "bifurcation.solves_per_lambda": (
            calls("bifurcation.solve") * n / traced["lambdas"] if traced["lambdas"] else 0.0, "ratio"),
        "bifurcation.roots_found": (counter("bifurcation.roots_found"), "1/req"),
        "bifurcation.reconstruct_s": (incl("bifurcation.reconstruct"), "s/req"),
        "timemap.inverse_calls": (calls("timemap.inverse"), "1/req"),
        "timemap.inverse_s": (incl("timemap.inverse"), "s/req"),
        "timemap.forward_calls": (calls("timemap.forward"), "1/req"),
        "timemap.quad_calls": (calls("timemap.quad"), "1/req"),
        "timemap.eval_points": (calls("timemap.eval"), "1/req"),
        "timemap.cache_hit_ratio": (tr["cache_hits"] / looked_up if looked_up else 0.0, "ratio"),
        "expcase.solve_calls": (calls("expcase.solve"), "1/req"),
        "expcase.solve_s": (incl("expcase.solve"), "s/req"),
        "scenarios.check_s": (incl("scenarios.check"), "s/req"),
        "oracles.calls": (counter("oracles.calls"), "1/req"),
        "oracles.self_s": (self_s("oracles"), "s/req"),
        "verify.profile_checks_s": (incl("verify.profile_checks"), "s/req"),
        "verify.norm_checks_s": (incl("verify.norm_checks"), "s/req"),
        "verify.scenario_checks_s": (incl("verify.scenario_checks"), "s/req"),
        "verify.exp_checks_s": (incl("verify.exp_checks"), "s/req"),
        "verify.failed_checks": (traced["verify_failed_checks"] / n, "1/req"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.absent_targets": (float(len(tr["absent"]) + (not tr["cache_present"])), "count"),
    })
    metrics = {name: _metric(value, unit) for name, (value, unit) in values.items()}

    busy = traced["busy_s"]
    by_layer: dict[str, float] = {}
    for name, (_, _, own) in totals.items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + own
    notes = [f"{n} traced requests in {busy:.2f} s (untraced replay of {half}: "
             f"{plain['busy_s']:.2f} s); "
             f"spans written to {trace_path.relative_to(ROOT)}",
             "self time by layer (share of traced request time): "
             + ", ".join(f"{layer} {t / busy:.1%}" for layer, t in
                         sorted(by_layer.items(), key=lambda kv: -kv[1]) if t > 0.0)
             + f", outside spans {1.0 - sum(by_layer.values()) / busy:.1%}"]
    absent = tr["absent"] + ([] if tr["cache_present"] else ["blowup.timemap._y_at"])
    if absent:
        notes.append("absent trace targets (their metrics read 0): " + ", ".join(absent))
    return metrics, notes, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blowup" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'blowup'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, run = measure(args.workload, args.seed, args.seconds)
        probe, _ = _child(["probe"] + (["--defects"] if args.trace else []))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(run["times"]), run["failed"]
    golden = probe["golden_differ"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for failure in run["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"  check.golden_diff = {len(golden)} of {probe['golden_total']} golden outputs differ"
          + (f": {', '.join(golden)}" if golden else ""))
    if args.trace:
        defects = probe["defects"]
        metrics["check.golden_diff"] = _metric(float(len(golden)), "count")
        metrics["check.defects_open"] = _metric(float(sum(d["open"] for d in defects)), "count")
        print(f"  check.defects_open = {int(metrics['check.defects_open']['value'])} of {len(defects)}")
        for d in defects:
            print(f"    [{'open' if d['open'] else 'fixed'}] blowup {d['argv']} -> {d['outcome']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
