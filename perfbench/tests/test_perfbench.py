"""Self-tests of the benchmark: seeded streams, the answer checker and the
traced run.  Run with ``python -m pytest perfbench/tests`` from the root."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import probes
import workloads
from blowup.cli import _build_parser, main
from blowup.norms import validate_exponents

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _take(workload, seed, n):
    return list(itertools.islice(workloads.stream(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert _take(workload, 7, 24) == _take(workload, 7, 24)
    assert _take(workload, 7, 24) != _take(workload, 8, 24)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_admissible(workload):
    seen_p = []
    for argv in _take(workload, 3, 48):
        _build_parser().parse_args(argv)  # exits on an unknown flag or bad value
        fl = checks._flags(argv)
        if argv[0] == "exp":
            assert all(0.0 < float(fl[r][0]) < 1.0 for r in ("r1", "r2"))
            continue
        p = float(fl["ps" if argv[0] == "verify" else "p"][0])
        assert 2.0 <= p <= 8.0
        seen_p.append(p)
        if argv[0] != "verify":
            ex = [float(fl[k][0]) for k in ("q1", "q2", "r1", "r2")]
            assert validate_exponents(p, *ex) == []
            bounds = [(p - 1) / 2, (p - 1) / 2, (p - 1) / (p + 1), (p - 1) / (p + 1)]
            assert all(0.2 <= e / b <= 0.8 for e, b in zip(ex, bounds))
    assert len(set(seen_p)) == len(seen_p), "every request must use a fresh p"


def _first(workload, want):
    return next(a for a in workloads.stream(workload, 5) if want(a))


def _answer(argv):
    code, out, _, exc = probes.run_cli(main, argv)
    assert exc is None and checks.check(argv, code, out) is None
    return json.loads(out)


def test_checker_rejects_perturbed_root():
    argv = _first("roots", lambda a: "json" in a and "s^p*((t-a)^2+b)" in a)
    doc = _answer(argv)
    doc["results"]["roots"][-1]["s"] *= 1.0 + 1e-6
    assert "root" in checks.check(argv, 0, json.dumps(doc))


def test_checker_rejects_perturbed_threshold():
    argv = _first("sweep", lambda a: "json" in a and "cor4" in a)
    doc = _answer(argv)
    doc["results"]["thresholds"][0]["lambda"] *= 1.0 + 1e-5
    assert "threshold" in checks.check(argv, 0, json.dumps(doc))


def test_checker_rejects_perturbed_profile_value():
    argv = _first("profile", lambda a: a[0] == "eval" and "json" in a)
    doc = _answer(argv)
    doc["results"]["sample"][0]["u"] *= 1.0 + 1e-5
    assert "profile" in checks.check(argv, 0, json.dumps(doc))


def test_checker_rejects_inconsistent_verify_report():
    argv = ["verify", "--ps", "3"]
    code, out, _, _ = probes.run_cli(main, argv)
    assert checks.check(argv, code, out) is None
    assert "status" in checks.check(argv, code, out.replace("PASS", "FAIL", 1))


def test_tracer_reports_deleted_targets_as_absent():
    # in a child interpreter: patching is process-wide
    script = (
        "import blowup.cli, blowup.bifurcation as b, blowup.timemap as t, tracer\n"
        "del b._locate_threshold, t._y_at\n"
        "tr = tracer.Tracer(); tr.install()\n"
        "assert tr.absent == ['blowup.bifurcation._locate_threshold'], tr.absent\n"
        "assert blowup.cli.solve_single is b.solve_single is not None\n"
        "assert b.solve_single.__wrapped__ is not None and b.eval_U.__wrapped__ is not None\n"
    )
    env = {"PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}", "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.001", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    result = _bench(workload, 1)
    assert result["correct"] and result["attempted"] == workloads.BLOCK  # one whole block
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.absent_targets"] == 0
    assert metrics["check.golden_diff"] == 0
    assert (metrics["oracles.calls"] > 0) == (workload == "verify")


def test_untraced_run_reports_end_to_end_metrics():
    result = _bench("roots", 0)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
