"""tools/ab_pairs.py: alternating benchmark runs in two trees, on stub benchmarks."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import ab_pairs  # noqa: E402

# a stand-in for perfbench/run.py: it logs its tree, its arguments and whether
# it found bytecode an earlier run left, leaves some itself, and reports the
# next of its tree's values
_STUB = '''
import json, pathlib, sys
tree = pathlib.Path(__file__).resolve().parents[1]
cache = tree / "src" / "pkg" / "__pycache__"
log = tree.parent / "order.txt"
with open(log, "a") as fh:
    fh.write(f"{tree.name} {cache.exists()} {' '.join(sys.argv[1:])}\\n")
runs = [line for line in log.read_text().splitlines() if line.startswith(tree.name)]
cache.mkdir(parents=True, exist_ok=True)
(cache / "m.pyc").write_bytes(b"")
rate, p50 = VALUES[len(runs) - 1]
print("workload stub")
print(json.dumps({"correct": CORRECT, "attempted": 10, "failed": 0,
                  "metrics": {"req_per_s": {"value": rate, "unit": "1/s"},
                              "req_p50_ms": {"value": p50, "unit": "ms"}}}))
'''


def _stub_tree(root: Path, name: str, values, correct=True) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        _STUB.replace("VALUES", repr(values)).replace("CORRECT", repr(correct)))
    (tree / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    return tree


def test_alternates_clears_bytecode_and_summarises(tmp_path, capsys):
    old = _stub_tree(tmp_path, "old", [(10.0, 5.0), (11.0, 5.0), (12.0, 5.0)])
    new = _stub_tree(tmp_path, "new", [(13.0, 4.0), (12.0, 6.0), (14.0, 4.0)])
    code = ab_pairs.main([str(old), str(new), "--workload", "sweep", "--seed", "7",
                          "--seconds", "3", "--pairs", "3"])
    assert code == 0
    log = (tmp_path / "order.txt").read_text().splitlines()
    assert [line.split()[0] for line in log] == ["old", "new", "new", "old", "old", "new"]
    assert all(line.split()[1] == "False" for line in log)
    assert log[0].split()[2:] == ["--workload", "sweep", "--seed", "7", "--seconds", "3.0",
                                  "--trace", "0"]
    out = capsys.readouterr().out
    assert ("req_per_s (1/s): old 11 [10.5, 11.5]  new 13 [12.5, 13.5]  change +18.2%  "
            "wins 3/3  medians apart by more than old IQR: yes") in out
    assert ("req_p50_ms (ms): old 5 [5, 5]  new 4 [4, 5]  change -20.0%  "
            "wins 2/3  medians apart by more than old IQR: yes") in out


def test_incorrect_run_fails(tmp_path, capsys):
    old = _stub_tree(tmp_path, "old", [(10.0, 5.0)])
    new = _stub_tree(tmp_path, "new", [(10.0, 5.0)], correct=False)
    assert ab_pairs.main([str(old), str(new), "--workload", "roots", "--seed", "1",
                          "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "incorrect runs: new pair 1" in out
    assert "wins 0/1  medians apart by more than old IQR: no" in out


def test_directions_come_from_the_benchmark_declaration():
    better = ab_pairs.directions()
    assert better["req_per_s"] == "higher" and better["req_p90_ms"] == "lower"
    rows = ab_pairs.summarise(
        [{"metrics": {"x": {"value": 2.0, "unit": "u"}}}],
        [{"metrics": {"x": {"value": 1.0, "unit": "u"}}}], {"x": "higher"})
    assert rows[0]["wins"] == 0 and rows[0]["change"] == -0.5
    assert json.loads((ROOT / "BENCHMARK.json").read_text())["command"][-1] == "perfbench/run.py"


def test_bounds_come_from_the_benchmark_declaration():
    bound = ab_pairs.bounds()
    assert bound["req_per_s"] == 0.2 and bound["peak_rss_mb"] == 0.05
    assert "check.golden_diff" not in bound  # per-layer metrics have no bound


def test_reports_metrics_worse_than_their_bound(tmp_path, capsys):
    # rate 10 -> 7.5 is 25 % worse (bound 20 %), p50 5 -> 5.5 is 10 % worse
    old = _stub_tree(tmp_path, "old", [(10.0, 5.0), (10.0, 5.0)])
    new = _stub_tree(tmp_path, "new", [(7.5, 5.5), (7.5, 5.5)])
    assert ab_pairs.main([str(old), str(new), "--workload", "profile", "--seed", "1",
                          "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rate = next(line for line in lines if "req_per_s" in line)
    p50 = next(line for line in lines if "req_p50_ms" in line)
    assert rate.endswith("worse than bound 20%: yes")
    assert p50.endswith("worse than bound 20%: no")
    assert lines[-1] == "worse than their bound: req_per_s"


def test_bound_follows_the_metric_direction():
    def runs(*values):
        return [{"metrics": {name: {"value": v, "unit": "u"} for name in ("hi", "lo")}}
                for v in values]

    better = {"hi": "higher", "lo": "lower"}
    rows = {row["metric"]: row for row in ab_pairs.summarise(
        runs(10.0), runs(13.0), better, {"hi": 0.2, "lo": 0.2})}
    assert not rows["hi"]["over"] and rows["lo"]["over"]  # +30 %
    rows = {row["metric"]: row for row in ab_pairs.summarise(
        runs(10.0), runs(8.0), better, {"hi": 0.2, "lo": 0.2})}
    assert not rows["hi"]["over"] and not rows["lo"]["over"]  # -20 % is at the bound
    rows = ab_pairs.summarise(runs(10.0), runs(1.0), better)
    assert all(row["bound"] is None and not row["over"] for row in rows)
