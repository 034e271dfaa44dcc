"""tools/outputs_diff.py: the request-by-request output comparison of two trees."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import outputs_diff  # noqa: E402


def _outcome(stdout="a\nb\n", stderr="", code=0, exception=None):
    return {"exit": code, "exception": exception, "stdout": stdout, "stderr": stderr}


def test_first_difference_names_request_field_and_line():
    same = [_outcome(), _outcome()]
    assert outputs_diff.first_difference(same, list(same)) is None
    changed = [_outcome(), _outcome(stdout="a\nc\n")]
    assert outputs_diff.first_difference(same, changed) == (1, "stdout line 2: 'b' != 'c'")
    shorter = [_outcome(stdout="a\n")]
    assert outputs_diff.first_difference(same[:1], shorter) == (0, "stdout line 2: 'b' != '<end>'")
    failed = [_outcome(code=2, stderr="error: x\n")]
    assert outputs_diff.first_difference(same[:1], failed) == (0, "exit: 0 != 2")
    assert outputs_diff.first_difference(same, same[:1]) == (1, "request count 2 != 1")


def test_run_requests_records_exit_output_and_exceptions():
    out = outputs_diff.run_requests([["norms", "--p", "3", "--q1", "0.5", "--q2", "0.7",
                                      "--r1", "0.2", "--r2", "0.3"],
                                     ["norms", "--p", "0.5"], ["nosuchcommand"]])
    assert out[0]["exit"] == 0 and out[0]["stdout"].startswith("name,value\n")
    assert out[1]["exit"] == 2 and out[1]["stderr"].startswith("error: ")
    assert out[2]["exit"] == 2 and out[2]["exception"] is None


def test_tree_against_itself_agrees(child_env):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs_diff.py"),
                           str(ROOT), str(ROOT), "--workload", "roots", "--seed", "1", "-n", "2"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "roots seed 1: 2 requests identical (exit codes 0)\n"


def test_argvs_file_against_itself_agrees(tmp_path, child_env):
    argvs = [["norms", "--p", "3", "--q1", "0.5", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"],
             ["norms", "--p", "0.5"]]
    path = tmp_path / "argvs.json"
    path.write_text(json.dumps(argvs))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs_diff.py"),
                           str(ROOT), str(ROOT), "--argvs", str(path)],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{path}: 2 requests identical (exit codes 0, 2)\n"


def test_argvs_file_must_hold_lists_of_strings(tmp_path):
    path = tmp_path / "argvs.json"
    path.write_text(json.dumps([["norms", 3]]))
    with pytest.raises(SystemExit, match="must hold a JSON list of lists of strings"):
        outputs_diff.file_argvs(path)
    assert outputs_diff.file_argvs(ROOT / "tools" / "corner_argvs.json")[0][0] == "eval"


def test_largest_move_compares_numbers_token_by_token():
    assert outputs_diff.largest_move("u,1.5,-2e-3\n", "u,1.5,-2e-3\n") == 0.0
    assert outputs_diff.largest_move("x 2.0 y 4.0", "x 2.0 y 5.0") == pytest.approx(0.2)
    assert outputs_diff.largest_move("inf nan 1", "inf nan 1") == 0.0
    assert outputs_diff.largest_move("1.0", "inf") == float("inf")
    assert outputs_diff.largest_move("1 2", "1 2 3") is None


def test_all_differences_lists_every_request_with_exit_change_and_move():
    old = [_outcome(stdout="v 1.0\n"), _outcome(), _outcome(stdout="FAIL 1e-5\n", code=1)]
    new = [_outcome(stdout="v 1.1\n"), _outcome(), _outcome(stdout="PASS 1e-6\n", code=0)]
    assert outputs_diff.all_differences(old, new) == [
        (0, "stdout differ; exit 0 -> 0; largest relative move 9.091e-02"),
        (2, "exit, stdout differ; exit 1 -> 0; largest relative move 9.000e-01"),
    ]
    assert outputs_diff.all_differences(old, list(old)) == []


def test_all_flag_against_itself_agrees(tmp_path, child_env):
    argvs = [["norms", "--p", "3", "--q1", "0.5", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"],
             ["norms", "--p", "0.5"]]
    path = tmp_path / "argvs.json"
    path.write_text(json.dumps(argvs))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "outputs_diff.py"),
                           str(ROOT), str(ROOT), "--argvs", str(path), "--all"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{path}: 0 of 2 requests differ\n"
