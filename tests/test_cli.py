"""CLI surface: config handling, emission formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from blowup.cli import main

BASE = ["--p", "3", "--q1", "0.5", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _csv_comments(text):
    return [line[2:] for line in text.strip().splitlines() if line.startswith("# ")]


def test_norms_csv_and_json_agree(capsys):
    code, out_csv, _ = run_cli(["norms", *BASE], capsys)
    assert code == 0
    header, rows = _csv_rows(out_csv)
    assert header == ["name", "value"]
    csv_vals = {name: float(value) for name, value in rows}
    code, out_json, _ = run_cli(["norms", *BASE, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out_json)
    assert set(doc) == {"config_echo", "results", "flags"}
    assert set(doc["results"]) == {"mu_p", "L_p", "n_q1", "n_q2", "m_r1", "m_r2"}
    for key, value in doc["results"].items():
        assert csv_vals[key] == value


def test_norms_oracle_flag(capsys):
    code, out, _ = run_cli(["norms", *BASE, "--oracle"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["name", "value", "oracle", "rel_dev"]
    for row in rows:
        assert float(row[3]) <= 1e-7


def test_norms_exponent_violation_exits_2(capsys):
    bad = ["--p", "3", "--q1", "1.0", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"]
    for argv in (["norms", *bad], ["roots", *bad, "--scenario", "cor1", "--lambda", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: q1 = 1.0 violates q1 < (p-1)/2 = 1.0\n"


def test_roots_trivial_coefficients(capsys):
    code, out, _ = run_cli(["roots", *BASE, "--A", "1", "--B", "1", "--lambda", "1"], capsys)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["s", "s1", "s2", "t1", "t2", "kind", "residual"]
    assert len(rows) == 1
    # g(s) = s^-2 and target n_q1^-2: the root is exactly the q1 norm
    from blowup.norms import norm_U
    assert float(rows[0][0]) == pytest.approx(norm_U(3.0, 0.5), rel=1e-12)
    assert "overflow: false" in _csv_comments(out)[0]


def test_roots_scenario_counts(capsys):
    # cor2 mid band: two rows; cor4 below threshold: none, still exit 0
    from blowup.norms import make_norm_table
    from blowup.scenarios import analytic_thresholds, get_scenario

    table = make_norm_table(3.0, 0.5, 0.7, 0.2, 0.3)
    t1, t2 = analytic_thresholds(get_scenario("cor2"), table)
    code, out, _ = run_cli(["roots", *BASE, "--scenario", "cor2",
                            "--lambda", repr(math.sqrt(t1 * t2))], capsys)
    assert code == 0
    assert len(_csv_rows(out)[1]) == 2
    th4 = analytic_thresholds(get_scenario("cor4"), table)[0]
    code, out, _ = run_cli(["roots", *BASE, "--scenario", "cor4",
                            "--lambda", repr(0.5 * th4)], capsys)
    assert code == 0
    assert len(_csv_rows(out)[1]) == 0


def test_roots_csv_json_same_numbers(capsys):
    argv = ["roots", *BASE, "--scenario", "cor4", "--lambda", "1500"]
    code, out_csv, _ = run_cli(argv, capsys)
    assert code == 0
    _, rows = _csv_rows(out_csv)
    code, out_json, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out_json)
    assert len(rows) == len(doc["results"]["roots"]) == 2
    for row, root in zip(rows, doc["results"]["roots"]):
        for text, key in zip(row, ("s", "s1", "s2", "t1", "t2", "kind", "residual")):
            if key == "kind":
                assert text == root[key]
            else:
                assert float(text) == root[key]


def test_roots_rejects_scenario_plus_custom(capsys):
    code, _, err = run_cli(["roots", *BASE, "--scenario", "cor1", "--A", "1",
                            "--lambda", "1"], capsys)
    assert code == 2
    assert "not both" in err


def test_roots_positivity_scan_on_custom_coefficients(capsys):
    # overflow of exp(s) at the window top is tolerated (positive overflow)
    code, _, _ = run_cli(["roots", *BASE, "--A", "exp(s)", "--B", "1",
                          "--lambda", "1e4"], capsys)
    assert code == 0
    # a genuinely sign-changing coefficient is rejected up front
    code, _, err = run_cli(["roots", *BASE, "--A", "1", "--B", "t-5",
                            "--lambda", "1"], capsys)
    assert code == 2
    assert "positivity" in err


def test_constant_nonpositive_coefficient_exits_2(capsys):
    code, out, err = run_cli(["roots", *BASE, "--A", "-1", "--B", "s+t",
                              "--lambda", "2000"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: coefficient A at (s=")
    assert err.rstrip().endswith("positivity scan found value -1.0")


def test_overflowing_literal_exits_2(capsys):
    code, out, err = run_cli(["exp", "--r1", "0.3", "--r2", "0.3", "--A", "sin(1e999)",
                              "--B", "1", "--lambda", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: number out of range '1e999' at offset 4\n"


def test_sweep_log_spacing_exact(capsys):
    code, out, _ = run_cli(["sweep", *BASE, "--A", "1", "--B", "1",
                            "--lambda-min", "0.01", "--lambda-max", "100",
                            "--lambda-n", "5", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    lams = [branch["lambda"] for branch in doc["results"]["branches"]]
    assert lams == [1e-2, 1e-1, 1.0, 1e1, 1e2]


def test_sweep_thresholds_block(capsys):
    from blowup.norms import make_norm_table
    from blowup.scenarios import analytic_thresholds, get_scenario

    table = make_norm_table(3.0, 0.5, 0.7, 0.2, 0.3)
    th = analytic_thresholds(get_scenario("cor4"), table)[0]
    code, out, _ = run_cli(["sweep", *BASE, "--scenario", "cor4",
                            "--lambda-min", repr(0.4 * th), "--lambda-max", repr(4.0 * th),
                            "--lambda-n", "5"], capsys)
    assert code == 0
    comments = _csv_comments(out)
    th_lines = [c for c in comments if c.startswith("threshold:")]
    assert len(th_lines) == 1
    value = float(th_lines[0].split(":")[1].split(",")[0])
    assert value == pytest.approx(th, rel=1e-7)


def test_eval_symmetry_and_index_error(capsys):
    code, out, _ = run_cli(["eval", *BASE, "--A", "1", "--B", "1", "--lambda", "2",
                            "--root-index", "0", "--grid-n", "21", "--delta", "0.01"], capsys)
    assert code == 0
    _, rows = _csv_rows(out)
    us = [float(r[1]) for r in rows]
    dus = [float(r[2]) for r in rows]
    assert us == us[::-1]
    assert dus == [-v for v in dus[::-1]]
    code, _, err = run_cli(["eval", *BASE, "--A", "1", "--B", "1", "--lambda", "2",
                            "--root-index", "5"], capsys)
    assert code == 2
    assert "available roots" in err


def test_exp_subcommand(capsys):
    code, out, _ = run_cli(["exp", "--r1", "0.3", "--r2", "0.3", "--A", "1+t", "--B", "1+t",
                            "--lambda", "2", "--grid-n", "7"], capsys)
    assert code == 0
    comments = _csv_comments(out)
    shift = [c for c in comments if c.startswith("shift:")][0]
    assert float(shift.split(":")[1]) == 0.0
    header, rows = _csv_rows(out)
    assert header == ["x", "u", "u_prime"]
    assert len(rows) == 7


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"p": 3.0, "q1": 0.5, "q2": 0.7, "r1": 0.2, "r2": 0.3,
           "A": "1", "B": "1", "lambda": 1.0, "format": "json"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["roots", "--config", str(path), "--lambda", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["lambda"] == 4.0  # flag wins over the file
    assert doc["config_echo"]["A"] == "1"


def test_output_file_deterministic_across_threads(tmp_path, monkeypatch, capsys):
    argv = ["sweep", *BASE, "--scenario", "cor4",
            "--lambda-min", "100", "--lambda-max", "2000", "--lambda-n", "4"]
    monkeypatch.setenv("BLOWUP_THREADS", "1")
    assert main([*argv, "--output", str(tmp_path / "a.csv")]) == 0
    monkeypatch.setenv("BLOWUP_THREADS", "4")
    assert main([*argv, "--output", str(tmp_path / "b.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_console_entry_point(child_env):
    proc = subprocess.run([sys.executable, "-m", "blowup", "norms", *BASE],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,value")


def test_eval_exp_problem_type(tmp_path, capsys):
    cfg = {"problem_type": "exp", "r1": 0.4, "r2": 0.6, "A": "1+t", "B": "2+t",
           "lambda": 2.0, "grid_n": 5}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["eval", "--config", str(path)], capsys)
    assert code == 0
    assert any(c.startswith("shift:") for c in _csv_comments(out))


def test_verify_subcommand_pass_and_fault_injection(capsys):
    code, out, _ = run_cli(["verify", "--ps", "3"], capsys)
    assert code == 0
    assert "checks passed" in out and "FAIL" not in out
    code, out, _ = run_cli(["verify", "--ps", "3", "--perturb-norms", "1e-3"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_report_goes_to_output_file(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "--ps", "3"], capsys)
    path = tmp_path / "report.txt"
    assert run_cli(["verify", "--ps", "3", "--output", str(path)], capsys) == (code, "", "")
    assert path.read_text(encoding="utf-8") == out


def test_verify_rejects_json_format(capsys):
    code, out, err = run_cli(["verify", "--ps", "3", "--format", "json"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: verify writes a text report; --format json is not supported\n"


def test_verify_asymptotics_mode(capsys):
    code, out, _ = run_cli(["verify", "--ps", "3", "--scenario", "cor4",
                            "--asymptotics"], capsys)
    assert code == 0
    assert "s2 ratio" in out


def _one_line_error(err, name):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: numerical failure") and name in lines[0]


def test_norms_overflow_exits_2(capsys):
    # mu_p = (...)^(2/(p-1)) overflows a double near p = 1
    code, out, err = run_cli(["norms", "--p", "1.01", "--q1", "0.0025", "--q2", "0.0035",
                              "--r1", "0.002", "--r2", "0.003"], capsys)
    assert code == 2
    assert out == ""
    _one_line_error(err, "OverflowError")


def test_verify_unbracketed_inverse_exits_2(capsys):
    # exit 1 is reserved for failed checks; a numerical failure is exit 2
    # (at p = 1.02 the closed-form norm in norms.norm_U overflows)
    code, out, err = run_cli(["verify", "--ps", "1.02"], capsys)
    assert code == 2
    assert out == ""
    _one_line_error(err, "OverflowError")


@pytest.mark.parametrize("argv, names", [
    (["norms", "--p", "1.01", "--q1", "0.001", "--q2", "0.002", "--r1", "0.001", "--r2", "0.002"],
     ["profile minimum mu_p", "p = 1.01"]),
    (["verify", "--ps", "1.02"], ["norm ||U||_q", "p = 1.02", "q = 0.003"]),
])
def test_overflow_errors_name_the_layer_and_input(capsys, argv, names):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    _one_line_error(err, "OverflowError")
    assert all(name in err for name in names), err


OVERFLOW_BOTH = ["roots", *BASE, "--A", "exp(s)", "--B", "exp(t)", "--lambda", "1"]


def test_roots_with_both_coefficients_overflowing_exits_2(capsys):
    # A = e^s and B = e^t are both +inf from s ~ 712 on: g = inf/inf there
    code, out, err = run_cli(OVERFLOW_BOTH, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: coefficient A at (s=712.64")
    assert "g is undetermined; the window must end below s=712.64" in err


def test_roots_with_both_coefficients_overflowing_narrow_window(capsys):
    code, out, _ = run_cli([*OVERFLOW_BOTH, "--window", "1e-6", "500"], capsys)
    assert code == 0
    _, rows = _csv_rows(out)
    assert [row[5] for row in rows] == ["transversal"]


def test_import_loads_no_scipy(child_env):
    # numpy is the only runtime dependency; a fresh import of the CLI must
    # load neither scipy nor mpmath
    script = ("import sys, blowup.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, message", [
    (["exp", "--r1", "0.3", "--r2", "0.3", "--A", "2+sin(a)", "--B", "1",
      "--param", "a=inf", "--lambda", "2"],
     "error: --param 'a=inf': value of 'a' must be finite"),
    (["roots", *BASE, "--A", "1", "--B", "1", "--lambda", "2", "--window", "1e-3", "inf"],
     "error: window must end at a finite s, got (0.001, inf)"),
    (["sweep", "--scenario", "cor1", *BASE, "--lambda-min", "1", "--lambda-max", "inf",
      "--lambda-n", "5"],
     "error: lambda range needs finite bounds, got lambda_min=1.0, lambda_max=inf"),
])
def test_non_finite_inputs_exit_2_with_one_line(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", message + "\n")
    assert not caught


def test_non_finite_config_parameter_exits_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text('{"params": {"a": NaN}}')
    code, out, err = run_cli(["roots", "--config", str(path), "--scenario", "cor2", *BASE,
                              "--lambda", "2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: parameter 'a' must be a finite number, got nan\n"


@pytest.mark.parametrize("argv, message", [
    (["roots", *BASE, "--A", "20-s", "--B", "1+t", "--lambda", "1"],
     "error: coefficient A at (s=42.60829941093746, t=2.1699568359836225e-05): "
     "positivity scan found value -22.608299410937462"),
    (["roots", *BASE, "--A", "1+s", "--B", "3-t", "--lambda", "1"],
     "error: coefficient B at (s=2.336816635696733e-05, t=3.628785131217987): "
     "positivity scan found value -0.6287851312179868"),
    # A is scanned before B, so a bad A is named even where B fails first in the grid
    (["roots", *BASE, "--A", "20-s", "--B", "t-1e-3", "--lambda", "1"],
     "error: coefficient A at (s=42.60829941093746, t=2.1699568359836225e-05): "
     "positivity scan found value -22.608299410937462"),
    # B divides by zero at p = 3: NaN, not the +inf of an overflow
    (["roots", *BASE, "--A", "s^(p-1)", "--B", "s/(p-3)", "--lambda", "5"],
     "error: coefficient B at (s=2.336816635696733e-05, t=2.1699568359836225e-05): "
     "positivity scan found value nan"),
    (["roots", *BASE, "--A", "s^(p-1)", "--B", "1/(p-3)", "--lambda", "5"],
     "error: coefficient B at (s=2.336816635696733e-05, t=2.1699568359836225e-05): "
     "positivity scan found value nan"),
])
def test_positivity_error_names_coefficient_and_point(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", message + "\n")


@pytest.mark.parametrize("command", [
    ["roots", "--lambda", "2000"],
    ["sweep", "--lambda-min", "100", "--lambda-max", "2000", "--lambda-n", "3"],
])
@pytest.mark.parametrize("scan_n", ["1", "0"])
def test_scan_grid_below_two_points_exits_2(command, scan_n, capsys):
    argv = [command[0], "--scenario", "cor1", *BASE, *command[1:], "--scan-n", scan_n]
    assert run_cli(argv, capsys) == (
        2, "", f"error: the scan grid needs at least 2 points, got {scan_n}\n")
    # two points are enough to find the one cor1 root
    code, out, _ = run_cli(argv[:-1] + ["2"], capsys)
    assert code == 0 and "0.0404591" in out


CONFIG = {"scenario": "cor2", "p": 3, "q1": 0.5, "q2": 0.7, "r1": 0.2, "r2": 0.3,
          "lambda": 50}


@pytest.mark.parametrize("field, value, message", [
    ("p", [3], "config field 'p' must be a number, got [3]"),
    ("q1", "0.5", "config field 'q1' must be a number, got \"0.5\""),
    ("r2", True, "config field 'r2' must be a number, got true"),
    ("lambda", None, "config field 'lambda' must be a number, got null"),
    ("scan_n", None, "config field 'scan_n' must be a number, got null"),
    ("scan_n", 4096.5, "config field 'scan_n' must be an integer, got 4096.5"),
    ("scenario", 2, "config field 'scenario' must be a string, got 2"),
    ("oracle", "yes", "config field 'oracle' must be true or false, got \"yes\""),
    ("window", 5, "config field 'window' must be a list of two numbers, got 5"),
])
def test_config_field_of_wrong_type_exits_2(field, value, message, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, field: value}))
    assert run_cli(["roots", "--config", str(path)], capsys) == (2, "", f"error: {message}\n")


def test_config_whole_float_for_integer_field_still_works(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**CONFIG, "scan_n": 4096.0, "A": None, "oracle": None}))
    code, out, _ = run_cli(["roots", "--config", str(path)], capsys)
    assert code == 0
    assert out == run_cli(["roots", "--scenario", "cor2", "--lambda", "50", *BASE], capsys)[1]


@pytest.mark.parametrize("argv, message", [
    (["roots", "--scenario", "cor1", *BASE, "--lambda", "-1e5"],
     "error: lambda must be positive and finite, got -100000.0"),
    (["roots", "--scenario", "cor1", *BASE, "--lambda", "-inf"],
     "error: lambda must be positive and finite, got -inf"),
    (["roots", "--scenario", "cor1", *BASE, "--lambda", "1", "--window", "-inf", "1"],
     "error: window must satisfy 0 < s_lo < s_hi, got (-inf, 1.0)"),
    (["roots", "--scenario", "cor1", *BASE, "--lambda", "1", "--window", "1e-5", "-2.5E-3"],
     "error: window must satisfy 0 < s_lo < s_hi, got (1e-05, -0.0025)"),
    (["verify", "--ps", "-1e5", "3"], "error: profile exponent must satisfy p > 1, got -100000.0"),
])
def test_negative_flag_values_exit_2_with_one_line(argv, message, capsys):
    assert run_cli(argv, capsys) == (2, "", message + "\n")


@pytest.mark.parametrize("flag", ["--A", "--B"])
def test_expression_value_with_leading_minus(flag, capsys):
    # "--A -s+5" reads as "--A=-s+5", not as an unknown option "-s+5"
    other = "--B" if flag == "--A" else "--A"
    spaced = ["roots", *BASE, flag, "-s+5", other, "s+t", "--lambda", "2000"]
    joined = ["roots", *BASE, f"{flag}=-s+5", other, "s+t", "--lambda", "2000"]
    code, out, err = run_cli(spaced, capsys)
    assert (code, out, err) == run_cli(joined, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: coefficient {flag[2:]} at (s=")
    assert err.count("\n") == 1
