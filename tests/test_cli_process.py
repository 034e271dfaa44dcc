"""``cli.main`` called repeatedly in one process behaves like a fresh process per call."""

import contextlib
import io
import subprocess
import sys

import pytest

from blowup import bifurcation, cli

BASE = ["--p", "3", "--q1", "0.5", "--q2", "0.7", "--r1", "0.2", "--r2", "0.3"]

ARGVS = [
    ["roots", *BASE, "--A", "1+s", "--B", "2+t", "--lambda", "3"],
    ["roots", *BASE, "--lambda", "3", "--bogus"],  # argparse rejection: SystemExit(2)
    ["sweep", "-h"],
    ["roots", *BASE, "--A", "1", "--B", "t-5", "--lambda", "1"],  # one-line exit 2
    ["roots", "--scenario", "cor2", *BASE, "--lambda", "-1e5"],
    ["roots", "--scenario", "cor2", *BASE, "--lambda", "50", "--format", "json"],
]


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_across_calls(fresh_parser, monkeypatch):
    calls = []
    build = cli._build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    for argv in ARGVS:
        _in_process(argv)
    assert len(calls) == 1


def test_import_leaves_parser_unbuilt(child_env):
    script = "import blowup.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_repeated_main_matches_one_interpreter_per_argv(fresh_parser, child_env, monkeypatch):
    # argparse wraps help text to the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**child_env, "COLUMNS": "80"}
    in_process = [_in_process(argv) for argv in ARGVS]
    for argv, got in zip(ARGVS, in_process):
        proc = subprocess.run([sys.executable, "-m", "blowup", *argv], capture_output=True,
                              text=True, env=env)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 2, 0]


def test_norm_table_built_once_per_custom_roots_request(monkeypatch, capsys):
    calls = []
    make = cli.make_norm_table
    assert bifurcation.make_norm_table is make

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(cli, "make_norm_table", counted)
    monkeypatch.setattr(bifurcation, "make_norm_table", counted)
    assert cli.main(["roots", *BASE, "--A", "1+s", "--B", "2+t", "--lambda", "3"]) == 0
    capsys.readouterr()
    assert calls == [(3.0, 0.5, 0.7, 0.2, 0.3)]
