"""No argv from the benchmark's request streams makes the CLI traceback.

Each example takes one request of a ``perfbench/workloads.py`` stream
(imported read-only) and replaces one of its numeric values with nan, inf,
-inf, 0, -1, -1e5 or 1e400, in the plain ``--flag value`` form, also for
the flags that take several values.  ``cli.main`` must return 0, 1 or 2
without raising or warning; exit 2 comes with exactly one stderr line
starting with "error:", and a non-finite value always gets exit 2.
"""

import contextlib
import io
import itertools
import math
import sys
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

VALUES = ("nan", "inf", "-inf", "0", "-1", "-1e5", "1e400")
INT_FLAGS = ("--lambda-n", "--root-index", "--grid-n")
TEXT_FLAGS = ("--A", "--B", "--scenario", "--format")


def _flag(argv, i):
    return next(tok for tok in reversed(argv[:i]) if tok.startswith("--"))


def _numeric_positions(argv):
    out = []
    for i, tok in enumerate(argv[1:], start=1):
        if tok.startswith("--") or _flag(argv, i) in TEXT_FLAGS:
            continue
        if _flag(argv, i) == "--param":
            out.append(i)
            continue
        try:
            float(tok)
        except ValueError:
            continue
        out.append(i)
    return out


def _substitute(argv, i, value):
    """argv with its i-th word's number replaced, or None if the flag takes an integer."""
    out = list(argv)
    flag = _flag(out, i)
    if flag == "--param":
        out[i] = out[i].partition("=")[0] + "=" + value
    elif flag in INT_FLAGS and value not in ("0", "-1"):
        return None
    else:
        out[i] = value
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # an argparse rejection is a test bug, not a pass
            raise AssertionError(f"argparse rejected {argv}: {err.getvalue()}") from exc
    return code, err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(workloads.WORKLOADS), st.integers(0, 3), st.integers(0, 7),
       st.data())
def test_stream_argv_with_one_bad_number_exits_cleanly(workload, seed, index, data):
    argv = next(itertools.islice(workloads.stream(workload, seed), index, None))
    i = data.draw(st.sampled_from(_numeric_positions(argv)), label="position")
    value = data.draw(st.sampled_from(VALUES), label="value")
    mutated = _substitute(argv, i, value)
    if mutated is None:
        return
    code, err, caught = _run(mutated)
    assert not caught, (mutated, caught)
    assert code in (0, 1, 2), (mutated, code)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (mutated, err)
    if not math.isfinite(float(value)):
        assert code == 2, (mutated, code, err)
