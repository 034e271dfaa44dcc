"""Command-line front end: norms | roots | sweep | eval | verify | exp.

Configuration is a single JSON document (``--config``); every field can
also be supplied or overridden by a flag of the same name, so runs are
reproducible from checked-in config files.  Output is deterministic:
floats are printed in shortest round-trip decimal (repr), column order is
fixed, and data files carry no timestamps.  CSV uses a header row plus
'#'-prefixed comment lines for flags and thresholds; JSON mirrors the same
numbers as a {config_echo, results, flags} object.

Exit codes: 0 success (a run with zero roots is a success), 1 verification
failure, 2 usage or configuration error, or a numerical failure (overflow,
division by zero, a root or inverse that cannot be bracketed) reported as
a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import oracles
from .bifurcation import (
    CoefficientError,
    check_positivity,
    default_window,
    make_problem_spec,
    reconstruct,
    solve_single,
    sweep,
)
from .expcase import make_exp_problem_spec, solve_exp
from .norms import ExponentError, make_norm_table
from .exprdsl import ParseError
from .scenarios import get_scenario, scenario_problem
from .timemap import make_profile
from .verify import format_report, run_verification

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ----------------------------------------------------------------------
# configuration


_FLOAT_KEYS = ("p", "q1", "q2", "r1", "r2", "lambda", "lambda_min", "lambda_max",
               "delta", "perturb_norms")
_INT_KEYS = ("lambda_n", "count_cap", "grid_n", "scan_n", "root_index")
_STR_KEYS = ("A", "B", "scenario", "lambda_spacing", "format", "output")
_BOOL_KEYS = ("oracle", "asymptotics")


def _parse_param(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise UsageError(f"--param expects name=value, got {text!r}")
    name, _, value = text.partition("=")
    try:
        number = float(value)
    except ValueError:
        raise UsageError(f"--param {text!r}: value is not a number") from None
    if not math.isfinite(number):
        raise UsageError(f"--param {text!r}: value of {name.strip()!r} must be finite")
    return name.strip(), number


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_types(cfg: dict) -> None:
    """Raise UsageError naming the first field whose value has the wrong type.

    Number fields need a JSON number (true/false and null are none), and
    integer fields a whole one (41 or 41.0).  Text and switch fields may
    be null, which leaves them unset.  window needs two numbers and ps a
    list of numbers.
    """
    def wrong(key, kind):
        return UsageError(f"config field {key!r} must be {kind}, got {json.dumps(cfg[key])}")

    for key in _FLOAT_KEYS + _INT_KEYS:
        if key in cfg and not _is_number(cfg[key]):
            raise wrong(key, "a number")
        if key in _INT_KEYS and isinstance(cfg.get(key), float) and not cfg[key].is_integer():
            raise wrong(key, "an integer")
    for keys, kind, name in ((_STR_KEYS, str, "a string"), (_BOOL_KEYS, bool, "true or false")):
        for key in keys:
            if cfg.get(key) is not None and not isinstance(cfg[key], kind):
                raise wrong(key, name)
    window = cfg.get("window")
    if window is not None and not (isinstance(window, list) and len(window) == 2
                                   and all(map(_is_number, window))):
        raise wrong("window", "a list of two numbers")
    ps = cfg.get("ps")
    if ps is not None and not (isinstance(ps, list) and all(map(_is_number, ps))):
        raise wrong("ps", "a list of numbers")


def build_config(args: argparse.Namespace) -> dict:
    """Defaults < JSON config < command-line flags."""
    cfg: dict = {
        "format": "csv",
        "count_cap": 64,
        "grid_n": 201,
        "scan_n": 4096,
        "delta": 1e-3,
        "params": {},
        "lambda_spacing": "log",
    }
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        cfg.update(loaded)
        if not isinstance(cfg.get("params"), dict):
            raise UsageError("config field 'params' must be an object of name: value")
    for key in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS + _BOOL_KEYS:
        attr = key if key != "lambda" else "lambda_"
        value = getattr(args, attr, None)
        if value is not None:
            cfg[key] = value
    if getattr(args, "window", None) is not None:
        cfg["window"] = [float(args.window[0]), float(args.window[1])]
    for text in getattr(args, "param", None) or ():
        name, value = _parse_param(text)
        cfg.setdefault("params", {})
        cfg["params"] = dict(cfg["params"])
        cfg["params"][name] = value
    if getattr(args, "ps", None):
        cfg["ps"] = [float(v) for v in args.ps]
    _check_types(cfg)
    if cfg.get("format") not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg.get('format')!r}")
    return cfg


def _need(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise UsageError(f"missing required config field {key!r}")
    return cfg[key]


def _power_problem(cfg: dict):
    """Build (spec, table) from either a scenario name or explicit A, B."""
    has_scenario = bool(cfg.get("scenario"))
    has_custom = cfg.get("A") is not None or cfg.get("B") is not None
    if has_scenario and has_custom:
        raise UsageError("give either a scenario or custom coefficients A/B, not both")
    if not has_scenario and not has_custom:
        raise UsageError("a problem is required: --scenario NAME or --A/--B expressions")
    p = float(_need(cfg, "p"))
    q1, q2, r1, r2 = (float(_need(cfg, k)) for k in ("q1", "q2", "r1", "r2"))
    table = make_norm_table(p, q1, q2, r1, r2)
    if has_scenario:
        scenario = get_scenario(cfg["scenario"], cfg.get("params") or None)
        spec = scenario_problem(scenario, p, q1, q2, r1, r2)
    else:
        spec = make_problem_spec(p, q1, q2, r1, r2, _need(cfg, "A"), _need(cfg, "B"),
                                 cfg.get("params"), scan_positivity=False)
        check_positivity(spec, table)
    return spec, table


def _window(cfg: dict, table) -> tuple[float, float]:
    if cfg.get("window") is not None:
        lo, hi = cfg["window"]
        return float(lo), float(hi)
    return default_window(table)


def _lambda_grid(cfg: dict) -> list[float]:
    lo = float(_need(cfg, "lambda_min"))
    hi = float(_need(cfg, "lambda_max"))
    n = int(_need(cfg, "lambda_n"))
    spacing = cfg.get("lambda_spacing", "log")
    if n < 2 or lo <= 0.0 or hi <= lo:
        raise UsageError("lambda range needs 0 < lambda_min < lambda_max and lambda_n >= 2")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"lambda range needs finite bounds, got lambda_min={lo!r}, "
                         f"lambda_max={hi!r}")
    if spacing == "log":
        return [float(v) for v in 10.0 ** np.linspace(math.log10(lo), math.log10(hi), n)]
    if spacing == "linear":
        return [float(v) for v in np.linspace(lo, hi, n)]
    raise UsageError(f"lambda_spacing must be 'log' or 'linear', got {spacing!r}")


# ----------------------------------------------------------------------
# emission


def _emit(cfg: dict, text: str) -> None:
    out = cfg.get("output")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_document(cfg: dict, results: dict, flags: dict) -> str:
    echo = {k: cfg[k] for k in sorted(cfg) if k != "output"}
    doc = {"config_echo": echo, "results": results, "flags": flags}
    return json.dumps(doc, indent=2) + "\n"


def _emit_json(cfg: dict, results: dict, flags: dict) -> None:
    _emit(cfg, _json_document(cfg, results, flags))


def _csv_lines(header: list[str], rows: list[list], comments: list[str]) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    lines += [f"# {c}" for c in comments]
    return "\n".join(lines) + "\n"


def _root_row(root) -> list:
    s1, s2, t1, t2 = root.quadruple
    return [root.s, s1, s2, t1, t2, root.kind, root.residual]


# ----------------------------------------------------------------------
# subcommands


def cmd_norms(cfg: dict) -> int:
    p = float(_need(cfg, "p"))
    q1, q2, r1, r2 = (float(_need(cfg, k)) for k in ("q1", "q2", "r1", "r2"))
    table = make_norm_table(p, q1, q2, r1, r2)
    entries = [("mu_p", table.mu_p), ("L_p", table.L_p), ("n_q1", table.n_q1),
               ("n_q2", table.n_q2), ("m_r1", table.m_r1), ("m_r2", table.m_r2)]
    oracle_vals = {}
    if cfg.get("oracle"):
        L_oracle = oracles.profile_length_quadrature(p)
        oracle_vals = {
            "L_p": L_oracle,
            "mu_p": (math.sqrt((p + 1.0) / 2.0) * L_oracle) ** (2.0 / (p - 1.0)),
            "n_q1": oracles.norm_quadrature(p, q1, table.mu_p),
            "n_q2": oracles.norm_quadrature(p, q2, table.mu_p),
            "m_r1": oracles.deriv_norm_quadrature(p, r1, table.mu_p),
            "m_r2": oracles.deriv_norm_quadrature(p, r2, table.mu_p),
        }
    if cfg["format"] == "json":
        results = {name: value for name, value in entries}
        if oracle_vals:
            results["oracle"] = {name: oracle_vals[name] for name, _ in entries}
            results["oracle_rel_dev"] = {
                name: abs(value - oracle_vals[name]) / abs(value) for name, value in entries}
        _emit_json(cfg, results, {})
    else:
        if oracle_vals:
            header = ["name", "value", "oracle", "rel_dev"]
            rows = [[name, value, oracle_vals[name], abs(value - oracle_vals[name]) / abs(value)]
                    for name, value in entries]
        else:
            header = ["name", "value"]
            rows = [[name, value] for name, value in entries]
        _emit(cfg, _csv_lines(header, rows, []))
    return 0


def cmd_roots(cfg: dict) -> int:
    spec, table = _power_problem(cfg)
    lam = float(_need(cfg, "lambda"))
    result = solve_single(spec, table, lam, _window(cfg, table),
                          int(cfg["count_cap"]), int(cfg["scan_n"]))
    flags = {"overflow": result.overflow, "window_edge": result.window_edge}
    if cfg["format"] == "json":
        roots = [dict(zip(("s", "s1", "s2", "t1", "t2", "kind", "residual"), _root_row(r)))
                 for r in result.roots]
        _emit_json(cfg, {"lambda": lam, "count": result.count, "roots": roots}, flags)
    else:
        rows = [_root_row(r) for r in result.roots]
        comments = [f"overflow: {_fmt(result.overflow)}",
                    f"window_edge: {_fmt(result.window_edge)}"]
        _emit(cfg, _csv_lines(["s", "s1", "s2", "t1", "t2", "kind", "residual"], rows, comments))
    return 0


def cmd_sweep(cfg: dict) -> int:
    spec, table = _power_problem(cfg)
    grid = _lambda_grid(cfg)
    diagram = sweep(spec, table, grid, _window(cfg, table), int(cfg["count_cap"]),
                    int(cfg["scan_n"]))
    flags = {
        "overflow_lambdas": [res.lam for res in diagram.results if res.overflow],
        "window_edge_lambdas": [res.lam for res in diagram.results if res.window_edge],
    }
    thresholds = [{"lambda": t.lam, "count_below": t.count_below,
                   "count_above": t.count_above, "reliable": t.reliable}
                  for t in diagram.thresholds]
    if cfg["format"] == "json":
        branches = [{"lambda": res.lam,
                     "roots": [dict(zip(("s", "s1", "s2", "t1", "t2", "kind", "residual"),
                                        _root_row(r))) for r in res.roots]}
                    for res in diagram.results]
        _emit_json(cfg, {"branches": branches, "thresholds": thresholds,
                         "counts": list(diagram.counts)}, flags)
    else:
        rows = []
        for res in diagram.results:
            for idx, root in enumerate(res.roots):
                rows.append([res.lam, idx, root.s, root.kind])
        comments = ["thresholds: lambda,count_below,count_above,reliable"]
        comments += [f"threshold: {_fmt(t['lambda'])},{t['count_below']},"
                     f"{t['count_above']},{_fmt(t['reliable'])}" for t in thresholds]
        for key, values in flags.items():
            comments.append(f"{key}: " + (";".join(_fmt(v) for v in values) or "none"))
        _emit(cfg, _csv_lines(["lambda", "branch_index", "s", "kind"], rows, comments))
    return 0


# a sample row as json.dumps(indent=2) lays it out at its depth in the
# document, and the string that holds the sample's place until it is written
_JSON_SAMPLE_ROW = '      {\n        "x": %s,\n        "u": %s,\n        "u_prime": %s\n      }'
_SAMPLE_SLOT = "<sample>"


def _json_float(value: float) -> str:
    """A float as json.dumps writes it: repr, or NaN, Infinity and -Infinity."""
    if math.isfinite(value):
        return repr(value)
    return "NaN" if value != value else ("Infinity" if value > 0.0 else "-Infinity")


def _emit_sample(cfg: dict, sample, extra_results: dict, flags: dict) -> None:
    """Write a sample as _json_document or _csv_lines would, one format call per row."""
    columns = (sample.grid, sample.values, sample.derivs)
    rows = list(zip(*(column.tolist() for column in columns)))
    if cfg["format"] == "json":
        if not all(np.isfinite(column).all() for column in columns):
            rows = [tuple(map(_json_float, row)) for row in rows]
        body = ",\n".join([_JSON_SAMPLE_ROW % row for row in rows])
        text = _json_document(cfg, {**extra_results, "sample": _SAMPLE_SLOT}, flags)
        # the slot is the last string in the document: only config_echo,
        # before it, can hold strings of its own, and flags hold none
        head, _, tail = text.rpartition(json.dumps(_SAMPLE_SLOT))
        _emit(cfg, head + (f"[\n{body}\n    ]" if rows else "[]") + tail)
    else:
        lines = ["x,u,u_prime"]
        lines += ["%r,%r,%r" % row for row in rows]
        lines += [f"# {k}: {_fmt(v)}" for k, v in extra_results.items()]
        lines += [f"# {k}: {_fmt(v)}" for k, v in flags.items()]
        _emit(cfg, "\n".join(lines) + "\n")


def cmd_eval(cfg: dict) -> int:
    if cfg.get("problem_type") == "exp":
        return cmd_exp(cfg)
    spec, table = _power_problem(cfg)
    lam = float(_need(cfg, "lambda"))
    result = solve_single(spec, table, lam, _window(cfg, table),
                          int(cfg["count_cap"]), int(cfg["scan_n"]))
    roots = [r for r in result.roots if r.kind != "window-edge"]
    index = int(cfg.get("root_index", 0))
    if not 0 <= index < len(roots):
        available = ", ".join(f"[{i}] s={_fmt(r.s)} ({r.kind})" for i, r in enumerate(roots))
        raise UsageError(f"root_index {index} out of range; available roots: "
                         f"{available or 'none'}")
    root = roots[index]
    profile = make_profile(spec.p)
    sample = reconstruct(profile, table, root.s, n=int(cfg["grid_n"]),
                         delta=float(cfg["delta"]))
    _emit_sample(cfg, sample,
                 {"lambda": lam, "root_index": index, "s": root.s, "kind": root.kind},
                 {"overflow": result.overflow, "window_edge": result.window_edge})
    return 0


def cmd_exp(cfg: dict) -> int:
    r1 = float(_need(cfg, "r1"))
    r2 = float(_need(cfg, "r2"))
    lam = float(_need(cfg, "lambda"))
    spec = make_exp_problem_spec(r1, r2, _need(cfg, "A"), _need(cfg, "B"), lam,
                                 cfg.get("params"))
    solution = solve_exp(spec, n=int(cfg["grid_n"]), delta=float(cfg["delta"]))
    _emit_sample(cfg, solution.sample,
                 {"lambda": lam, "shift": solution.shift,
                  "deriv_norm_r1": solution.deriv_norm_r1,
                  "deriv_norm_r2": solution.deriv_norm_r2},
                 {})
    return 0


def cmd_verify(cfg: dict) -> int:
    if cfg.get("format") == "json":
        raise UsageError("verify writes a text report; --format json is not supported")
    ps = tuple(cfg.get("ps") or (2.0, 3.0))
    checks = run_verification(ps=ps, perturb_norms=float(cfg.get("perturb_norms") or 0.0),
                              scenario=cfg.get("scenario"),
                              asymptotics=bool(cfg.get("asymptotics")))
    _emit(cfg, format_report(checks) + "\n")
    return 0 if all(c.passed for c in checks) else 1


# ----------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser, problem: bool = False) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    if problem:
        sub.add_argument("--p", type=float, default=None)
        sub.add_argument("--q1", type=float, default=None)
        sub.add_argument("--q2", type=float, default=None)
        sub.add_argument("--r1", type=float, default=None)
        sub.add_argument("--r2", type=float, default=None)
        sub.add_argument("--A", default=None, help="coefficient expression A(s,t)")
        sub.add_argument("--B", default=None, help="coefficient expression B(s,t)")
        sub.add_argument("--scenario", default=None,
                         help="built-in scenario name (cor1|cor2|cor3|cor4)")
        sub.add_argument("--param", action="append", default=None, metavar="NAME=VALUE",
                         help="bind a free coefficient parameter (repeatable)")
        sub.add_argument("--window", type=float, nargs=2, default=None,
                         metavar=("LO", "HI"), help="scan window in s")
        sub.add_argument("--count-cap", dest="count_cap", type=int, default=None)
        sub.add_argument("--scan-n", dest="scan_n", type=int, default=None,
                         help="scan grid points (default 4096)")


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


# flags whose value is an expression, which may start with "-" ("-s+5")
_EXPRESSION_FLAGS = ("--A", "--B")


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in any float form as a value.

    argparse takes a word that starts with "-" for an option unless it looks
    like "-5" or "-.5", so "--lambda -1e5" or "--window -inf 1" would fail
    with its multi-line usage text.  Here "-1e5", "-2.5E-3", "-inf" and
    "-nan" are values too; main's own checks then reject a bad one with a
    one-line diagnostic.  In the same way "--A -s+5" reads as "--A=-s+5":
    the word after an expression flag is its value when it starts with a
    single "-".  Subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        words = list(sys.argv[1:] if args is None else args)
        # from the back, so a joined "--A=..." is never read as a flag again
        for i in range(len(words) - 2, -1, -1):
            flag, value = words[i], words[i + 1]
            if flag in _EXPRESSION_FLAGS and value.startswith("-") and not value.startswith("--"):
                words[i:i + 2] = [f"{flag}={value}"]
        return super().parse_known_args(words, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="blowup",
        description="Bifurcation analysis of nonlocal boundary blow-up problems")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("norms", help="profile constants and the four norms")
    _add_common(sub)
    for key in ("p", "q1", "q2", "r1", "r2"):
        sub.add_argument(f"--{key}", type=float, default=None)
    sub.add_argument("--oracle", action="store_true", default=None,
                     help="add quadrature oracle values and deviations")

    sub = subs.add_parser("roots", help="all roots at a single lambda")
    _add_common(sub, problem=True)
    sub.add_argument("--lambda", dest="lambda_", type=float, default=None)

    sub = subs.add_parser("sweep", help="root counts over a lambda range")
    _add_common(sub, problem=True)
    sub.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sub.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sub.add_argument("--lambda-n", dest="lambda_n", type=int, default=None)
    sub.add_argument("--lambda-spacing", dest="lambda_spacing",
                     choices=("linear", "log"), default=None)

    sub = subs.add_parser("eval", help="tabulate a reconstructed solution")
    _add_common(sub, problem=True)
    sub.add_argument("--lambda", dest="lambda_", type=float, default=None)
    sub.add_argument("--root-index", dest="root_index", type=int, default=None)
    sub.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    sub.add_argument("--delta", type=float, default=None,
                     help="boundary offset of the sample grid")

    sub = subs.add_parser("verify", help="run the oracle suite")
    _add_common(sub)
    sub.add_argument("--ps", type=float, nargs="+", default=None,
                     help="profile exponents to verify (default 2 3)")
    sub.add_argument("--scenario", default=None)
    sub.add_argument("--asymptotics", action="store_true", default=None)
    sub.add_argument("--perturb-norms", dest="perturb_norms", type=float, default=None,
                     help="fault injection: scale closed-form norms by (1+eps)")

    sub = subs.add_parser("exp", help="exponential nonlinearity: the unique solution")
    _add_common(sub)
    sub.add_argument("--r1", type=float, default=None)
    sub.add_argument("--r2", type=float, default=None)
    sub.add_argument("--A", default=None, help="coefficient A(t), t = ||u'||_r1")
    sub.add_argument("--B", default=None, help="coefficient B(t), t = ||u'||_r2")
    sub.add_argument("--lambda", dest="lambda_", type=float, default=None)
    sub.add_argument("--param", action="append", default=None, metavar="NAME=VALUE")
    sub.add_argument("--grid-n", dest="grid_n", type=int, default=None)
    sub.add_argument("--delta", type=float, default=None)

    return parser


_HANDLERS = {
    "norms": cmd_norms,
    "roots": cmd_roots,
    "sweep": cmd_sweep,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "exp": cmd_exp,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on the first call, then kept for the process."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _HANDLERS[args.command](cfg)
    except (UsageError, ExponentError, CoefficientError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
