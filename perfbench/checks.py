"""Per-request answer checker.

``check(argv, code, out)`` returns None for a correct answer and a one-line
reason otherwise.  References are computed outside the timed call and come
from routes independent of the solver: the scenario closed forms
(``scenarios.analytic_*``) for ``roots`` and ``sweep``, the bisection-only
time-map inverter of ``oracles`` for ``eval``, the closed-form e^u profile
(``reference``) for ``exp``, and report well-formedness for ``verify``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import reference
from blowup import oracles
from blowup.bifurcation import default_window
from blowup.norms import make_norm_table
from blowup.scenarios import INFINITE, analytic_count, analytic_roots, analytic_thresholds, get_scenario
from blowup.timemap import make_profile

COUNT_CAP = 64

# Relative distance from an analytic threshold inside which the engine may
# report either neighbouring count or a single tangential root, and within
# which its threshold must lie.  The log-spaced scan misses band roots near
# the lower cor3 edge, where they come in close pairs at the troughs of
# sin(s); there the engine reports partial counts up to ~1e-3 into the band
# and bisects thresholds up to ~2e-3 off.
THRESHOLD_BAND = 1e-7
CAP_BAND = 1e-2
ROOT_TOL = 1e-8
TANGENT_ROOT_TOL = 1e-4
PROFILE_TOL = 1e-6
EXP_TOL = 1e-9

_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.+): measured (\S+) allowed (\S+)$")
_SUMMARY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


class Mismatch(Exception):
    pass


def _flags(argv: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    key = None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            out.setdefault(key, [])
        else:
            out[key].append(tok)
    return out


def _float(fl: dict, key: str) -> float:
    return float(fl[key][0])


def _params(fl: dict) -> dict[str, float]:
    return {k: float(v) for k, _, v in (t.partition("=") for t in fl.get("param", []))}


def _scenario(fl: dict):
    if "scenario" in fl:
        name = fl["scenario"][0]
    else:
        pair = (fl["A"][0], fl["B"][0])
        name = next(n for n, src in reference.CATALOG.items() if src == pair)
    return get_scenario(name, _params(fl) or None)


def _table(fl: dict):
    return make_norm_table(*(_float(fl, k) for k in ("p", "q1", "q2", "r1", "r2")))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _parse_csv(out: str) -> tuple[list[str], list[list[str]], dict[str, list[str]]]:
    lines = out.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("# ")]
    comments: dict[str, list[str]] = {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments.setdefault(key, []).append(value)
    return header, rows, comments


# ----------------------------------------------------------------------
# root counting


def _band(sc) -> float:
    return CAP_BAND if sc.name == "cor3" else THRESHOLD_BAND


def _in_window(sc, table, lam: float, window: tuple[float, float]):
    """Analytic roots inside the scan window, ascending; INFINITE in the cor3 band.

    The CLI counts roots inside its scan window only; a root outside it is
    at most flagged, so the reference restricts the analytic roots the same way.
    """
    if analytic_count(sc, table, lam) == INFINITE:
        return INFINITE
    return [s for s in analytic_roots(sc, table, lam) or () if window[0] <= s <= window[1]]


def allowed_counts(sc, table, lam: float, window: tuple[float, float]) -> set:
    """Counts the engine may report at lambda.

    Near a threshold the count of either side and a single tangential root
    are all right; inside the cor3 band the count saturates at COUNT_CAP.
    """
    for th in analytic_thresholds(sc, table):
        if _rel(lam, th) <= _band(sc):
            if sc.name == "cor3":
                return set(range(COUNT_CAP + 1))
            return {len(_in_window(sc, table, th * (1.0 - 1e-6), window)),
                    len(_in_window(sc, table, th * (1.0 + 1e-6), window)), 1}
    expected = _in_window(sc, table, lam, window)
    return {COUNT_CAP} if expected == INFINITE else {len(expected)}


def _check_roots_at(sc, table, lam: float, window: tuple[float, float],
                    roots: list[tuple[float, str]], overflow: bool) -> None:
    inside = [(s, kind) for s, kind in roots if kind != "window-edge"]
    if any(kind not in ("transversal", "tangential") for _, kind in inside):
        raise Mismatch(f"unknown root kind at lambda={lam!r}")
    allowed = allowed_counts(sc, table, lam, window)
    if len(inside) not in allowed:
        raise Mismatch(f"count {len(inside)} at lambda={lam!r}, expected one of {sorted(allowed)}")
    expected = _in_window(sc, table, lam, window)
    near = len(allowed) > 1
    if overflow != (expected == INFINITE) and not (near and sc.name == "cor3"):
        raise Mismatch(f"overflow flag {overflow} at lambda={lam!r}")
    if near:
        if len(inside) == 1 and sc.name != "cor3":
            # a tangential root: compare with the analytic double root just past it
            th = min(analytic_thresholds(sc, table), key=lambda t: _rel(lam, t))
            pair = analytic_roots(sc, table, th * (1.0 + 1e-12))
            if pair and _rel(inside[0][0], sum(pair) / len(pair)) > TANGENT_ROOT_TOL:
                raise Mismatch(f"tangential root {inside[0][0]!r} vs analytic {pair!r}")
        return
    if expected == INFINITE:
        # The scan may skip band roots where the grid is coarse (a documented
        # limitation), so each reported root must be a true root, no more.
        s_max = max(s for s, _ in inside)
        band = analytic_roots(sc, table, lam, max_roots=2 * int(s_max / math.pi) + 4)
        for s, kind in inside:
            nearest = min(band, key=lambda ref: abs(s - ref))
            if _rel(s, nearest) > (ROOT_TOL if kind == "transversal" else TANGENT_ROOT_TOL):
                raise Mismatch(f"root {s!r} is no band root (nearest {nearest!r}) at lambda={lam!r}")
        return
    tol = ROOT_TOL if all(kind == "transversal" for _, kind in inside) else TANGENT_ROOT_TOL
    for (s, _), s_ref in zip(inside, expected):
        if _rel(s, s_ref) > tol:
            raise Mismatch(f"root {s!r} vs analytic {s_ref!r} at lambda={lam!r}")


def _window(fl: dict, table) -> tuple[float, float]:
    if "window" in fl:
        lo, hi = fl["window"]
        return float(lo), float(hi)
    return default_window(table)


def _check_roots(argv, out):
    fl = _flags(argv)
    sc, table, lam = _scenario(fl), _table(fl), _float(fl, "lambda")
    if fl["format"][0] == "json":
        doc = json.loads(out)
        res = doc["results"]
        roots = [(r["s"], r["kind"]) for r in res["roots"]]
        overflow = doc["flags"]["overflow"]
        if res["count"] != sum(1 for _, k in roots if k != "window-edge"):
            raise Mismatch("count field disagrees with the roots listed")
    else:
        header, rows, comments = _parse_csv(out)
        if header != ["s", "s1", "s2", "t1", "t2", "kind", "residual"]:
            raise Mismatch(f"unexpected CSV header {header}")
        roots = [(float(r[0]), r[5]) for r in rows]
        overflow = comments["overflow"] == ["true"]
    _check_roots_at(sc, table, lam, _window(fl, table), roots, overflow)


def _lambda_grid(fl: dict) -> np.ndarray:
    lo, hi, n = _float(fl, "lambda-min"), _float(fl, "lambda-max"), int(fl["lambda-n"][0])
    return np.geomspace(lo, hi, n)


def _check_sweep(argv, out):
    fl = _flags(argv)
    sc, table = _scenario(fl), _table(fl)
    window = _window(fl, table)
    grid = _lambda_grid(fl)
    per_lambda: list[list[tuple[float, str]]] = [[] for _ in grid]

    def slot(lam: float) -> int:
        i = int(np.argmin(np.abs(grid - lam)))
        if _rel(lam, grid[i]) > 1e-12:
            raise Mismatch(f"lambda {lam!r} is not on the requested grid")
        return i

    if fl["format"][0] == "json":
        doc = json.loads(out)
        for branch in doc["results"]["branches"]:
            per_lambda[slot(branch["lambda"])] = [(r["s"], r["kind"]) for r in branch["roots"]]
        thresholds = [(t["lambda"], t["count_below"], t["count_above"], t["reliable"])
                      for t in doc["results"]["thresholds"]]
        overflow = {slot(v) for v in doc["flags"]["overflow_lambdas"]}
    else:
        _, rows, comments = _parse_csv(out)
        for lam, _, s, kind in rows:
            per_lambda[slot(float(lam))].append((float(s), kind))
        thresholds = []
        for text in comments.get("threshold", []):
            lam, below, above, reliable = text.split(",")
            thresholds.append((float(lam), int(below), int(above), reliable == "true"))
        listed = comments["overflow_lambdas"][0]
        overflow = set() if listed == "none" else {slot(float(v)) for v in listed.split(";")}
    for i, lam in enumerate(grid):
        _check_roots_at(sc, table, float(lam), window, per_lambda[i], i in overflow)

    analytic = analytic_thresholds(sc, table)
    for lam, below, above, reliable in thresholds:
        th = min(analytic, key=lambda t: _rel(lam, t))
        if _rel(lam, th) > _band(sc):
            raise Mismatch(f"threshold {lam!r} matches no analytic threshold {analytic!r}")
        sides = allowed_counts(sc, table, th, window)
        if below not in sides or above not in sides:
            raise Mismatch(f"threshold {lam!r} counts {below}->{above}, expected within {sorted(sides)}")
        if not reliable and sc.name != "cor3":
            raise Mismatch(f"threshold {lam!r} flagged unreliable")
    for th in analytic:
        if grid[0] < th < grid[-1] and not any(_rel(t[0], th) <= _band(sc) for t in thresholds):
            raise Mismatch(f"analytic threshold {th!r} missing from {[t[0] for t in thresholds]}")


def _check_eval(argv, out):
    fl = _flags(argv)
    sc, table, lam = _scenario(fl), _table(fl), _float(fl, "lambda")
    index, n, delta = int(fl["root-index"][0]), int(fl["grid-n"][0]), _float(fl, "delta")
    if fl["format"][0] == "json":
        res = json.loads(out)["results"]
        s = res["s"]
        rows = [(r["x"], r["u"], r["u_prime"]) for r in res["sample"]]
    else:
        _, rows_txt, comments = _parse_csv(out)
        s = float(comments["s"][0])
        rows = [tuple(float(v) for v in r) for r in rows_txt]
    s_ref = _in_window(sc, table, lam, _window(fl, table))[index]
    if _rel(s, s_ref) > ROOT_TOL:
        raise Mismatch(f"selected root {s!r} vs analytic {s_ref!r}")
    if len(rows) != n or _rel(rows[0][0], -1.0 + delta) > 1e-12 or _rel(rows[-1][0], 1.0 - delta) > 1e-12:
        raise Mismatch("sample grid does not span [-1+delta, 1-delta] with grid_n points")
    profile = make_profile(table.p)
    p, mu, scale = table.p, profile.mu_p, s_ref / table.n_q1
    for i in (0, n // 4, n // 2):
        x, u, du = rows[i]
        y = oracles.bisection_inverse(profile, profile.L_p * abs(x))
        u_ref = scale * mu * y
        du_ref = math.copysign(scale * math.sqrt(2.0 / (p + 1.0) * mu ** (p + 1.0)
                                                 * math.expm1((p + 1.0) * math.log(y))), x)
        if _rel(u, u_ref) > PROFILE_TOL or abs(du - du_ref) > PROFILE_TOL * max(abs(du_ref), scale):
            raise Mismatch(f"profile at x={x!r}: ({u!r}, {du!r}) vs bisection ({u_ref!r}, {du_ref!r})")


def _check_exp(argv, out):
    fl = _flags(argv)
    params = _params(fl)
    lam = _float(fl, "lambda")
    t1, t2 = reference.exp_deriv_norm(_float(fl, "r1")), reference.exp_deriv_norm(_float(fl, "r2"))
    shift_ref = math.log((params["b"] + t2) / (params["a"] + t1))
    if fl["format"][0] == "json":
        res = json.loads(out)["results"]
        shift = res["shift"]
        rows = np.array([(r["x"], r["u"], r["u_prime"]) for r in res["sample"]])
    else:
        _, rows_txt, comments = _parse_csv(out)
        shift = float(comments["shift"][0])
        rows = np.array(rows_txt, dtype=float)
    if abs(shift - shift_ref) > EXP_TOL * (1.0 + abs(shift_ref)):
        raise Mismatch(f"shift {shift!r} vs closed form {shift_ref!r}")
    x = rows[:, 0]
    u_ref = math.log(math.pi ** 2 / (2.0 * lam)) - 2.0 * np.log(np.cos(0.5 * math.pi * x)) - shift_ref
    du_ref = math.pi * np.tan(0.5 * math.pi * x)
    for col, ref in ((1, u_ref), (2, du_ref)):
        err = np.abs(rows[:, col] - ref) / (1.0 + np.abs(ref))
        if len(rows) != int(fl["grid-n"][0]) or not (err <= EXP_TOL).all():
            raise Mismatch(f"exp sample column {col} deviates from the closed form")


def _check_verify(argv, code, out):
    lines = out.splitlines()
    if len(lines) < 2:
        raise Mismatch("verify report is empty")
    n_pass = 0
    for line in lines[:-1]:
        m = _CHECK_LINE.match(line)
        if not m:
            raise Mismatch(f"malformed verify line {line!r}")
        passed = float(m.group(3)) <= float(m.group(4))
        if passed != (m.group(1) == "PASS"):
            raise Mismatch(f"status disagrees with the numbers in {line!r}")
        n_pass += passed
    m = _SUMMARY_LINE.match(lines[-1])
    if not m or int(m.group(1)) != n_pass or int(m.group(2)) != len(lines) - 1:
        raise Mismatch(f"verify summary {lines[-1]!r} disagrees with the report")
    if code != (0 if n_pass == len(lines) - 1 else 1):
        raise Mismatch(f"verify exit code {code} disagrees with the report")
    p = float(_flags(argv)["ps"][0])
    if not any(line.startswith(("PASS  p=", "FAIL  p=")) and f"p={p} " in line for line in lines):
        raise Mismatch(f"verify report has no checks for p={p}")


def check(argv: list[str], code: int, out: str) -> str | None:
    """None if the output of ``blowup <argv>`` is a correct answer, else why not."""
    command = argv[0]
    try:
        if command == "verify":
            _check_verify(argv, code, out)
            return None
        if code != 0:
            return f"exit code {code}"
        {"roots": _check_roots, "sweep": _check_sweep, "eval": _check_eval,
         "exp": _check_exp}[command](argv, out)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
