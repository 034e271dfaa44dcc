"""Reduction of the nonlocal blow-up problem to scalar root counting.

A solution u of

    A(||u||_q1, ||u'||_r1) u'' = lambda B(||u||_q2, ||u'||_r2) u^p,
    u > 0 on (-1, 1),  u(+-1) = +infinity,

is necessarily a scaling u = (s / ||U||_q1) U of the canonical profile U,
and the admissible scalings are exactly the positive roots of

    g(s) = lambda * ||U||_q1^(1-p),
    g(s) = s^(1-p) * A(s, (||U'||_r1/||U||_q1) s)
                   / B((||U||_q2/||U||_q1) s, (||U'||_r2/||U||_q1) s).

Each root s lifts to the norm quadruple

    (s1, s2, t1, t2) = s * (1, ||U||_q2/||U||_q1,
                            ||U'||_r1/||U||_q1, ||U'||_r2/||U||_q1),

which solves the four-equation nonlocal system, and the solution count of
the ODE problem equals the root count of the scalar equation.

The solver scans a log-spaced window, refines sign changes with Brent's
method, and additionally inspects near-zero local minima of |g - target|
for tangential (double) roots, which occur exactly at count-change
thresholds.  The window is an honest compromise: the mathematical problem
lives on all of (0, infinity), which cannot be scanned, so roots outside
the window are only detected when a sign change crosses the boundary (the
``window_edge`` flag), and coefficients oscillating faster than the scan
grid near the window ends may be undercounted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .exprdsl import (
    CoeffExpr,
    EvalError,
    check_param_values,
    compile_expr,
    eval_array,
    eval_expr,
    parse,
)
from .norms import ExponentError, NormTable, make_norm_table, validate_exponents
from .timemap import Profile, ProfileSample, eval_U, sample_profile, symmetric_grid

__all__ = [
    "ProblemSpec",
    "Root",
    "SolveResult",
    "Threshold",
    "BifurcationDiagram",
    "CoefficientError",
    "make_problem_spec",
    "check_positivity",
    "default_window",
    "g_of_s",
    "solve_single",
    "lift_quadruple",
    "system_residual",
    "reconstruct",
    "nonlocal_residual",
    "sweep",
]

RESERVED_PARAMS = ("s", "t", "p", "q1", "q2", "r1", "r2")

# |g - target| <= TANGENT_TOL * |target| at a refined local minimum counts
# as a tangential (double) root; count-change thresholds sit exactly there.
TANGENT_TOL = 1e-8

# local minima of |h| worth refining at all
_CANDIDATE_TOL = 1e-3

_EDGE_PROBE = 4.0


class CoefficientError(ValueError):
    """A coefficient expression failed to produce a positive finite value."""

    def __init__(self, which: str, s: float, t: float, detail: str):
        self.which = which
        self.point = (s, t)
        super().__init__(f"coefficient {which} at (s={s!r}, t={t!r}): {detail}")


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified nonlocal problem instance (lambda is per-query)."""

    p: float
    q1: float
    q2: float
    r1: float
    r2: float
    A: CoeffExpr
    B: CoeffExpr
    params: dict[str, float] = field(default_factory=dict)

    def bound_params(self) -> dict[str, float]:
        out = dict(self.params)
        out.update(p=self.p, q1=self.q1, q2=self.q2, r1=self.r1, r2=self.r2)
        return out


def make_problem_spec(p: float, q1: float, q2: float, r1: float, r2: float,
                      A: str | CoeffExpr, B: str | CoeffExpr,
                      params: dict[str, float] | None = None,
                      scan_positivity: bool = True) -> ProblemSpec:
    """Parse and validate a problem instance.

    Checks the exponent assumption, rejects user parameters that shadow the
    reserved names (s, t, p, q1, q2, r1, r2 are auto-bound) or are not
    finite numbers, requires every free parameter of A and B to be bound,
    and (by default) runs the advisory positivity scan over the default
    solver window.
    """
    violations = validate_exponents(p, q1, q2, r1, r2)
    if violations:
        raise ExponentError(violations)
    params = dict(params or {})
    for name in params:
        if name in RESERVED_PARAMS:
            raise ValueError(f"parameter name {name!r} is reserved (auto-bound)")
    check_param_values(params)
    A = parse(A) if isinstance(A, str) else A
    B = parse(B) if isinstance(B, str) else B
    spec = ProblemSpec(p=float(p), q1=float(q1), q2=float(q2),
                       r1=float(r1), r2=float(r2), A=A, B=B, params=params)
    bound = spec.bound_params()
    for label, expr in (("A", A), ("B", B)):
        unbound = [n for n in expr.free_parameters() if n not in bound]
        if unbound:
            raise ValueError(f"coefficient {label} has unbound parameters: {sorted(unbound)}")
    if scan_positivity:
        check_positivity(spec, make_norm_table(p, q1, q2, r1, r2))
    return spec


def check_positivity(spec: ProblemSpec, table: NormTable) -> None:
    """Advisory positivity scan of A and B over the default solver window.

    s spans default_window(table); t spans the same window scaled by the
    smallest and largest of the norm ratios that map s to the other three
    norms, so the grid spans every (s, t) pair the solver can reach.
    """
    lo, hi = default_window(table)
    ratios = [table.n_q2 / table.n_q1, table.m_r1 / table.n_q1, table.m_r2 / table.n_q1]
    _scan_positive((("A", spec.A), ("B", spec.B)), spec.bound_params(), (lo, hi),
                   (lo * min(ratios), hi * max(ratios)))


def _scan_positive(coefficients: tuple[tuple[str, CoeffExpr], ...], params: dict,
                   s_range: tuple[float, float], t_range: tuple[float, float],
                   n: int = 24) -> None:
    """Advisory positivity probe of each (label, expr) on one log-spaced grid.

    Like exprdsl.positivity_scan, but overflow to +inf counts as positive
    (the solver tolerates it during scanning); NaN, -inf and nonpositive
    finite values raise with the first offending point of the first
    offending coefficient.
    """
    s_vals = np.geomspace(s_range[0], s_range[1], n)
    t_vals = np.geomspace(t_range[0], t_range[1], n)
    ss, tt = np.meshgrid(s_vals, t_vals, indexing="ij")
    for label, expr in coefficients:
        out = eval_array(expr, ss, tt, params)
        bad = np.isnan(out) | (out <= 0.0)  # <= 0 catches -inf too
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise CoefficientError(label, float(s_vals[i]), float(t_vals[j]),
                                   f"positivity scan found value {float(out[i, j])!r}")


@dataclass(frozen=True)
class Root:
    """One solution of the scalar equation g(s) = lambda ||U||_q1^(1-p)."""

    s: float
    kind: str  # transversal | tangential | window-edge
    residual: float
    quadruple: tuple[float, float, float, float]


@dataclass(frozen=True)
class SolveResult:
    roots: tuple[Root, ...]
    overflow: bool
    window_edge: bool
    lam: float
    target: float
    window: tuple[float, float]

    @property
    def count(self) -> int:
        """Roots inside the window (window-edge extras excluded)."""
        return sum(1 for r in self.roots if r.kind != "window-edge")


@dataclass(frozen=True)
class Threshold:
    lam: float
    count_below: int
    count_above: int
    reliable: bool


@dataclass(frozen=True)
class BifurcationDiagram:
    lambda_grid: tuple[float, ...]
    results: tuple[SolveResult, ...]
    thresholds: tuple[Threshold, ...]
    window: tuple[float, float]
    count_cap: int

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(res.count for res in self.results)


def default_window(table: NormTable) -> tuple[float, float]:
    return (1e-6 * table.n_q1, 1e6 * table.n_q1)


def g_of_s(spec: ProblemSpec, table: NormTable, s: float) -> float:
    """g(s) = s^(1-p) A(s, t1(s)) / B(s2(s), t2(s)); strict scalar path.

    Raises CoefficientError if A or B is nonpositive or non-finite at the
    scaled arguments.
    """
    return _g_kernel(spec, table)(s)


def _g_kernel(spec: ProblemSpec, table: NormTable) -> Callable[[float], float]:
    """g_of_s as a function of s alone, for one (spec, table).

    Both coefficients are compiled once with their parameters bound, and
    the ratios t1/s, s2/s, t2/s are computed once; each call then makes the
    same float operations as g_of_s does and raises the same errors.
    """
    bound = spec.bound_params()
    coeff_a = compile_expr(spec.A, bound)
    coeff_b = compile_expr(spec.B, bound)
    n1 = table.n_q1
    ratio_t1, ratio_s2, ratio_t2 = table.m_r1 / n1, table.n_q2 / n1, table.m_r2 / n1
    exponent = 1.0 - spec.p
    isfinite = math.isfinite

    def g(s: float) -> float:
        if not (s > 0.0) or not isfinite(s):
            raise ValueError(f"g is defined for finite s > 0, got {s!r}")
        t1a, s2a, t2a = ratio_t1 * s, ratio_s2 * s, ratio_t2 * s
        try:
            a_val = coeff_a(float(s), float(t1a))
        except EvalError as exc:
            raise CoefficientError("A", s, t1a, str(exc)) from exc
        try:
            b_val = coeff_b(float(s2a), float(t2a))
        except EvalError as exc:
            raise CoefficientError("B", s2a, t2a, str(exc)) from exc
        if a_val <= 0.0:
            raise CoefficientError("A", s, t1a, f"nonpositive value {a_val!r}")
        if b_val <= 0.0:
            raise CoefficientError("B", s2a, t2a, f"nonpositive value {b_val!r}")
        return s ** exponent * a_val / b_val

    return g


def _g_array(spec: ProblemSpec, table: NormTable, s: np.ndarray) -> np.ndarray:
    """Vectorized g over a grid of s > 0.

    Overflow of A or B to +inf is tolerated (the sign of g - target is still
    meaningful there); NaN and nonpositive finite values raise with the
    first offending point, and so does a point where both overflow, since
    g = inf/inf is undetermined there.
    """
    t1a = table.m_r1 / table.n_q1 * s
    s2a = table.n_q2 / table.n_q1 * s
    t2a = table.m_r2 / table.n_q1 * s
    bound = spec.bound_params()
    a_val = eval_array(spec.A, s, t1a, bound)
    b_val = eval_array(spec.B, s2a, t2a, bound)
    for label, vals, s_arg, t_arg in (("A", a_val, s, t1a), ("B", b_val, s2a, t2a)):
        bad = np.isnan(vals) | ((vals <= 0.0) & np.isfinite(vals))
        if bad.any():
            i = int(np.argmax(bad))
            raise CoefficientError(label, float(s_arg[i]), float(t_arg[i]),
                                   f"value {float(vals[i])!r} in scan")
    both_inf = np.isposinf(a_val) & np.isposinf(b_val)
    if both_inf.any():
        i = int(np.argmax(both_inf))
        raise CoefficientError("A", float(s[i]), float(t1a[i]),
                               f"A and B both overflow to +inf in scan (B at s={float(s2a[i])!r}, "
                               f"t={float(t2a[i])!r}), so g is undetermined; the window must "
                               f"end below s={float(s[i])!r}")
    with np.errstate(all="ignore"):
        return s ** (1.0 - spec.p) * a_val / b_val


def lift_quadruple(table: NormTable, s: float) -> tuple[float, float, float, float]:
    """Lift a scalar root to the norm quadruple via the common-ratio identity."""
    n1 = table.n_q1
    return (s, s * table.n_q2 / n1, s * table.m_r1 / n1, s * table.m_r2 / n1)


def system_residual(spec: ProblemSpec, table: NormTable, lam: float,
                    quadruple: tuple[float, float, float, float]) -> float:
    """Max relative residual of the four nonlocal system equations
    s_i^(1-p) = lambda (B/A) ||.||_i^(1-p) at the given quadruple."""
    s1, s2, t1, t2 = quadruple
    bound = spec.bound_params()
    a_val = eval_expr(spec.A, s1, t1, bound)
    b_val = eval_expr(spec.B, s2, t2, bound)
    ratio = lam * b_val / a_val
    worst = 0.0
    pm1 = 1.0 - spec.p
    for value, norm in ((s1, table.n_q1), (s2, table.n_q2), (t1, table.m_r1), (t2, table.m_r2)):
        lhs = value ** pm1
        rhs = ratio * norm ** pm1
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst


def _h_or_nan(h, s: float) -> float:
    """h(s), with coefficient failures mapped to NaN for bracket shrinking."""
    try:
        value = h(s)
    except (CoefficientError, EvalError, OverflowError):
        return math.nan
    return value


def _refine_bracket(h, lo: float, hi: float) -> float:
    """Brent refinement of a sign change of h on [lo, hi].

    Endpoints where h overflows or fails to evaluate are pulled inward
    geometrically first; the sign change survives by continuity.
    """
    flo, fhi = _h_or_nan(h, lo), _h_or_nan(h, hi)
    for _ in range(200):
        if math.isfinite(flo):
            break
        lo = math.sqrt(lo * hi)
        flo = _h_or_nan(h, lo)
    for _ in range(200):
        if math.isfinite(fhi):
            break
        hi = math.sqrt(lo * hi)
        fhi = _h_or_nan(h, hi)
    if not (math.isfinite(flo) and math.isfinite(fhi)) or flo * fhi > 0.0:
        raise RuntimeError(f"lost the sign change while shrinking bracket [{lo}, {hi}]")
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    return _brent(h, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def _brent(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Brent's root finder, a line-for-line port of the SciPy library's C ``brentq``.

    Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4:
    inverse quadratic or linear interpolation when it gains fast enough,
    bisection otherwise, stopping when half the bracket is below
    (xtol + rtol |x|) / 2.  The same arithmetic in the same order gives the
    same roots bit for bit.  A NaN value raises ValueError, as does a
    bracket without a sign change; RuntimeError means no convergence within
    maxiter iterations.
    """
    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C divides an underflowed denominator into +-inf or NaN,
                # which fails the step test below; Python would raise
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def _golden_min(f, lo: float, hi: float, iters: int = 120) -> tuple[float, float]:
    """Golden-section minimum of f over [lo, hi], searched in log space."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
        if b - a <= 1e-13:
            break
    if fc <= fd:
        return math.exp(c), fc
    return math.exp(d), fd


def _checked_window(table: NormTable,
                    window: tuple[float, float] | None) -> tuple[float, float]:
    if window is None:
        window = default_window(table)
    s_lo, s_hi = float(window[0]), float(window[1])
    if not (0.0 < s_lo < s_hi):
        raise ValueError(f"window must satisfy 0 < s_lo < s_hi, got {window!r}")
    if not math.isfinite(s_hi):
        raise ValueError(f"window must end at a finite s, got {window!r}")
    return s_lo, s_hi


def _scan(spec: ProblemSpec, table: NormTable, window: tuple[float, float],
          n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The log-spaced scan grid over the window and g on it.

    g does not depend on lambda (only the target does), so one scan serves
    every lambda of a sweep.
    """
    grid = np.geomspace(window[0], window[1], n_grid)
    return grid, _g_array(spec, table, grid)


@dataclass(frozen=True)
class _SweepContext:
    """What every solve of one sweep shares, since g does not depend on lambda.

    ``grid``/``g_grid`` are the window's ``_scan``, ``g`` is the one scalar g
    kernel, and ``g_fixed`` maps the lambda-independent points the solves
    visit (golden-section nodes of dips, the edge probes) to g there, so
    each of them is computed once per sweep.  A point where g raises is not
    kept: it raises again on every visit.
    """

    grid: np.ndarray
    g_grid: np.ndarray
    g: Callable[[float], float]
    g_fixed: dict[float, float]


def _sweep_context(spec: ProblemSpec, table: NormTable, window: tuple[float, float],
                   n_grid: int) -> _SweepContext:
    grid, g_grid = _scan(spec, table, window, n_grid)
    return _SweepContext(grid=grid, g_grid=g_grid, g=_g_kernel(spec, table), g_fixed={})


# event codes in _events are indices into this tuple; 0 means no event
_EVENT_KINDS = ("", "bracket", "gridzero", "dip")


def _events(grid: np.ndarray, sign: np.ndarray, abs_h: np.ndarray,
            cand_tol: float) -> list[tuple[int, str]]:
    """Candidate root locations on the scan grid as (index, kind), ascending in s.

    Kinds: "bracket" (sign change on [grid[i], grid[i+1]]), "gridzero"
    (h = 0 at grid[i]) and "dip" (a local minimum of |h| no larger than
    cand_tol with equal nonzero signs at i-1, i, i+1).  The kinds exclude
    each other, so every index carries at most one event.  NaN entries
    follow IEEE comparisons: they open brackets and are never zeros or dips.
    """
    kind = np.zeros(len(sign), dtype=np.int8)
    nonzero = sign != 0.0
    kind[~nonzero] = 2
    kind[:-1][nonzero[:-1] & nonzero[1:] & (sign[:-1] != sign[1:])] = 1
    centre = abs_h[1:-1]
    kind[1:-1][nonzero[1:-1] & (sign[:-2] == sign[1:-1]) & (sign[1:-1] == sign[2:])
               & (centre <= cand_tol) & (centre <= abs_h[:-2]) & (centre <= abs_h[2:])] = 3
    idx = np.flatnonzero(kind)
    # ascending s; where the grid repeats a value, brackets come before
    # grid zeros before dips
    idx = idx[np.lexsort((kind[idx], grid[idx]))]
    return [(int(i), _EVENT_KINDS[kind[i]]) for i in idx]


def solve_single(spec: ProblemSpec, table: NormTable, lam: float,
                 window: tuple[float, float] | None = None,
                 count_cap: int = 64, n_grid: int = 4096, *,
                 _scanned: _SweepContext | None = None) -> SolveResult:
    """All roots of g(s) = lambda ||U||_q1^(1-p) inside the window.

    Scans a log-spaced grid, refines sign changes by Brent's method to
    relative accuracy ~1e-12, and classifies refined near-zero local minima
    of |g - target| (relative size <= 1e-8) as tangential roots, counted
    once.  Roots are returned in ascending s, truncated at count_cap with
    the overflow flag set.  A sign change across a window boundary
    (detected by probing at window/4 and window*4) sets window_edge and the
    boundary root is reported with kind "window-edge" (excluded from
    ``count``).  Oscillations faster than the grid near the window ends may
    be undercounted; widen the window or raise n_grid in doubt.

    ``_scanned`` is the ``_SweepContext`` of this window, which ``sweep``
    builds once and passes to every solve; n_grid is then ignored.
    """
    if not (lam > 0.0) or not math.isfinite(lam):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    if count_cap < 1:
        raise ValueError("count_cap must be at least 1")
    s_lo, s_hi = _checked_window(table, window)

    target = lam * table.n_q1 ** (1.0 - spec.p)
    context = _sweep_context(spec, table, (s_lo, s_hi), n_grid) if _scanned is None else _scanned
    grid = context.grid
    h_grid = context.g_grid - target
    g, g_fixed = context.g, context.g_fixed
    # h at every point this solve has visited: Brent starts from the bracket
    # ends its caller just evaluated, and push revisits the refined root
    h_seen: dict[float, float] = {}

    def h(s: float) -> float:
        value = h_seen.get(s)
        if value is None:
            value = h_seen[s] = g(s) - target
        return value

    def h_fixed(s: float) -> float:
        """h at a lambda-independent point, with g there shared by the sweep."""
        value = h_seen.get(s)
        if value is None:
            g_s = g_fixed.get(s)
            if g_s is None:
                g_s = g_fixed[s] = g(s)
            value = h_seen[s] = g_s - target
        return value

    sign = np.sign(h_grid)
    events = _events(grid, sign, np.abs(h_grid), _CANDIDATE_TOL * abs(target))

    roots: list[Root] = []
    overflow = False

    def push(s_root: float, kind: str) -> None:
        res = abs(h(s_root)) / abs(target)
        roots.append(Root(s=s_root, kind=kind, residual=res,
                          quadruple=lift_quadruple(table, s_root)))

    for i, etype in events:
        if len(roots) >= count_cap:
            overflow = True
            break
        if etype == "bracket":
            push(_refine_bracket(h, float(grid[i]), float(grid[i + 1])), "transversal")
        elif etype == "gridzero":
            left = sign[i - 1] if i > 0 else 0.0
            right = sign[i + 1] if i < len(grid) - 1 else 0.0
            push(float(grid[i]), "transversal" if left * right < 0.0 else "tangential")
        else:  # dip
            sigma = float(sign[i])
            s_min, f_min = _golden_min(lambda s: sigma * h_fixed(s),
                                       float(grid[i - 1]), float(grid[i + 1]))
            tol = TANGENT_TOL * abs(target)
            if f_min > tol:
                continue
            if f_min >= -tol:
                push(s_min, "tangential")
            else:
                # the dip actually crosses zero twice inside one grid cell
                push(_refine_bracket(h, float(grid[i - 1]), s_min), "transversal")
                if len(roots) >= count_cap:
                    overflow = True
                    break
                push(_refine_bracket(h, s_min, float(grid[i + 1])), "transversal")

    # probe for roots just outside the window
    window_edge = False
    for outer, inner in ((s_lo / _EDGE_PROBE, s_lo), (s_hi, s_hi * _EDGE_PROBE)):
        f_out, f_in = _h_or_nan(h_fixed, outer), _h_or_nan(h_fixed, inner)
        if math.isfinite(f_out) and math.isfinite(f_in) and f_out * f_in < 0.0:
            window_edge = True
            try:
                push(_refine_bracket(h, outer, inner), "window-edge")
            except (CoefficientError, EvalError, RuntimeError):
                pass

    # de-duplicate near-coincident detections (transversal wins)
    roots.sort(key=lambda r: (r.s, r.kind != "transversal"))
    deduped: list[Root] = []
    for r in roots:
        if deduped and abs(r.s - deduped[-1].s) <= 1e-9 * max(r.s, deduped[-1].s):
            continue
        deduped.append(r)
    roots = deduped

    roots.sort(key=lambda r: r.s)
    return SolveResult(roots=tuple(roots), overflow=overflow, window_edge=window_edge,
                       lam=float(lam), target=target, window=(s_lo, s_hi))


def reconstruct(profile: Profile, table: NormTable, s: float,
                grid=None, n: int = 201, delta: float = 1e-3) -> ProfileSample:
    """Sample the solution u = (s / ||U||_q1) U and its derivative."""
    if not (s > 0.0):
        raise ValueError(f"scaling s must be positive, got {s!r}")
    sample = sample_profile(profile, grid, n, delta)
    scale = s / table.n_q1
    return replace(sample, values=scale * sample.values, derivs=scale * sample.derivs)


def nonlocal_residual(spec: ProblemSpec, table: NormTable, profile: Profile,
                      lam: float, s: float, grid=None, n: int = 101,
                      delta: float = 1e-3) -> float:
    """Max relative residual of A(s1,t1) u'' - lambda B(s2,t2) u^p on the grid,
    for the reconstruction u = (s/||U||_q1) U with u'' = (s/||U||_q1) U^p."""
    if grid is None:
        grid = symmetric_grid(n, delta)
    s1, s2, t1, t2 = lift_quadruple(table, s)
    bound = spec.bound_params()
    a_val = eval_expr(spec.A, s1, t1, bound)
    b_val = eval_expr(spec.B, s2, t2, bound)
    scale = s / table.n_q1
    worst = 0.0
    for u_profile in eval_U(profile, np.asarray(grid, dtype=float)).tolist():
        u_val = scale * u_profile
        upp = scale * u_profile ** spec.p
        lhs = a_val * upp
        rhs = lam * b_val * u_val ** spec.p
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _locate_threshold(spec: ProblemSpec, table: NormTable, lo: float, hi: float,
                      count_lo: int, count_hi: int, window, count_cap, context,
                      rel_tol: float = 1e-9) -> float:
    """Bisect lambda between differing counts, solving on the sweep's scan.

    A midpoint whose count differs from both endpoint counts sits inside the
    tangential band surrounding the exact threshold and is accepted as the
    threshold (the band's relative width ~TANGENT_TOL exceeds rel_tol).
    """
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if (hi - lo) <= rel_tol * mid:
            return mid
        c = solve_single(spec, table, mid, window, count_cap, _scanned=context).count
        if c == count_lo:
            lo = mid
        elif c == count_hi:
            hi = mid
        else:
            return mid
    return math.sqrt(lo * hi)


def sweep(spec: ProblemSpec, table: NormTable, lambda_grid,
          window: tuple[float, float] | None = None, count_cap: int = 64,
          n_grid: int = 4096, threads: int = 1) -> BifurcationDiagram:
    """Solve per lambda and locate count-change thresholds.

    Thresholds are bisected (in log-lambda) between adjacent grid values
    whose counts differ, to relative accuracy 1e-9 or until the tangential
    band is hit.  A threshold adjacent to an overflow-flagged lambda is
    marked unreliable.  The window is scanned once: g does not depend on
    lambda, so every per-lambda solve and every bisection step reuses the
    same grid values and the same scalar g kernel, and g at a
    lambda-independent point they revisit (a golden-section node, an edge
    probe) is computed once.  Solves run serially in grid order; ``threads`` is
    accepted for compatibility and has no effect.
    """
    lams = [float(l) for l in lambda_grid]
    if any(l <= 0.0 for l in lams) or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be positive and strictly increasing")
    if window is None:
        window = default_window(table)
    context = _sweep_context(spec, table, _checked_window(table, window), n_grid)
    results = [solve_single(spec, table, lam, window, count_cap, _scanned=context)
               for lam in lams]

    thresholds = []
    for (lam_a, res_a), (lam_b, res_b) in zip(zip(lams, results), zip(lams[1:], results[1:])):
        if res_a.count == res_b.count:
            continue
        value = _locate_threshold(spec, table, lam_a, lam_b, res_a.count, res_b.count,
                                  window, count_cap, context)
        thresholds.append(Threshold(lam=value, count_below=res_a.count,
                                    count_above=res_b.count,
                                    reliable=not (res_a.overflow or res_b.overflow)))
    return BifurcationDiagram(lambda_grid=tuple(lams), results=tuple(results),
                              thresholds=tuple(thresholds), window=tuple(window),
                              count_cap=count_cap)
