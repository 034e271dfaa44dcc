"""Built-in coefficient families with fully analytic bifurcation structure.

Each catalog entry fixes A(s, t) and B(s, t) so that the scalar reduction
g(s) = lambda ||U||_q1^(1-p) collapses to an elementary equation, giving
closed-form thresholds, counts and (where available) roots.  They are the
golden answers the generic engine is tested against.  With
n1 = ||U||_q1, n2 = ||U||_q2, m1 = ||U'||_r1, m2 = ||U'||_r2:

cor1  A = s^(p-1) (1+t), B = s + t:
      g(s) = (n1 + m1 s) / ((n2 + m2) s), strictly decreasing from
      +infinity to m1/(n2+m2).  One threshold n1^(p-1) m1 / (n2 + m2);
      counts 0 (at or below) then 1, with root
      s = n1^p / (lambda (n2 + m2) - n1^(p-1) m1).

cor2  A = s^p ((t-a)^2 + b), B = s + t  (parameters a, b > 0):
      g(s) = n1 ((m1 s / n1 - a)^2 + b) / (n2 + m2), a parabola in s.
      Thresholds b n1^p / (n2+m2) and (a^2+b) n1^p / (n2+m2);
      counts 0 / 1 (tangential) / 2 / 1, roots solving
      (m1 s / n1 - a)^2 + b = lambda (n2 + m2) / n1^p.

cor3  A = 2 + sin(s), B = t^(1-p):
      g(s) = (m2/n1)^(p-1) (2 + sin s); the equation becomes
      m2^(p-1) (2 + sin s) = lambda.  No roots outside
      [m2^(p-1), 3 m2^(p-1)], infinitely many inside.

cor4  A = exp(s), B = 1:
      g(s) = e^s s^(1-p), minimized at s = p-1 with value (e/(p-1))^(p-1).
      One threshold (e/(p-1))^(p-1) n1^(p-1); counts 0 / 1 (tangential) / 2.
      The two roots are Lambert-W branches, and for large lambda
          s1 ~ lambda^(-1/(p-1)) n1 (1 + lambda^(-1/(p-1)) n1 / (p-1)),
          s2 ~ log(lambda) + (p-1) log(log(lambda)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bifurcation import ProblemSpec, SolveResult, make_problem_spec, solve_single
from .norms import NormTable

__all__ = [
    "Scenario",
    "ScenarioReport",
    "INFINITE",
    "catalog",
    "get_scenario",
    "scenario_problem",
    "default_exponents",
    "analytic_thresholds",
    "analytic_count",
    "analytic_roots",
    "check_scenario",
    "cor4_asymptotics",
]

INFINITE = "infinite"

DEFAULT_EXPONENT_FRACTIONS = dict(q1=0.5, q2=0.7, r1=0.4, r2=0.6)


@dataclass(frozen=True)
class Scenario:
    name: str
    A_src: str
    B_src: str
    params: dict[str, float] = field(default_factory=dict)


_CATALOG = (
    Scenario("cor1", "s^(p-1)*(1+t)", "s+t"),
    Scenario("cor2", "s^p*((t-a)^2+b)", "s+t", {"a": 1.0, "b": 1.0}),
    Scenario("cor3", "2+sin(s)", "t^(1-p)"),
    Scenario("cor4", "exp(s)", "1"),
)


def catalog() -> tuple[Scenario, ...]:
    """The four built-in scenarios (cor2 carries default a = b = 1)."""
    return _CATALOG


def get_scenario(name: str, params: dict[str, float] | None = None) -> Scenario:
    for sc in _CATALOG:
        if sc.name == name:
            if params:
                merged = dict(sc.params)
                merged.update(params)
                return Scenario(sc.name, sc.A_src, sc.B_src, merged)
            return sc
    raise ValueError(f"unknown scenario {name!r}; choose from "
                     + ", ".join(sc.name for sc in _CATALOG))


def scenario_problem(scenario: Scenario, p: float, q1: float, q2: float,
                     r1: float, r2: float) -> ProblemSpec:
    """Instantiate the scenario's coefficients as a ProblemSpec."""
    return make_problem_spec(p, q1, q2, r1, r2, scenario.A_src, scenario.B_src,
                             scenario.params, scan_positivity=False)


def default_exponents(p: float) -> tuple[float, float, float, float]:
    """Exponents at fixed fractions of the admissible open ranges."""
    qb = (p - 1.0) / 2.0
    rb = (p - 1.0) / (p + 1.0)
    f = DEFAULT_EXPONENT_FRACTIONS
    return (f["q1"] * qb, f["q2"] * qb, f["r1"] * rb, f["r2"] * rb)


# ----------------------------------------------------------------------
# analytic predictions


def analytic_thresholds(scenario: Scenario, table: NormTable) -> list[float]:
    n1, n2, m1, m2 = table.n_q1, table.n_q2, table.m_r1, table.m_r2
    p = table.p
    if scenario.name == "cor1":
        return [n1 ** (p - 1.0) * m1 / (n2 + m2)]
    if scenario.name == "cor2":
        a, b = scenario.params["a"], scenario.params["b"]
        base = n1 ** p / (n2 + m2)
        return [b * base, (a * a + b) * base]
    if scenario.name == "cor3":
        return [m2 ** (p - 1.0), 3.0 * m2 ** (p - 1.0)]
    if scenario.name == "cor4":
        return [(math.e / (p - 1.0)) ** (p - 1.0) * n1 ** (p - 1.0)]
    raise ValueError(f"unknown scenario {scenario.name!r}")


def analytic_count(scenario: Scenario, table: NormTable, lam: float):
    """Exact solution count at lambda; INFINITE for the oscillatory band."""
    th = analytic_thresholds(scenario, table)
    if scenario.name == "cor1":
        return 0 if lam <= th[0] else 1
    if scenario.name == "cor2":
        if lam < th[0]:
            return 0
        if lam == th[0]:
            return 1
        if lam < th[1]:
            return 2
        return 1
    if scenario.name == "cor3":
        return INFINITE if th[0] <= lam <= th[1] else 0
    if scenario.name == "cor4":
        if lam < th[0]:
            return 0
        if lam == th[0]:
            return 1
        return 2
    raise ValueError(f"unknown scenario {scenario.name!r}")


def analytic_roots(scenario: Scenario, table: NormTable, lam: float,
                   max_roots: int = 64) -> list[float] | None:
    """Closed-form (or independently solved) roots in ascending order.

    cor3 returns the first max_roots band solutions; cor4 finds the
    logarithms of its two roots by Newton's method in double precision.
    Returns None when no closed form applies (count zero returns an empty
    list).
    """
    n1, n2, m1, m2 = table.n_q1, table.n_q2, table.m_r1, table.m_r2
    p = table.p
    if scenario.name == "cor1":
        denom = lam * (n2 + m2) - n1 ** (p - 1.0) * m1
        return [n1 ** p / denom] if denom > 0.0 else []
    if scenario.name == "cor2":
        a, b = scenario.params["a"], scenario.params["b"]
        alpha = m1 / n1
        disc = lam * (n2 + m2) / n1 ** p - b
        if disc < 0.0:
            return []
        root = math.sqrt(disc)
        return sorted(s for s in ((a - root) / alpha, (a + root) / alpha) if s > 0.0)
    if scenario.name == "cor3":
        level = lam / m2 ** (p - 1.0) - 2.0
        if not -1.0 <= level <= 1.0:
            return []
        base = math.asin(level)
        out = []
        k = 0
        while len(out) < max_roots:
            for cand in (base + 2.0 * math.pi * k, math.pi - base + 2.0 * math.pi * k):
                if cand > 0.0:
                    out.append(cand)
            k += 1
        return sorted(set(out))[:max_roots]
    if scenario.name == "cor4":
        # e^s s^(1-p) = lam n1^(1-p); in u = ln s this is psi(u) = 0 with
        # psi(u) = e^u - m u - L, m = p-1, L = ln lam + (1-p) ln n1.  psi is
        # convex with its minimum at ln m, so Newton started where psi > 0
        # moves monotonically to the root on that side.  It stops where
        # rounding ends that: at psi <= 0, a step across ln m, or no move.
        m = p - 1.0
        L = math.log(lam) + (1.0 - p) * math.log(n1)
        u_min = math.log(m)

        def psi(u: float) -> float:
            return math.exp(u) - m * u - L

        if psi(u_min) > 0.0:
            return []
        d = 1.0
        while psi(u_min + d) <= 0.0:
            d *= 2.0
        roots = []
        for u in (-L / m, u_min + d):
            side = u - u_min
            for _ in range(200):
                f, slope = psi(u), math.exp(u) - m
                nxt = u - f / slope if f > 0.0 and slope * side > 0.0 else u
                if nxt == u or (nxt - u_min) * side <= 0.0:
                    break
                u = nxt
            else:
                raise RuntimeError(f"cor4 Newton iteration did not converge at lambda={lam!r}")
            roots.append(math.exp(u))
        return roots
    return None


# ----------------------------------------------------------------------
# engine-vs-analytic comparison


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    lam: float
    expected_count: object
    solve: SolveResult
    root_errors: tuple[float, ...]
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.messages


def check_scenario(scenario: Scenario, spec: ProblemSpec, table: NormTable,
                   lam: float, window=None, count_cap: int = 64,
                   rel_tol: float = 1e-8) -> ScenarioReport:
    """Run solve_single and compare count and root values with the analytic
    predictions; mismatches are reported, not raised."""
    result = solve_single(spec, table, lam, window=window, count_cap=count_cap)
    expected = analytic_count(scenario, table, lam)
    messages: list[str] = []
    root_errors: tuple[float, ...] = ()
    if expected == INFINITE:
        if not (result.overflow or result.count >= count_cap):
            messages.append(
                f"expected an overflowing root count inside the band, got {result.count}")
    elif result.count != expected:
        messages.append(f"count mismatch: engine {result.count}, analytic {expected}")
    predicted = analytic_roots(scenario, table, lam, max_roots=count_cap)
    if predicted is not None and expected != INFINITE and result.count == expected:
        got = [r.s for r in result.roots if r.kind != "window-edge"]
        errors = []
        for s_num, s_ref in zip(got, predicted):
            err = abs(s_num - s_ref) / abs(s_ref)
            errors.append(err)
            tol = rel_tol if all(r.kind == "transversal" for r in result.roots) else 1e-4
            if err > tol:
                messages.append(f"root {s_num!r} vs analytic {s_ref!r}: rel err {err:.3e}")
        root_errors = tuple(errors)
    return ScenarioReport(scenario=scenario.name, lam=lam, expected_count=expected,
                          solve=result, root_errors=root_errors, messages=tuple(messages))


def cor4_asymptotics(table: NormTable, lam: float) -> tuple[float, float]:
    """Large-lambda predictions for the two exponential-coefficient roots.

    s1 ~ lambda^(-1/(p-1)) n1 (1 + lambda^(-1/(p-1)) n1 / (p-1))  (two-term),
    s2 ~ log(lambda) + (p-1) log(log(lambda))                      (leading).
    """
    p, n1 = table.p, table.n_q1
    lead = lam ** (-1.0 / (p - 1.0)) * n1
    s1 = lead * (1.0 + lead / (p - 1.0))
    s2 = math.log(lam) + (p - 1.0) * math.log(math.log(lam))
    return s1, s2
