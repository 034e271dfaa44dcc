"""The bundled oracle suite behind the ``verify`` CLI subcommand.

Runs every closed form against its independent numerical route and reports
measured versus allowed error per check.  ``perturb_norms`` multiplies the
closed-form norm values by (1 + eps) before comparison — a fault-injection
mode proving the oracle comparisons actually bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .bifurcation import solve_single
from .expcase import (
    eval_U_lambda,
    exp_prime_norm,
    make_exp_problem_spec,
    make_exp_profile,
    solve_exp,
)
from .norms import make_norm_table, norm_U, norm_U_prime
from .scenarios import (
    analytic_thresholds,
    catalog,
    check_scenario,
    cor4_asymptotics,
    default_exponents,
    get_scenario,
    scenario_problem,
)
from .specfun import beta
from .timemap import eval_U, make_profile, ode_residual, time_map, time_map_inverse

__all__ = ["Check", "run_verification", "format_report"]


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    allowed: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.allowed


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _specfun_checks() -> list[Check]:
    checks = [
        Check("beta(1,1) = 1", _rel(beta(1.0, 1.0), 1.0), 1e-13),
        Check("beta(1/2,1/2) = pi", _rel(beta(0.5, 0.5), math.pi), 1e-13),
        Check("beta(1/4,3/4) = pi*sqrt(2)", _rel(beta(0.25, 0.75), math.pi * math.sqrt(2.0)), 1e-12),
    ]
    for x, y in ((0.3, 2.5), (1.7, 0.45), (5.0, 5.0)):
        checks.append(Check(f"beta({x},{y}) vs integral oracle",
                            _rel(beta(x, y), oracles.beta_integral(x, y)), 1e-9))
    return checks


def _profile_checks(p: float) -> list[Check]:
    profile = make_profile(p)
    zs = np.linspace(0.0, 0.999 * profile.L_p, 40)
    checks = [
        Check(f"p={p} L_p closed vs quadrature",
              _rel(profile.L_p, oracles.profile_length_quadrature(p)), 1e-9),
        Check(f"p={p} time map y=2 vs midpoint oracle",
              abs(time_map(profile, 2.0) - oracles.time_map_midpoint(p, 2.0)), 1e-10),
        Check(f"p={p} inverse round trip",
              max(abs(time_map(profile, y) - z)
                  for y, z in zip(time_map_inverse(profile, zs).tolist(), zs)), 1e-10),
        Check(f"p={p} ode residual delta=0.1", ode_residual(profile, 0.1), 1e-5),
    ]
    u_rk, _ = oracles.rk_profile(p, profile.mu_p, 0.9)
    checks.append(Check(f"p={p} RK oracle at x=0.9", _rel(eval_U(profile, 0.9), u_rk), 1e-7))
    xs = np.linspace(0.0, 0.999, 40)
    worst = max(abs(time_map(profile, u / profile.mu_p) - profile.L_p * x)
                for u, x in zip(eval_U(profile, xs).tolist(), xs))
    checks.append(Check(f"p={p} time-map consistency", worst, 1e-9))
    return checks


def _norm_checks(p: float, perturb: float) -> list[Check]:
    profile = make_profile(p)
    mu = profile.mu_p
    q_bound = (p - 1.0) / 2.0
    r_bound = (p - 1.0) / (p + 1.0)
    checks = []
    for frac in (0.3, 0.7):
        q = frac * q_bound
        closed = norm_U(p, q, mu) * (1.0 + perturb)
        checks.append(Check(f"p={p} ||U||_q q={q:.4g} closed vs t-space oracle",
                            _rel(closed, oracles.norm_quadrature(p, q, mu)), 1e-7))
        r = frac * r_bound
        closed = norm_U_prime(p, r, mu) * (1.0 + perturb)
        checks.append(Check(f"p={p} ||U'||_r r={r:.4g} closed vs t-space oracle",
                            _rel(closed, oracles.deriv_norm_quadrature(p, r, mu)), 1e-7))
    if p == 3.0:
        r = 1.0 / 3.0
        closed = norm_U_prime(p, r, mu) * (1.0 + perturb)
        checks.append(Check("p=3.0 ||U'||_r r=1/3 closed vs x-space oracle",
                            _rel(closed, oracles.deriv_norm_x_quadrature(profile, r)), 1e-7))
    return checks


def _scenario_checks(p: float, only: str | None = None) -> list[Check]:
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    checks = []
    for sc in catalog():
        if only is not None and sc.name != only:
            continue
        spec = scenario_problem(sc, p, q1, q2, r1, r2)
        th = analytic_thresholds(sc, table)
        if sc.name == "cor3":
            lams = (0.5 * th[0], math.sqrt(th[0] * th[1]), 1.5 * th[1])
            window = (1e-3, 1e5)
        elif sc.name == "cor1":
            lams = (0.5 * th[0], 4.0 * th[0])
            window = (1e-9 * table.n_q1, 1e9 * table.n_q1)
        else:
            lams = (0.5 * th[0], 2.0 * th[-1])
            if len(th) > 1:
                lams += (math.sqrt(th[0] * th[1]),)
            window = (1e-9 * table.n_q1, 1e6 * table.n_q1)
        for lam in lams:
            rep = check_scenario(sc, spec, table, lam, window=window)
            checks.append(Check(f"p={p} scenario {sc.name} at lambda={lam:.6g}",
                                0.0 if rep.passed else 1.0, 0.5))
    return checks


def _asymptotic_checks() -> list[Check]:
    # the asymptotic regime needs ||U||_q1 near 1, hence the large exponent
    p, q1, q2, r1, r2 = 8.0, 2.0, 2.5, 0.3, 0.5
    table = make_norm_table(p, q1, q2, r1, r2)
    sc = get_scenario("cor4")
    spec = scenario_problem(sc, p, q1, q2, r1, r2)
    errors = []
    ratios = {}
    for lam in (1e4, 1e6, 1e8, 1e16):
        window = (1e-12 * table.n_q1, 1e3 * math.log(lam))
        res = solve_single(spec, table, lam, window=window)
        roots = [r.s for r in res.roots if r.kind != "window-edge"]
        s1_pred, _ = cor4_asymptotics(table, lam)
        if lam <= 1e8:
            errors.append(_rel(roots[0], s1_pred))
        ratios[lam] = (roots[-1] - math.log(lam)) / ((p - 1.0) * math.log(math.log(lam)))
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    return [
        Check("cor4 s1 two-term error monotone decreasing", 0.0 if monotone else 1.0, 0.5),
        Check("cor4 s2 ratio at lambda=1e4 in [0.5,2]", abs(ratios[1e4] - 1.25), 0.75),
        Check("cor4 s2 ratio at lambda=1e16 in [0.9,1.1]", abs(ratios[1e16] - 1.0), 0.1),
    ]


def _exp_checks(perturb: float) -> list[Check]:
    checks = [
        Check("exp case ||U'||_{1/2}^{1/2} = 2 sqrt(2 pi)",
              _rel(exp_prime_norm(0.5) ** 0.5 * (1.0 + perturb),
                   2.0 * math.sqrt(2.0 * math.pi)), 1e-10),
    ]
    oracle = oracles.exp_deriv_norm_x_quadrature(0.5)
    checks.append(Check("exp case norm lambda-independence (x-space oracle)",
                        _rel(exp_prime_norm(0.5) * (1.0 + perturb), oracle), 1e-7))
    spec = make_exp_problem_spec(0.4, 0.6, "1+t", "2+t", 2.0)
    sol = solve_exp(spec)
    # residual of A u'' - lambda B e^u with u'' by 5-point finite differences
    a_val = 1.0 + sol.deriv_norm_r1
    b_val = 2.0 + sol.deriv_norm_r2
    prof = make_exp_profile(spec.lam)
    h = 1e-3
    worst = 0.0
    for x in np.linspace(-0.9, 0.9, 41):
        u = [eval_U_lambda(prof, x + k * h) - sol.shift for k in (-2, -1, 0, 1, 2)]
        upp = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h * h)
        rhs = spec.lam * b_val * math.exp(u[2])
        worst = max(worst, abs(a_val * upp - rhs) / abs(rhs))
    checks.append(Check("exp case nonlocal residual A='1+t' B='2+t'", worst, 1e-7))
    return checks


def run_verification(ps: tuple[float, ...] = (2.0, 3.0), perturb_norms: float = 0.0,
                     scenario: str | None = None, asymptotics: bool = False) -> list[Check]:
    """Run the oracle suite; returns the list of checks (all must pass)."""
    if scenario is not None and asymptotics:
        checks = _asymptotic_checks() if scenario == "cor4" else []
        checks.extend(c for p in ps for c in _scenario_checks(p, only=scenario))
        return checks
    checks = _specfun_checks()
    for p in ps:
        checks.extend(_profile_checks(p))
        checks.extend(_norm_checks(p, perturb_norms))
        checks.extend(_scenario_checks(p, only=scenario))
    checks.extend(_exp_checks(perturb_norms))
    if asymptotics:
        checks.extend(_asymptotic_checks())
    return checks


def format_report(checks: list[Check]) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{status}  {c.name}: measured {c.measured:.3e} allowed {c.allowed:.3e}")
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)
