"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import random
import subprocess
import sys

import numpy as np

from blowup.bifurcation import (
    make_problem_spec,
    nonlocal_residual,
    solve_single,
    sweep,
    system_residual,
)
from blowup.expcase import (
    eval_U_lambda,
    exp_prime_norm,
    make_exp_problem_spec,
    make_exp_profile,
    solve_exp,
)
from blowup.norms import make_norm_table, norm_U, norm_U_prime
from blowup.oracles import (
    deriv_norm_quadrature,
    exp_deriv_norm_x_quadrature,
    norm_quadrature,
    rk_profile,
)
from blowup.scenarios import (
    analytic_thresholds,
    cor4_asymptotics,
    default_exponents,
    get_scenario,
    scenario_problem,
)
from blowup.specfun import beta
from blowup.timemap import eval_U, make_profile, ode_residual, time_map


def _criterion(num: int, description: str, ok: bool):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_special_functions():
    ok = (
        abs(beta(0.5, 0.5) - math.pi) / math.pi <= 1e-13
        and abs(beta(1.0, 1.0) - 1.0) <= 1e-13
        and abs(beta(0.25, 0.75) - math.pi * math.sqrt(2.0)) / (math.pi * math.sqrt(2.0)) <= 1e-12
    )
    _criterion(1, "B(1/2,1/2)=pi, B(1,1)=1 (1e-13); B(1/4,3/4)=pi*sqrt(2) (1e-12)", ok)


def test_criterion_2_profile_correctness():
    ok = True
    for p in (2.0, 3.0, 5.0):
        profile = make_profile(p)
        ok &= ode_residual(profile, 0.1) <= 1e-5
        worst = max(abs(time_map(profile, eval_U(profile, x) / profile.mu_p) - profile.L_p * x)
                    for x in np.linspace(0.0, 0.999, 101))
        ok &= worst <= 1e-9
        u_rk, _ = rk_profile(p, profile.mu_p, 0.9)
        ok &= abs(eval_U(profile, 0.9) - u_rk) / u_rk <= 1e-7
    _criterion(2, "p in {2,3,5}: ode residual <= 1e-5, time-map consistency <= 1e-9, "
                  "RK oracle at x=0.9 <= 1e-7", ok)


def test_criterion_3_norm_closed_forms():
    fractions = (0.15, 0.3, 0.5, 0.7, 0.85)
    ok = True
    for p in (2.0, 3.0, 5.0):
        mu = make_profile(p).mu_p
        q_devs = {}
        r_devs = {}
        for f in fractions:
            q = f * (p - 1.0) / 2.0
            r = f * (p - 1.0) / (p + 1.0)
            q_devs[f] = abs(norm_U(p, q, mu) - norm_quadrature(p, q, mu)) / norm_U(p, q, mu)
            r_devs[f] = (abs(norm_U_prime(p, r, mu) - deriv_norm_quadrature(p, r, mu))
                         / norm_U_prime(p, r, mu))
        for fq in fractions:
            for fr in fractions:
                ok &= q_devs[fq] <= 1e-7 and r_devs[fr] <= 1e-7
    _criterion(3, "closed-form norms vs quadrature oracle <= 1e-7 on the 5x5 (q,r) grid, "
                  "p in {2,3,5}", ok)


def _random_positive_expr(rng: random.Random) -> str:
    """Documented family: sums (optionally a product of two sums) of terms
    c, c*s^e, c*t^e, c*(0.1+exp(-d*s)), c*(2+sin(s)) with c in [0.3, 3],
    e in {0.5, 1, 2}, d in [0.05, 0.5] — positive on (0, inf)^2 by construction."""

    def term() -> str:
        c = round(rng.uniform(0.3, 3.0), 3)
        kind = rng.randrange(5)
        if kind == 0:
            return f"{c}"
        if kind == 1:
            return f"{c}*s^{rng.choice(('0.5', '1', '2'))}"
        if kind == 2:
            return f"{c}*t^{rng.choice(('0.5', '1', '2'))}"
        if kind == 3:
            return f"{c}*(0.1+exp(-{round(rng.uniform(0.05, 0.5), 3)}*s))"
        return f"{c}*(2+sin(s))"

    body = "+".join(term() for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.4:
        return f"({body})*({term()})"
    return body


def test_criterion_4_reduction_equivalence_random_family():
    rng = random.Random(413)
    p = 3.0
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    profile = make_profile(p)
    grid = None  # shared default grid keeps the profile cache hot
    worst_sys, worst_ode, n_roots = 0.0, 0.0, 0
    from blowup.bifurcation import g_of_s

    for _ in range(20):
        spec = make_problem_spec(p, q1, q2, r1, r2,
                                 _random_positive_expr(rng), _random_positive_expr(rng))
        for _ in range(10):
            s0 = table.n_q1 * 10.0 ** rng.uniform(-2.0, 2.0)
            lam = g_of_s(spec, table, s0) * table.n_q1 ** (p - 1.0)
            result = solve_single(spec, table, lam)
            for root in result.roots:
                if root.kind == "window-edge":
                    continue
                n_roots += 1
                worst_sys = max(worst_sys, system_residual(spec, table, lam, root.quadruple))
                worst_ode = max(worst_ode, nonlocal_residual(spec, table, profile, lam,
                                                             root.s, grid=grid))
    ok = worst_sys <= 1e-9 and worst_ode <= 1e-7 and n_roots >= 200
    _criterion(4, f"{n_roots} roots from 20 random (A,B) x 10 lambdas: system residual "
                  f"{worst_sys:.2e} <= 1e-9, nonlocal residual {worst_ode:.2e} <= 1e-7", ok)


def test_criterion_5_cor1():
    p = 3.0
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    sc = get_scenario("cor1")
    spec = scenario_problem(sc, p, q1, q2, r1, r2)
    th = analytic_thresholds(sc, table)[0]
    window = (1e-6 * table.n_q1, 1e9 * table.n_q1)  # near-threshold root runs to infinity
    diagram = sweep(spec, table, list(np.geomspace(0.3 * th, 3.0 * th, 7)), window=window)
    counts = diagram.counts
    pattern_ok = (all(c == 0 for l, c in zip(diagram.lambda_grid, counts) if l < th)
                  and all(c == 1 for l, c in zip(diagram.lambda_grid, counts) if l > th))
    th_ok = (len(diagram.thresholds) == 1
             and abs(diagram.thresholds[0].lam - th) / th <= 1e-7)
    lam = 2.0 * th
    root = solve_single(spec, table, lam, window=window).roots[0]
    s_ref = table.n_q1 ** p / (lam * (table.n_q2 + table.m_r2) - table.n_q1 ** (p - 1.0) * table.m_r1)
    root_ok = abs(root.s - s_ref) / s_ref <= 1e-8
    _criterion(5, "cor1 count 0 -> 1, threshold to 1e-7, closed-form root to 1e-8",
               pattern_ok and th_ok and root_ok)


def test_criterion_6_cor2():
    p = 3.0
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    sc = get_scenario("cor2", {"a": 1.0, "b": 1.0})
    spec = scenario_problem(sc, p, q1, q2, r1, r2)
    t1, t2 = analytic_thresholds(sc, table)
    window = (1e-12 * table.n_q1, 1e6 * table.n_q1)  # near t2 one root runs to zero
    diagram = sweep(spec, table, list(np.geomspace(0.4 * t1, 3.0 * t2, 9)), window=window)
    regime = {0: 0, 1: 2, 2: 1}
    pattern_ok = all(
        c == regime[sum(lam > t for t in (t1, t2))]
        for lam, c in zip(diagram.lambda_grid, diagram.counts))
    th_ok = (len(diagram.thresholds) == 2
             and abs(diagram.thresholds[0].lam - t1) / t1 <= 1e-7
             and abs(diagram.thresholds[1].lam - t2) / t2 <= 1e-7)
    at_t1 = solve_single(spec, table, t1, window=window)
    tang_ok = at_t1.count == 1 and at_t1.roots[0].kind == "tangential"
    _criterion(6, "cor2 (a=b=1, p=3) pattern 0/1/2/1, thresholds to 1e-7, "
                  "tangential at the lower threshold", pattern_ok and th_ok and tang_ok)


def test_criterion_7_cor3():
    p = 3.0
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    sc = get_scenario("cor3")
    spec = scenario_problem(sc, p, q1, q2, r1, r2)
    lo, hi = analytic_thresholds(sc, table)
    window = (1e-3, 1e5)
    below = solve_single(spec, table, 0.99 * lo, window=window)
    above = solve_single(spec, table, 1.01 * hi, window=window)
    inside = solve_single(spec, table, math.sqrt(lo * hi), window=window, count_cap=64)
    ok = (below.count == 0 and above.count == 0
          and inside.count == 64 and inside.overflow)
    _criterion(7, "cor3 count 0 strictly outside the band; count_cap=64 with overflow "
                  "inside on window (1e-3, 1e5)", ok)


def test_criterion_8_cor4_asymptotics():
    # [0.9, 1.1] at lambda = 1e16 requires ||U||_q1 near 1: p = 8, q1 = 2
    p, q1, q2, r1, r2 = 8.0, 2.0, 2.5, 0.3, 0.5
    table = make_norm_table(p, q1, q2, r1, r2)
    spec = scenario_problem(get_scenario("cor4"), p, q1, q2, r1, r2)

    def roots_at(lam):
        window = (1e-12 * table.n_q1, 1e3 * math.log(lam))
        return [r.s for r in solve_single(spec, table, lam, window=window).roots
                if r.kind != "window-edge"]

    errors = []
    for lam in (1e4, 1e6, 1e8):
        s1 = roots_at(lam)[0]
        errors.append(abs(s1 - cor4_asymptotics(table, lam)[0]) / s1)
    monotone = errors[0] > errors[1] > errors[2]

    def ratio(lam):
        s2 = roots_at(lam)[-1]
        return (s2 - math.log(lam)) / ((p - 1.0) * math.log(math.log(lam)))

    r4, r16 = ratio(1e4), ratio(1e16)
    ok = monotone and 0.5 <= r4 <= 2.0 and 0.9 <= r16 <= 1.1
    _criterion(8, f"cor4 s1 two-term errors decreasing {[f'{e:.1e}' for e in errors]}; "
                  f"s2 ratio {r4:.3f} in [0.5,2] at 1e4 and {r16:.3f} in [0.9,1.1] at 1e16", ok)


def test_criterion_9_exponential_case():
    norm_ok = abs(exp_prime_norm(0.5) ** 0.5 - 2.0 * math.sqrt(2.0 * math.pi)) \
        / (2.0 * math.sqrt(2.0 * math.pi)) <= 1e-10
    # lambda-independence through the sampled pipeline at 1e-7
    r = 0.5
    oracle = exp_deriv_norm_x_quadrature(r)
    indep_ok = all(abs(exp_prime_norm(r) - oracle) / oracle <= 1e-7 for _ in (0.1, 1.0, 10.0))
    samples = [solve_exp(make_exp_problem_spec(r, r, "1", "1", lam)).sample.derivs
               for lam in (0.1, 1.0, 10.0)]
    indep_ok &= all(np.array_equal(samples[0], s) for s in samples[1:])

    lam = 2.0
    spec = make_exp_problem_spec(0.4, 0.6, "1+t", "2+t", lam)
    sol = solve_exp(spec)
    prof = make_exp_profile(lam)
    a_val, b_val = 1.0 + sol.deriv_norm_r1, 2.0 + sol.deriv_norm_r2
    h = 1e-3
    worst = 0.0
    for x in np.linspace(-0.9, 0.9, 37):
        u = [eval_U_lambda(prof, x + k * h) - sol.shift for k in (-2, -1, 0, 1, 2)]
        upp = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h * h)
        rhs = lam * b_val * math.exp(u[2])
        worst = max(worst, abs(a_val * upp - rhs) / rhs)
    residual_ok = worst <= 1e-7
    back_ok = all(abs(u + sol.shift - eval_U_lambda(prof, x)) <= 1e-10
                  for x, u in zip(sol.sample.grid, sol.sample.values))
    _criterion(9, f"exp case: norm value 1e-10, lambda-independence 1e-7, "
                  f"residual {worst:.2e} <= 1e-7, back-substitution 1e-10",
               norm_ok and indep_ok and residual_ok and back_ok)


def test_criterion_10_sweep_determinism(tmp_path, child_env):
    cfg = {"p": 3.0, "q1": 0.5, "q2": 0.7, "r1": 0.2, "r2": 0.3, "scenario": "cor4",
           "lambda_min": 100.0, "lambda_max": 2000.0, "lambda_n": 4, "format": "csv"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"sweep_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "blowup", "sweep", "--config", str(cfg_path),
             "--output", str(out)],
            capture_output=True, env={**child_env, "BLOWUP_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _criterion(10, "cmd_sweep byte-identical with BLOWUP_THREADS in {1, 4}", ok)
