"""Catalog scenarios: engine results against the analytic structure."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blowup.bifurcation import solve_single, sweep
from blowup.norms import make_norm_table
from blowup.scenarios import (
    INFINITE,
    analytic_count,
    analytic_roots,
    analytic_thresholds,
    catalog,
    check_scenario,
    cor4_asymptotics,
    default_exponents,
    get_scenario,
    scenario_problem,
)


@pytest.fixture(scope="module")
def setup3():
    p = 3.0
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1, q2, r1, r2)
    specs = {sc.name: scenario_problem(sc, p, q1, q2, r1, r2) for sc in catalog()}
    return table, specs


def test_catalog_contents():
    names = [sc.name for sc in catalog()]
    assert names == ["cor1", "cor2", "cor3", "cor4"]
    sc2 = get_scenario("cor2", {"a": 2.0, "b": 0.5})
    assert sc2.params == {"a": 2.0, "b": 0.5}
    with pytest.raises(ValueError):
        get_scenario("cor9")


def test_cor1_threshold_count_and_root(setup3):
    table, specs = setup3
    sc = get_scenario("cor1")
    th = analytic_thresholds(sc, table)[0]
    n1, n2, m1, m2 = table.n_q1, table.n_q2, table.m_r1, table.m_r2
    assert th == pytest.approx(n1 ** 2.0 * m1 / (n2 + m2), rel=1e-15)
    assert analytic_count(sc, table, th) == 0          # no solution at the threshold itself
    assert analytic_count(sc, table, 1.01 * th) == 1
    lam = 2.0 * th
    rep = check_scenario(sc, specs["cor1"], table, lam)
    assert rep.passed, rep.messages
    s_expected = n1 ** 3.0 / (lam * (n2 + m2) - n1 ** 2.0 * m1)
    assert rep.solve.roots[0].s == pytest.approx(s_expected, rel=1e-8)


def test_cor2_regimes(setup3):
    table, specs = setup3
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0):
            sc = get_scenario("cor2", {"a": a, "b": b})
            spec = scenario_problem(sc, table.p, table.q1, table.q2, table.r1, table.r2)
            t1, t2 = analytic_thresholds(sc, table)
            assert t1 < t2
            counts = []
            for lam in (0.5 * t1, t1, math.sqrt(t1 * t2), 2.0 * t2):
                rep = check_scenario(sc, spec, table, lam)
                assert rep.passed, (a, b, lam, rep.messages)
                counts.append(rep.solve.count)
            assert counts == [0, 1, 2, 1]


def test_cor2_tangential_at_lower_threshold(setup3):
    table, specs = setup3
    sc = get_scenario("cor2")
    t1, _ = analytic_thresholds(sc, table)
    result = solve_single(specs["cor2"], table, t1)
    assert result.count == 1
    assert result.roots[0].kind == "tangential"
    # double root at s = a / (m1 / n1)
    assert result.roots[0].s == pytest.approx(table.n_q1 / table.m_r1, rel=1e-4)


def test_cor3_band(setup3):
    table, specs = setup3
    sc = get_scenario("cor3")
    lo, hi = analytic_thresholds(sc, table)
    assert lo == pytest.approx(table.m_r2 ** 2.0, rel=1e-15)
    assert hi == pytest.approx(3.0 * table.m_r2 ** 2.0, rel=1e-15)
    assert analytic_count(sc, table, 0.99 * lo) == 0
    assert analytic_count(sc, table, lo) == INFINITE
    window = (1e-3, 1e5)
    lam = math.sqrt(lo * hi)
    result = solve_single(specs["cor3"], table, lam, window=window, count_cap=64)
    assert result.overflow and result.count == 64
    level = table.m_r2 ** 2.0
    for root in result.roots:
        assert level * (2.0 + math.sin(root.s)) == pytest.approx(lam, rel=1e-9)
    predicted = analytic_roots(sc, table, lam, max_roots=64)
    for got, ref in zip([r.s for r in result.roots], predicted):
        assert got == pytest.approx(ref, rel=1e-9)
    assert solve_single(specs["cor3"], table, 0.98 * lo, window=window).count == 0
    assert solve_single(specs["cor3"], table, 1.02 * hi, window=window).count == 0


def test_cor4_counts_and_roots(setup3):
    table, specs = setup3
    sc = get_scenario("cor4")
    th = analytic_thresholds(sc, table)[0]
    p = table.p
    assert th == pytest.approx((math.e / (p - 1.0)) ** (p - 1.0) * table.n_q1 ** (p - 1.0),
                               rel=1e-14)
    rep0 = check_scenario(sc, specs["cor4"], table, 0.5 * th)
    assert rep0.passed and rep0.solve.count == 0
    result = solve_single(specs["cor4"], table, th)
    assert result.count == 1 and result.roots[0].kind == "tangential"
    assert result.roots[0].s == pytest.approx(p - 1.0, rel=1e-4)
    rep2 = check_scenario(sc, specs["cor4"], table, 5.0 * th)
    assert rep2.passed, rep2.messages
    assert rep2.solve.count == 2
    assert max(rep2.root_errors) <= 1e-8


def _cor4_lambertw(p: float, n1: float, lam: float) -> list[float]:
    """Both cor4 roots -(p-1) W_k(-c^(-1/(p-1)) / (p-1)), k = 0, -1, c = lam n1^(1-p),
    at 50 digits from the exact doubles p, n1, lam."""
    with mpmath.workdps(50):
        m = mpmath.mpf(p) - 1
        c = mpmath.mpf(lam) * mpmath.mpf(n1) ** (-m)
        arg = -c ** (-1 / m) / m
        if arg < -mpmath.exp(-1):
            return []
        return sorted(float(-m * mpmath.re(mpmath.lambertw(arg, k))) for k in (0, -1))


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.05, 50.0), q1_frac=st.floats(0.1, 0.9),
       log_gap=st.floats(-10.0, 30.0), above=st.booleans())
def test_cor4_roots_match_lambertw(p, q1_frac, log_gap, above):
    q1, q2, r1, r2 = default_exponents(p)
    table = make_norm_table(p, q1_frac * (p - 1.0) / 2.0, q2, r1, r2)
    sc = get_scenario("cor4")
    th = analytic_thresholds(sc, table)[0]
    gap = 10.0 ** log_gap
    lam = th * (1.0 + gap) if above else th / (1.0 + gap)
    expected = _cor4_lambertw(p, table.n_q1, lam)
    assume(all(sys.float_info.min <= s <= sys.float_info.max for s in expected))
    got = analytic_roots(sc, table, lam)
    assert len(got) == len(expected) == (2 if above else 0)
    tol = 1e-11 if gap >= 1e-6 else 1e-8
    for s, ref in zip(got, expected):
        assert abs(s - ref) <= tol * ref, (s, ref)


def test_cor4_asymptotic_trends():
    # needs ||U||_q1 near 1 for the log log regime to be reachable
    p, q1, q2, r1, r2 = 8.0, 2.0, 2.5, 0.3, 0.5
    table = make_norm_table(p, q1, q2, r1, r2)
    spec = scenario_problem(get_scenario("cor4"), p, q1, q2, r1, r2)
    errors = []
    for lam in (1e4, 1e6, 1e8):
        window = (1e-12 * table.n_q1, 1e3 * math.log(lam))
        res = solve_single(spec, table, lam, window=window)
        s1_pred, _ = cor4_asymptotics(table, lam)
        errors.append(abs(res.roots[0].s - s1_pred) / res.roots[0].s)
    assert errors == sorted(errors, reverse=True)
    # leading order alone: s1 lam^(1/(p-1)) / n1 -> 1
    lead = []
    for lam in (1e4, 1e16):
        window = (1e-12 * table.n_q1, 1e3 * math.log(lam))
        res = solve_single(spec, table, lam, window=window)
        lead.append(res.roots[0].s * lam ** (1.0 / (p - 1.0)) / table.n_q1)
        ratio = (res.roots[-1].s - math.log(lam)) / ((p - 1.0) * math.log(math.log(lam)))
        assert 0.5 <= ratio <= 2.0
        if lam == 1e16:
            assert 0.9 <= ratio <= 1.1
    assert abs(lead[1] - 1.0) < abs(lead[0] - 1.0)


def test_sweep_matches_analytic_thresholds(setup3):
    table, specs = setup3
    sc = get_scenario("cor4")
    th = analytic_thresholds(sc, table)[0]
    grid = list(np.geomspace(0.4 * th, 4.0 * th, 7))
    diagram = sweep(specs["cor4"], table, grid)
    assert len(diagram.thresholds) == 1
    assert diagram.thresholds[0].lam == pytest.approx(th, rel=1e-7)


def test_check_scenario_reports_mismatch(setup3):
    table, specs = setup3
    sc = get_scenario("cor4")
    th = analytic_thresholds(sc, table)[0]
    # a window that misses the small root forces a count mismatch report
    rep = check_scenario(sc, specs["cor4"], table, 50.0 * th,
                         window=(1.0, 1e6 * table.n_q1))
    assert not rep.passed
    assert any("count mismatch" in m for m in rep.messages)
