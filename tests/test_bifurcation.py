"""Scalar reduction engine: g, root solving, quadruple lift, reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import bifurcation
from blowup.bifurcation import (
    CoefficientError,
    _events,
    g_of_s,
    lift_quadruple,
    make_problem_spec,
    nonlocal_residual,
    _brent,
    reconstruct,
    solve_single,
    sweep,
    system_residual,
)
from blowup.norms import ExponentError, make_norm_table
from blowup.oracles import norm_x_quadrature
from blowup.scenarios import analytic_thresholds, get_scenario, scenario_problem
from blowup.timemap import eval_U, eval_U_prime


def _spec(table, A="1", B="1", params=None):
    return make_problem_spec(table.p, table.q1, table.q2, table.r1, table.r2,
                             A, B, params, scan_positivity=False)


def test_make_problem_spec_validation(table3):
    with pytest.raises(ExponentError):
        make_problem_spec(3.0, 1.5, 0.5, 0.3, 0.3, "1", "1")
    with pytest.raises(ValueError, match="reserved"):
        _spec(table3, params={"p": 2.0})
    with pytest.raises(ValueError, match="unbound"):
        _spec(table3, A="a*s")
    with pytest.raises(CoefficientError):
        make_problem_spec(3.0, 0.5, 0.7, 0.2, 0.3, "1", "t-5", scan_positivity=True)


def test_g_constant_coefficients(table3):
    spec = _spec(table3)
    for s in np.geomspace(1e-3, 1e3, 9):
        assert g_of_s(spec, table3, s) == pytest.approx(s ** -2.0, rel=1e-14)


def test_g_exponential_coefficients(table3):
    # A = e^s, B = 1 collapses to g(s) = e^s s^(1-p), minimized at s = p-1
    spec = _spec(table3, A="exp(s)", B="1")
    p = table3.p
    for s in (0.5, 2.0, 7.0):
        assert g_of_s(spec, table3, s) == pytest.approx(math.exp(s) * s ** (1.0 - p), rel=1e-14)
    grid = np.geomspace(0.1, 50.0, 4001)
    vals = [g_of_s(spec, table3, s) for s in grid]
    s_min = grid[int(np.argmin(vals))]
    assert s_min == pytest.approx(p - 1.0, rel=1e-2)
    assert min(vals) >= (math.e / (p - 1.0)) ** (p - 1.0) * (1.0 - 1e-6)


def test_g_reduced_rational_form(table3):
    # A = s^(p-1)(1+t), B = s+t gives g = (n1 + m1 s) / ((n2 + m2) s)
    spec = _spec(table3, A="s^(p-1)*(1+t)", B="s+t")
    n1, n2, m1, m2 = table3.n_q1, table3.n_q2, table3.m_r1, table3.m_r2
    for s in (0.01, 1.0, 250.0):
        expected = (n1 + m1 * s) / ((n2 + m2) * s)
        assert g_of_s(spec, table3, s) == pytest.approx(expected, rel=1e-13)


def test_g_domain_errors(table3):
    spec = _spec(table3)
    with pytest.raises(ValueError):
        g_of_s(spec, table3, 0.0)
    bad = _spec(table3, A="s-1000000")
    with pytest.raises(CoefficientError) as err:
        g_of_s(bad, table3, 1.0)
    assert err.value.which == "A"


def test_solve_constant_coefficients(table3):
    spec = _spec(table3)
    lam = 4.0
    result = solve_single(spec, table3, lam)
    assert result.count == 1
    root = result.roots[0]
    assert root.kind == "transversal"
    # s^(1-p) = lam n1^(1-p)  =>  s = n1 lam^(-1/(p-1))
    assert root.s == pytest.approx(table3.n_q1 / 2.0, rel=1e-12)
    assert root.residual <= 1e-9
    assert not result.overflow and not result.window_edge


def test_solve_planted_root_dual_path(table3):
    spec = _spec(table3, A="2+cos(s)*0.5+t*0.01", B="1+t^2*0.001")
    for s0 in (0.37 * table3.n_q1, 4.1 * table3.n_q1):
        lam = g_of_s(spec, table3, s0) * table3.n_q1 ** (table3.p - 1.0)
        result = solve_single(spec, table3, lam)
        target = lam * table3.n_q1 ** (1.0 - table3.p)
        best = min(result.roots, key=lambda r: abs(r.s - s0))
        assert abs(g_of_s(spec, table3, best.s) - target) <= 1e-12 * target
        assert best.s == pytest.approx(s0, rel=1e-10)


def test_lift_quadruple(table3):
    quad = lift_quadruple(table3, table3.n_q1)
    assert quad == (table3.n_q1, table3.n_q2, table3.m_r1, table3.m_r2)
    s = 0.731
    assert lift_quadruple(table3, 2.0 * s) == tuple(2.0 * v for v in lift_quadruple(table3, s))
    ratios = [v / n for v, n in zip(lift_quadruple(table3, s),
                                    (table3.n_q1, table3.n_q2, table3.m_r1, table3.m_r2))]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-15)


def test_system_residual_at_roots(table3):
    spec = _spec(table3, A="s^(p-1)*(1+t)", B="s+t")
    lam = 2.0 * table3.n_q1 ** (table3.p - 1.0) * table3.m_r1 / (table3.n_q2 + table3.m_r2)
    result = solve_single(spec, table3, lam)
    assert result.count == 1
    for root in result.roots:
        assert system_residual(spec, table3, lam, root.quadruple) <= 1e-9


def test_reconstruct_identity_scaling(profile3, table3):
    sample = reconstruct(profile3, table3, table3.n_q1, n=41, delta=0.01)
    for x, u in zip(sample.grid, sample.values):
        assert u == pytest.approx(eval_U(profile3, x), rel=1e-15)


def test_reconstruct_norm_recovery(profile3, table3):
    # the q1-norm of the reconstruction u = (s/n1) U equals s
    s = 3.2 * table3.n_q1
    numeric = norm_x_quadrature(profile3, table3.q1, scale=s / table3.n_q1)
    assert numeric == pytest.approx(s, rel=1e-6)


def test_nonlocal_residual(profile3, table3):
    spec = _spec(table3, A="s^(p-1)*(1+t)", B="s+t")
    lam = 3.0 * table3.n_q1 ** (table3.p - 1.0) * table3.m_r1 / (table3.n_q2 + table3.m_r2)
    result = solve_single(spec, table3, lam)
    for root in result.roots:
        res = nonlocal_residual(spec, table3, profile3, lam, root.s)
        assert res <= 1e-7


def test_window_robustness(table3):
    spec = _spec(table3, A="s^p*((t-a)^2+b)", B="s+t", params={"a": 1.0, "b": 1.0})
    lam = 1.5 * table3.n_q1 ** table3.p / (table3.n_q2 + table3.m_r2)
    base = solve_single(spec, table3, lam, window=(1e-3 * table3.n_q1, 1e3 * table3.n_q1))
    for factor in (10.0, 1e3):
        wider = solve_single(spec, table3, lam,
                             window=(1e-3 * table3.n_q1 / factor, 1e3 * table3.n_q1 * factor))
        assert wider.count >= base.count


def test_transversal_roots_move_continuously(table3):
    spec = _spec(table3, A="exp(s)", B="1")
    lam = 4.0 * (math.e / 2.0) ** 2.0 * table3.n_q1 ** 2.0
    res_a = solve_single(spec, table3, lam)
    res_b = solve_single(spec, table3, lam * (1.0 + 1e-6))
    assert res_a.count == res_b.count == 2
    for ra, rb in zip(res_a.roots, res_b.roots):
        assert abs(rb.s - ra.s) / ra.s <= 1e-4


def test_window_edge_detection(table3):
    spec = _spec(table3)
    # lam = 1 puts the root at s = n_q1, just below this window
    result = solve_single(spec, table3, 1.0,
                          window=(1.05 * table3.n_q1, 1e3 * table3.n_q1))
    assert result.window_edge
    edge_roots = [r for r in result.roots if r.kind == "window-edge"]
    assert len(edge_roots) == 1
    assert edge_roots[0].s == pytest.approx(table3.n_q1, rel=1e-10)
    assert result.count == 0  # edge roots are not counted


def test_count_cap_overflow(table3):
    spec = _spec(table3, A="2+sin(s)", B="t^(1-p)")
    lam = 2.0 * table3.m_r2 ** (table3.p - 1.0)
    result = solve_single(spec, table3, lam, window=(1e-3, 1e5), count_cap=5)
    assert result.overflow
    assert result.count == 5
    ascending = [r.s for r in result.roots]
    assert ascending == sorted(ascending)


def test_solve_rejects_bad_inputs(table3):
    spec = _spec(table3)
    with pytest.raises(ValueError):
        solve_single(spec, table3, -1.0)
    with pytest.raises(ValueError):
        solve_single(spec, table3, 1.0, window=(5.0, 2.0))
    with pytest.raises(ValueError):
        solve_single(spec, table3, 1.0, count_cap=0)


def test_sweep_thresholds_constant_plus_linear(table3):
    # cor1-style closed form: threshold at n1^(p-1) m1 / (n2 + m2)
    spec = _spec(table3, A="s^(p-1)*(1+t)", B="s+t")
    th = table3.n_q1 ** 2.0 * table3.m_r1 / (table3.n_q2 + table3.m_r2)
    grid = list(np.geomspace(0.3 * th, 3.0 * th, 6))
    diagram = sweep(spec, table3, grid, window=(1e-6 * table3.n_q1, 1e9 * table3.n_q1))
    assert diagram.counts == (0, 0, 0, 1, 1, 1)
    assert len(diagram.thresholds) == 1
    found = diagram.thresholds[0]
    assert found.lam == pytest.approx(th, rel=1e-7)
    assert (found.count_below, found.count_above) == (0, 1)
    assert found.reliable


def test_sweep_rejects_bad_grid(table3):
    spec = _spec(table3)
    with pytest.raises(ValueError):
        sweep(spec, table3, [2.0, 1.0])
    with pytest.raises(ValueError):
        sweep(spec, table3, [-1.0, 2.0])


def test_sweep_threads_deterministic(table3):
    spec = _spec(table3, A="exp(s)", B="1")
    th = (math.e / 2.0) ** 2.0 * table3.n_q1 ** 2.0
    grid = list(np.geomspace(0.5 * th, 2.0 * th, 5))
    one = sweep(spec, table3, grid, threads=1)
    four = sweep(spec, table3, grid, threads=4)
    assert one == four


def _loop_events(grid, h_grid, cand_tol):
    """The scalar event scan that _events replaced, kept as its reference."""
    n_grid = len(h_grid)
    events = []
    sign = np.sign(h_grid)
    for i in range(n_grid - 1):
        if sign[i] == 0.0:
            continue
        if sign[i + 1] != 0.0 and sign[i] != sign[i + 1]:
            events.append((float(grid[i]), "bracket", i))
    for i in range(n_grid):
        if sign[i] == 0.0:
            events.append((float(grid[i]), "gridzero", i))
    abs_h = np.abs(h_grid)
    for i in range(1, n_grid - 1):
        if sign[i] == 0.0 or sign[i - 1] != sign[i] or sign[i] != sign[i + 1]:
            continue
        if abs_h[i] <= cand_tol and abs_h[i] <= abs_h[i - 1] and abs_h[i] <= abs_h[i + 1]:
            events.append((float(grid[i]), "dip", i))
    events.sort(key=lambda e: e[0])
    return [(i, kind) for _, kind, i in events]


def _check_events(h_grid, grid=None, cand_tol=1e-3):
    h_grid = np.asarray(h_grid, dtype=float)
    grid = np.geomspace(1.0, 2.0, len(h_grid)) if grid is None else np.asarray(grid, float)
    got = _events(grid, np.sign(h_grid), np.abs(h_grid), cand_tol)
    assert got == _loop_events(grid, h_grid, cand_tol)
    return got


@pytest.mark.parametrize("h_grid", [
    [],
    [0.0],
    [1.0, -1.0],
    [0.0, 1.0, -1.0, 0.0],             # exact zeros at both ends
    [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],   # adjacent zeros
    [1.0, -0.0, 1.0],                  # negative zero is a grid zero
    [1.0, math.nan, 1.0, -1.0, math.nan, math.nan, 2.0],
    [math.inf, -math.inf, 1.0, math.inf, 5e-4, math.inf],
    [1.0, 5e-4, 5e-4, 5e-4, 1.0],      # plateau with equal |h|
    [-1.0, -5e-4, -5e-4, -1.0, 2e-4, 3e-4, 2e-4, 1.0],
    [1.0, 1e-3, 1.0, -1.0, -1e-3, -1.0, 1.0, 1.0000001e-3, 1.0],  # at and above cand_tol
    [math.nan, 1e-4, math.nan, 1e-4, 1.0, 0.0, -1.0],
])
def test_events_match_loop_scan(h_grid):
    _check_events(h_grid)


def test_events_kinds_and_order():
    got = _check_events([0.0, 1.0, -1.0, -5e-4, -1.0, 0.0, 0.0, 2.0, 5e-4, 1.0])
    assert got == [(0, "gridzero"), (1, "bracket"), (3, "dip"), (5, "gridzero"),
                   (6, "gridzero"), (8, "dip")]


_H_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1e-3, -1e-3, 5e-4, -5e-4,
                             math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(_H_VALUES, max_size=12), st.data())
def test_events_match_loop_scan_property(h_grid, data):
    # grids drawn from a small set repeat values and need not be increasing,
    # so ties in s and out-of-order cells are exercised too
    grid = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, math.inf]),
                              min_size=len(h_grid), max_size=len(h_grid)))
    _check_events(h_grid, grid)


@pytest.mark.parametrize("name, count_cap", [("cor2", 64), ("cor3", 8)])
def test_sweep_equals_per_lambda_solves(name, count_cap, monkeypatch):
    p = 3.0
    table = make_norm_table(p, 0.5, 0.7, 0.2, 0.3)
    scenario = get_scenario(name)
    spec = scenario_problem(scenario, p, 0.5, 0.7, 0.2, 0.3)
    ths = analytic_thresholds(scenario, table)
    grid = list(np.geomspace(0.5 * ths[0], 2.0 * ths[-1], 7))
    window = (1e-3, 1e5)
    diagram = sweep(spec, table, grid, window=window, count_cap=count_cap)
    singles = tuple(solve_single(spec, table, lam, window, count_cap) for lam in grid)
    assert diagram.results == singles
    if name == "cor3":
        assert any(res.overflow for res in diagram.results)
    # thresholds too: bisection on fresh scans gives the same diagram
    fresh = bifurcation.solve_single

    def rescanning(*args, _scanned=None, **kwargs):
        return fresh(*args, **kwargs)

    monkeypatch.setattr(bifurcation, "solve_single", rescanning)
    assert sweep(spec, table, grid, window=window, count_cap=count_cap) == diagram
    assert diagram.thresholds


def test_reconstruct_is_scaled_sample_profile(profile3, table3):
    s = 2.5 * table3.n_q1
    scale = s / table3.n_q1
    sample = reconstruct(profile3, table3, s, n=41, delta=0.01)
    # element for element the per-point loops reconstruct used to run
    assert np.array_equal(sample.values, [scale * eval_U(profile3, x) for x in sample.grid])
    assert np.array_equal(sample.derivs, [scale * eval_U_prime(profile3, x) for x in sample.grid])
    assert sample.delta == 0.01
    with pytest.raises(ValueError):
        reconstruct(profile3, table3, s, grid=[0.0, 0.9999], delta=0.01)
    with pytest.raises(ValueError):
        reconstruct(profile3, table3, 0.0, n=41)


def test_both_coefficients_overflowing_is_a_coefficient_error(table3):
    # A = e^s and B = e^t both reach +inf near s = 710, where g = inf/inf
    spec = _spec(table3, A="exp(s)", B="exp(t)")
    with pytest.raises(CoefficientError, match="undetermined") as err:
        solve_single(spec, table3, 1.0)
    s_bad = err.value.point[0]
    assert 709.0 < s_bad < 720.0
    assert f"end below s={s_bad!r}" in str(err.value)
    result = solve_single(spec, table3, 1.0, window=(1e-6, 500.0))
    assert [r.kind for r in result.roots] == ["transversal"]
    # one overflowing coefficient alone still scans: g = inf keeps its sign
    assert solve_single(_spec(table3, A="exp(s)", B="1"), table3, 2000.0).count == 2


def _recording_brent(monkeypatch):
    calls = []

    def recording(f, xa, xb, **kwargs):
        root = _brent(f, xa, xb, **kwargs)
        calls.append((f, xa, xb, kwargs, root))
        return root

    monkeypatch.setattr(bifurcation, "_brent", recording)
    return calls


@pytest.mark.parametrize("name", ["cor1", "cor2", "cor3", "cor4"])
def test_brent_bit_identical_to_scipy_on_scenarios(name, monkeypatch):
    brentq = pytest.importorskip("scipy.optimize").brentq
    p = 3.0
    table = make_norm_table(p, 0.5, 0.7, 0.2, 0.3)
    scenario = get_scenario(name)
    spec = scenario_problem(scenario, p, 0.5, 0.7, 0.2, 0.3)
    ths = analytic_thresholds(scenario, table)
    calls = _recording_brent(monkeypatch)
    sweep(spec, table, np.geomspace(0.5 * ths[0], 2.0 * ths[-1], 5),
          window=(1e-3, 1e5), count_cap=16)
    assert calls
    for f, xa, xb, kwargs, root in calls:
        assert brentq(f, xa, xb, **kwargs) == root


def _outcome(solver, f, xa, xb, **kwargs):
    try:
        return solver(f, xa, xb, **kwargs)
    except Exception as exc:  # the same exception type is the same outcome
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.floats(-50.0, 50.0), st.floats(1e-6, 1e3), st.floats(0.01, 1.0),
       st.floats(0.0, 30.0), st.floats(-3.0, 3.0), st.integers(0, 3),
       st.sampled_from([(2e-12, 8.881784197001252e-16, 100), (1e-300, 8.9e-16, 200),
                        (1e-3, 1e-6, 100), (2e-12, 8.881784197001252e-16, 3)]))
def test_brent_bit_identical_to_scipy_on_random_brackets(xa, width, frac, k, c, shape, opts):
    brentq = pytest.importorskip("scipy.optimize").brentq
    xb = xa + width
    r = xa + frac * width
    f = [lambda x: math.atan(k * (x - r)) + c * (x - r) ** 3,
         lambda x: math.sin(k * x + c),
         lambda x: math.expm1(c * (x - r)) + 1e-3 * (x - r),
         lambda x: math.nan if x > r else -1.0][shape]
    xtol, rtol, maxiter = opts
    new = _outcome(_brent, f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)
    old = _outcome(brentq, f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert new == old or (new != new and old != old)
