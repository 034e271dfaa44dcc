"""What one sweep shares between its solves: g memoised by s, golden-section
trails replayed, and Brent's value at the root.  Sharing must never show:
every solve of a sweep equals a fresh solve that shares nothing.  The
scenario sweeps are checked the same way in test_bifurcation."""

import math
import struct
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup import bifurcation
from blowup.bifurcation import (
    CoefficientError,
    _golden_min,
    g_of_s,
    make_problem_spec,
    solve_single,
    sweep,
)
from blowup.exprdsl import Bin, Call, CoeffExpr, Name, Num
from blowup.norms import make_norm_table
from test_exprdsl import _asts


def _bits(pair):
    return tuple(struct.pack("<d", v) for v in pair)


def _counted(g):
    calls = []

    def counted(s):
        calls.append(s)
        return g(s)
    return counted, calls


def _parabola(level, width, centre):
    return lambda s: level + width * (math.log(s) - centre) ** 2


# ----------------------------------------------------------------------
# golden-section replay

@settings(max_examples=400, deadline=None)
@given(lo=st.floats(1e-3, 1e3), spread=st.floats(1e-6, 1.0), where=st.floats(-0.5, 1.5),
       level=st.floats(1e-3, 1e3), width=st.floats(1e-3, 1e6),
       sigma=st.sampled_from([1.0, -1.0]), first=st.floats(-1e3, 1e3),
       tie_exponent=st.integers(-60, 80), tie_sign=st.sampled_from([1.0, -1.0]))
@example(lo=1.0, spread=0.01, where=0.5, level=1.0, width=1.0, sigma=1.0, first=0.0,
         tie_exponent=40, tie_sign=-1.0)
def test_replay_equals_fresh_search(lo, spread, where, level, width, sigma, first,
                                    tie_exponent, tie_sign):
    # the second target sits 2^k from g, so g - target rounds the differences
    # of g between nodes away from some k on: first between the last nodes,
    # then between earlier ones, and the recorded decisions stop holding
    hi = lo * math.exp(spread)
    g = _parabola(level, width, math.log(lo) + where * spread)
    second = level + tie_sign * 2.0 ** tie_exponent
    trails = {}
    _golden_min(g, first, sigma, lo, hi, trails)
    counted, calls = _counted(g)
    replayed = _golden_min(counted, second, sigma, lo, hi, trails)
    assert _bits(replayed) == _bits(_golden_min(g, second, sigma, lo, hi))
    if calls:  # the decisions differed: the loop ran and its trail replaced the old one
        counted, calls = _counted(g)
        assert _bits(_golden_min(counted, second, sigma, lo, hi, trails)) == _bits(replayed)
        assert not calls


def test_replay_skips_g_and_falls_back_on_ties():
    lo, hi = 1.0, 1.01
    g = _parabola(1.0, 1.0, math.log(1.005))
    trails = {}
    recorded = _golden_min(g, 0.5, 1.0, lo, hi, trails)
    assert list(trails) == [(lo, hi, 1.0)]
    # g - target is exact for target 0 and for targets within a factor of 2
    # of g (Sterbenz), so every decision is the recorded one: no g at all
    for target in (0.5, 0.0, 0.75, 1.0 + 1e-9, 1.9):
        counted, calls = _counted(g)
        assert _bits(_golden_min(counted, target, 1.0, lo, hi, trails)) \
            == _bits(_golden_min(g, target, 1.0, lo, hi))
        assert not calls
    assert _golden_min(g, 0.5, 1.0, lo, hi, trails) == recorded
    # at 2^40 below g, g - target has an ulp of 2^-12: the last nodes tie
    counted, calls = _counted(g)
    tied = 1.0 - 2.0 ** 40
    assert _bits(_golden_min(counted, tied, 1.0, lo, hi, trails)) \
        == _bits(_golden_min(g, tied, 1.0, lo, hi))
    assert calls
    # sigma is part of the key: the other sign records a trail of its own
    _golden_min(g, 0.5, -1.0, lo, hi, trails)
    assert sorted(trails) == [(lo, hi, -1.0), (lo, hi, 1.0)]


def test_lone_solve_records_no_trail(table3, monkeypatch):
    seen = []
    golden = bifurcation._golden_min

    def spy(g, target, sigma, lo, hi, trails=None, iters=120):
        seen.append(trails)
        return golden(g, target, sigma, lo, hi, trails, iters)

    monkeypatch.setattr(bifurcation, "_golden_min", spy)
    spec = make_problem_spec(table3.p, table3.q1, table3.q2, table3.r1, table3.r2,
                             "s^(p-1)*(2+sin(s))", "1", scan_positivity=False)
    lam = 1.0 * table3.n_q1 ** (table3.p - 1.0)  # the troughs of 2+sin(s) touch it
    solve_single(spec, table3, lam, window=(1e-2, 1e2))
    assert seen and all(trails is None for trails in seen)
    seen.clear()
    sweep(spec, table3, [0.9 * lam, lam], window=(1e-2, 1e2))
    assert seen and all(isinstance(trails, dict) for trails in seen)


# ----------------------------------------------------------------------
# a sweep equals per-lambda solves that share nothing

def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError, RuntimeError) as exc:  # CoefficientError too
        return type(exc), str(exc)


def _fresh_sweep(spec, table, grid, window, count_cap, n_grid):
    """sweep with every solve, bisection steps included, on its own scan."""
    fresh = bifurcation.solve_single

    def sharing_nothing(*args, _scanned=None, **kwargs):
        return fresh(*args, n_grid=n_grid, **kwargs)

    with mock.patch.object(bifurcation, "solve_single", sharing_nothing):
        return sweep(spec, table, grid, window, count_cap, n_grid)


def _check_sweep_shares_nothing_visible(spec, table, grid, window, count_cap, n_grid):
    diagram = _outcome(lambda: sweep(spec, table, grid, window, count_cap, n_grid))
    assert diagram == _outcome(lambda: _fresh_sweep(spec, table, grid, window, count_cap,
                                                    n_grid))
    if isinstance(diagram, tuple):
        return diagram
    singles = tuple(solve_single(spec, table, lam, window, count_cap, n_grid) for lam in grid)
    assert diagram.results == singles
    for res in diagram.results:
        for root in res.roots:  # the residual is |g - target| at the root, recomputed
            assert root.residual == abs(g_of_s(spec, table, root.s) - res.target) / abs(res.target)
    return diagram


# E wrapped so the coefficient is positive wherever E is finite; the first
# two oscillate in s, so g has dips and the counts change inside the range
_S_POWER = Bin("^", Name("s"), Bin("-", Name("p"), Num(1.0)))
_WRAPS = (lambda e: Bin("*", _S_POWER, Bin("+", Num(2.0), Call("sin", Bin("+", Name("s"), e)))),
          lambda e: Bin("*", _S_POWER, Call("exp", Call("sin", Bin("*", Name("s"), e)))),
          lambda e: Bin("+", Num(1.5), Call("cos", e)))


@settings(max_examples=60, deadline=None)
@given(_asts, _asts, st.sampled_from(range(len(_WRAPS))), st.sampled_from(range(len(_WRAPS))),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.2, 5.0), st.floats(1.05, 10.0))
def test_custom_sweep_equals_fresh_solves(e_a, e_b, wrap_a, wrap_b, a, b, lam_lo, lam_ratio):
    table = make_norm_table(3.0, 0.5, 0.7, 0.2, 0.3)
    spec = make_problem_spec(3.0, 0.5, 0.7, 0.2, 0.3,
                             CoeffExpr(ast=_WRAPS[wrap_a](e_a.ast)),
                             CoeffExpr(ast=_WRAPS[wrap_b](e_b.ast)),
                             {"a": a, "b": b}, scan_positivity=False)
    scale = table.n_q1 ** (table.p - 1.0)
    grid = list(np.geomspace(lam_lo * scale, lam_lo * lam_ratio * scale, 5))
    _check_sweep_shares_nothing_visible(spec, table, grid, (1e-2, 1e2), 8, 512)


def test_g_raising_where_only_brent_looks_raises_as_before():
    # A is s^(p-1)(1+s), except on [c - e, c + e], where log raises; c is the
    # root that Brent reaches in the fourth solve of the threshold bisection,
    # so the scan, the edge probes and every earlier solve never see it
    table = make_norm_table(3.0, 0.5, 0.7, 0.2, 0.3)
    c = 1.0313833204053395
    spec = make_problem_spec(3.0, 0.5, 0.7, 0.2, 0.3, "s^(p-1)*(1+s)*exp(0*log(abs(s-c)-e))",
                             "1", {"c": c, "e": 1e-9 * c}, scan_positivity=False)
    scale = table.n_q1 ** 2.0
    grid = [1.5 * scale, 3.0 * scale]
    outcome = _check_sweep_shares_nothing_visible(spec, table, grid, (1.0, 100.0), 64, 4096)
    assert outcome == (CoefficientError,
                       "coefficient A at (s=1.0313833204053395, t=21.36514558309235): log of "
                       "nonpositive value -1.0313833204053395e-09 in subexpression "
                       "'log(abs(s - c) - e)'")
